package engine_test

// Property test for the one feature walk: validation records the
// features a statement uses and its deepest expression nesting, and the
// fault check reads that record. On every dialect, armed and clean, over
// fixed statements, generated setup statements, oracle-case queries and
// every query each case's oracle runs (rotating over the default
// oracles), the record of each statement that validates must equal the
// reference walk's (featureref_test.go).

import (
	"testing"

	"sqlancerpp/internal/baseline"
	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// walkCase is a fixed input: where it validates, the record must hold
// the features in want and, when depth is non-zero, report that depth.
type walkCase struct {
	sql   string
	want  []string
	depth int
}

// walkCases run in order on every dialect ahead of the generated
// stream, so the tables come first. The last ones cover what validation
// records without a support check: WHERE on UPDATE and DELETE, DISTINCT
// inside an aggregate, ORDER BY on a compound query, and SELECT nested
// in a view, an INSERT or a subquery.
var walkCases = []walkCase{
	{"CREATE TABLE t (a INTEGER NOT NULL, b BOOLEAN, PRIMARY KEY (a))",
		[]string{"BOOLEAN", "CREATE TABLE", "INTEGER", "NOT NULL", "PRIMARY KEY"}, 0},
	{"CREATE TABLE u (c INTEGER, d TEXT)", []string{"CREATE TABLE", "INTEGER", "TEXT"}, 0},
	{"CREATE UNIQUE INDEX i ON t (a) WHERE a > 1",
		[]string{">", "CREATE INDEX", "PARTIAL INDEX", "UNIQUE INDEX"}, 2},
	{"SELECT DISTINCT a FROM t LEFT JOIN u ON TRUE WHERE NULLIF(a, 1) != 2 ORDER BY a LIMIT 1 OFFSET 2",
		[]string{"!=", "BOOLEAN", "DISTINCT", "LEFT JOIN", "LIMIT", "NULLIF", "OFFSET", "ORDER BY", "SELECT", "WHERE"}, 3},
	{"SELECT a FROM t UNION ALL SELECT c FROM u", []string{"SELECT", "UNION ALL"}, 1},
	{"INSERT OR IGNORE INTO t (a) VALUES (1), (2)",
		[]string{"INSERT", "INSERT OR IGNORE", "MULTI-ROW INSERT"}, 1},
	{"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 0",
		[]string{">", "COUNT", "GROUP BY", "HAVING", "SELECT"}, 2},
	{"REFRESH TABLE t", []string{"REFRESH TABLE"}, 0},
	{"SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.d GLOB '*')",
		[]string{"EXISTS", "GLOB", "SELECT", "WHERE"}, 3},
	{"SELECT 1", []string{"SELECT"}, 1},
	{"SELECT 1 + 2", []string{"+"}, 2},
	{"SELECT (1 + 2) * 3", []string{"*", "+"}, 3},
	{"SELECT ABS((1 + 2) * 3)", []string{"ABS"}, 4},
	{"SELECT NOT ((1 + 2) * 3 = 4)", []string{"=", "NOT"}, 5},
	{"SELECT a + 1 FROM t WHERE a IN (1, 2)", []string{"+", "IN", "WHERE"}, 2},
	{"UPDATE t SET a = 1 WHERE a > 2", []string{">", "UPDATE", "WHERE"}, 2},
	{"DELETE FROM t WHERE a < 0", []string{"<", "DELETE", "WHERE"}, 2},
	{"SELECT COUNT(DISTINCT a) FROM t", []string{"COUNT", "DISTINCT", "SELECT"}, 2},
	{"SELECT a FROM t UNION SELECT c FROM u ORDER BY a", []string{"ORDER BY", "UNION"}, 1},
	{"SELECT * FROM t UNION SELECT * FROM t ORDER BY a", []string{"ORDER BY", "UNION"}, 1},
	{"CREATE VIEW v AS SELECT a FROM t", []string{"CREATE VIEW", "SELECT"}, 1},
	{"INSERT INTO t (a) VALUES ((SELECT MAX(c) FROM u))", []string{"INSERT", "MAX", "SELECT", "SUBQUERY"}, 3},
	{"SELECT 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8", []string{"+"}, 8},
	{"SELECT a FROM t WHERE a = (SELECT MAX(c) FROM u WHERE c > (SELECT MIN(c) FROM u WHERE c + 1 > 2))",
		[]string{"=", ">", "MAX", "MIN", "SUBQUERY"}, 7},
}

// walkStats counts what a run compared.
type walkStats struct {
	compared int            // statements whose record was compared
	deep     int            // of those, nested deeper than the crash bound
	fixed    map[string]int // fixed inputs that validated, by SQL
	used     feature.Set    // every feature a compared statement used
}

func TestValidatorRecordsReferenceFeatures(t *testing.T) {
	stats := walkStats{fixed: map[string]int{}}
	for _, name := range dialect.Names() {
		d := dialect.MustGet(name)
		t.Run(name+"/armed", func(t *testing.T) { checkFeatureWalk(t, d, &stats) })
		t.Run(name+"/clean", func(t *testing.T) { checkFeatureWalk(t, d, &stats, engine.WithoutFaults()) })
	}
	for _, c := range walkCases {
		if stats.fixed[c.sql] == 0 {
			t.Errorf("fixed input never validated on any dialect: %s", c.sql)
		}
	}
	// The stream must reach what the fault catalogue keys on.
	for _, f := range []string{"DISTINCT", "HAVING", "LIKE", "IN", "NULLIF", "~", "<<", ">>"} {
		if !stats.used.Has(feature.MustLookup(f)) {
			t.Errorf("no compared statement used %s", f)
		}
	}
	if stats.compared < 10000 || stats.deep == 0 {
		t.Fatalf("compared %d statements, %d deeper than 6: stream starved", stats.compared, stats.deep)
	}
	t.Logf("compared %d statements, %d deeper than 6", stats.compared, stats.deep)
}

// checkFeatureWalk runs the fixed inputs and a generated stream on one
// instance of d opened with opts, comparing each validated statement's
// record with the reference walk before executing it.
func checkFeatureWalk(t *testing.T, d *dialect.Dialect, stats *walkStats, opts ...engine.Option) {
	db := engine.Open(d, append(opts, engine.WithRowBudget(4000))...)
	check := func(stmt sqlast.Stmt) (feature.Set, int, bool) {
		got, gotDepth, err := engine.ValidatedFeatures(db, stmt)
		if err != nil {
			return got, gotDepth, false
		}
		want, wantDepth := engine.ReferenceFeatures(stmt)
		if got != want || gotDepth != wantDepth {
			t.Fatalf("%s\nvalidation recorded %v, depth %d\nreference walk:     %v, depth %d",
				stmt.SQL(), got.Names(), gotDepth, want.Names(), wantDepth)
		}
		stats.compared++
		stats.used.Union(&got)
		if gotDepth > 6 {
			stats.deep++
		}
		return got, gotDepth, true
	}
	exec := func(sql string) bool {
		ok, crashed := run(db, sql)
		if crashed {
			db.Restart()
		}
		return ok
	}
	checkSQL := func(sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %s: %v", sql, err)
		}
		check(stmt)
	}

	for _, c := range walkCases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %s: %v", c.sql, err)
		}
		got, depth, ok := check(stmt)
		if !ok {
			continue
		}
		stats.fixed[c.sql]++
		for _, f := range c.want {
			if !got.Has(feature.MustLookup(f)) {
				t.Errorf("%s: %s missing from %v", c.sql, f, got.Names())
			}
		}
		if c.depth != 0 && depth != c.depth {
			t.Errorf("%s: depth %d, want %d", c.sql, depth, c.depth)
		}
		exec(c.sql)
	}

	// The dialect-truth policy keeps most statements valid; deep
	// expressions reach past the deep-expression crash bound.
	g := gen.New(gen.Config{Seed: 26, Policy: baseline.NewPolicy(d), StartDepth: 2, MaxDepth: 6,
		DepthInterval: 40, TypeCorrect: d.TypeSystem == dialect.Static})
	for i := 0; i < 60; i++ {
		st := g.GenSetup()
		check(st.Stmt)
		if exec(st.SQL) && st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	oracles := oracle.DefaultNames()
	for i := 0; i < 150; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		sel := sqlast.CloneSelect(oc.Base)
		sel.Where = oc.Pred
		check(sel)
		o, _ := oracle.Get(oracles[i%len(oracles)])
		res := o.Check(db, &oracle.Case{Base: oc.Base, Pred: oc.Pred, Seq: i})
		if db.Crashed() {
			db.Restart()
		}
		for _, q := range res.Queries {
			checkSQL(q)
		}
	}
}

// TestFeatureFaultCheckAllocatesNothing guards the fault check on an
// armed tidb instance: reading the validated statement's record and
// testing it against the fault triggers allocates nothing when no fault
// fires.
func TestFeatureFaultCheckAllocatesNothing(t *testing.T) {
	db := engine.Open(dialect.MustGet("tidb"))
	g := gen.New(gen.Config{Seed: 1, Policy: gen.AllowAll{}})
	var stmts []sqlast.Stmt
	for i := 0; i < 40; i++ {
		st := g.GenSetup()
		if ok, crashed := run(db, st.SQL); ok && st.OnSuccess != nil {
			st.OnSuccess()
		} else if crashed {
			db.Restart()
		}
		stmts = append(stmts, st.Stmt)
	}
	for i := 0; i < 300; i++ {
		if oc := g.GenOracleCase(); oc != nil {
			q := *oc.Base
			q.Where = oc.Pred
			stmts = append(stmts, &q)
		}
	}
	measured := 0
	for _, st := range stmts {
		if _, _, err := engine.ValidatedFeatures(db, st); err != nil {
			continue
		}
		if engine.CheckFeatureFaults(db) != nil {
			db.Restart() // a fault fired, and its error is the one allocation
			continue
		}
		if allocs := testing.AllocsPerRun(5, func() { _ = engine.CheckFeatureFaults(db) }); allocs != 0 {
			t.Fatalf("the fault check allocates %.0f times:\n  %s", allocs, st.SQL())
		}
		measured++
	}
	if measured < 100 {
		t.Fatalf("measured %d of %d statements", measured, len(stmts))
	}
}
