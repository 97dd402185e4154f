package engine

// Fixed-input checks of the features and expression depth that
// validation records for a statement (DB.feats, DB.maxDepth), which the
// feature-keyed fault check reads. Each statement is validated on the
// first dialect that accepts it, over tables t and u, and its record
// must also equal the reference walk's (featureref_test.go).

import (
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlparse"
)

// scanDBs opens a fault-free instance of every dialect that accepts the
// tables the fixed inputs read.
func scanDBs(t *testing.T) []*DB {
	t.Helper()
	var dbs []*DB
	for _, name := range dialect.Names() {
		db := Open(dialect.MustGet(name), WithoutFaults())
		if db.Exec("CREATE TABLE t (a INTEGER NOT NULL, b BOOLEAN, PRIMARY KEY (a))") != nil ||
			db.Exec("CREATE TABLE u (c INTEGER, d TEXT)") != nil {
			continue
		}
		dbs = append(dbs, db)
	}
	if len(dbs) == 0 {
		t.Fatal("no dialect accepts the fixed tables")
	}
	return dbs
}

// scan validates sql on the first of dbs that accepts it and returns
// the recorded features and depth, checked against the reference walk.
func scan(t *testing.T, dbs []*DB, sql string) (feature.Set, int) {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	for _, db := range dbs {
		if db.validateStmt(st) != nil {
			continue
		}
		got, depth := db.feats, db.maxDepth
		want, wantDepth := ReferenceFeatures(st)
		if got != want || depth != wantDepth {
			t.Errorf("%s on %s: recorded %v, depth %d; reference walk %v, depth %d",
				sql, db.Dialect().Name, got.Names(), depth, want.Names(), wantDepth)
		}
		return got, depth
	}
	t.Fatalf("%s: no dialect validates it", sql)
	return feature.Set{}, 0
}

func TestScanFeatures(t *testing.T) {
	dbs := scanDBs(t)
	cases := map[string][]string{
		"CREATE TABLE t2 (a INTEGER NOT NULL, b BOOLEAN, PRIMARY KEY (a))": {
			"BOOLEAN", "CREATE TABLE", "INTEGER", "NOT NULL", "PRIMARY KEY"},
		"CREATE UNIQUE INDEX i ON t (a) WHERE a > 1": {
			">", "CREATE INDEX", "PARTIAL INDEX", "UNIQUE INDEX"},
		"SELECT DISTINCT a FROM t LEFT JOIN u ON TRUE WHERE NULLIF(a, 1) != 2 ORDER BY a LIMIT 1 OFFSET 2": {
			"!=", "BOOLEAN", "DISTINCT", "LEFT JOIN", "LIMIT",
			"NULLIF", "OFFSET", "ORDER BY", "SELECT", "WHERE"},
		"SELECT a FROM t UNION ALL SELECT c FROM u": {
			"SELECT", "UNION ALL"},
		"INSERT OR IGNORE INTO t (a) VALUES (1), (2)": {
			"INSERT", "INSERT OR IGNORE", "MULTI-ROW INSERT"},
		"SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 0": {
			">", "COUNT", "GROUP BY", "HAVING", "SELECT"},
		"REFRESH TABLE t": {"REFRESH TABLE"},
	}
	for sql, want := range cases {
		got, _ := scan(t, dbs, sql)
		for _, f := range want {
			if !got.Has(feature.MustLookup(f)) {
				t.Errorf("%s: missing feature %q in %v", sql, f, got.Names())
			}
		}
	}
}

func TestScanFeaturesNestedSubquery(t *testing.T) {
	got, _ := scan(t, scanDBs(t), "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.d GLOB '*')")
	for _, f := range []string{"EXISTS", "GLOB", "WHERE", "SELECT"} {
		if !got.Has(feature.MustLookup(f)) {
			t.Errorf("missing %q in %v", f, got.Names())
		}
	}
}

func TestExprDepth(t *testing.T) {
	dbs := scanDBs(t)
	cases := map[string]int{
		"1":                     1,
		"1 + 2":                 2,
		"(1 + 2) * 3":           3,
		"ABS((1 + 2) * 3)":      4,
		"NOT ((1 + 2) * 3 = 4)": 5,
	}
	for sql, want := range cases {
		e, err := sqlparse.ParseExpr(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := refExprDepth(e); got != want {
			t.Errorf("reference depth(%s) = %d, want %d", sql, got, want)
		}
		if _, got := scan(t, dbs, "SELECT "+sql); got != want {
			t.Errorf("recorded depth(%s) = %d, want %d", sql, got, want)
		}
	}
}

// TestScanDeterministic checks that the record is the statement's own:
// validating it again, after a different statement, records the same.
func TestScanDeterministic(t *testing.T) {
	dbs := scanDBs(t)
	const sql = "SELECT a + 1 FROM t WHERE a IN (1, 2)"
	a, da := scan(t, dbs, sql)
	scan(t, dbs, "SELECT DISTINCT a FROM t LEFT JOIN u ON TRUE WHERE NOT ((1 + 2) * 3 = 4) ORDER BY a")
	b, db := scan(t, dbs, sql)
	if a != b || da != db {
		t.Fatalf("record changed between validations: %v depth %d, then %v depth %d",
			a.Names(), da, b.Names(), db)
	}
}
