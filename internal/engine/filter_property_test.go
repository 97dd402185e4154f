package engine_test

// Differential property test for the WHERE filter (filter.go): on every
// candidate row of a generated statement stream — DDL, DML and oracle
// queries, with each dialect's full fault catalogue armed — the filter
// and the scalar reference evaluator evalFilterConjs must agree on the
// verdict, the cost charged, the coverage keys hit, the error and the
// triggered faults. The filter's resolved comparisons skip per-row name
// resolution; this test is what keeps them observably equal to the
// scalar path, and so keeps campaign reports unchanged by them.

import (
	"fmt"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/schema"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
)

// cmpOps are the operators a comparison resolves for.
var cmpOps = []sqlast.BinaryOp{sqlast.OpEq, sqlast.OpNeq, sqlast.OpNeq2,
	sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}

// fillLit is row i's value for column c: small repeating values, so
// comparisons against them go both ways, and a NULL every fifth row
// where the column allows one.
func fillLit(c schema.Column, i int) *sqlast.Literal {
	if i%5 == 4 && !c.NotNull && !c.PrimaryKey {
		return sqlast.Null()
	}
	n := int64(i%12 - 3)
	if c.Unique || c.PrimaryKey {
		n = int64(i - 3)
	}
	switch c.Type {
	case sqlast.TypeText:
		return sqlast.TextLit(fmt.Sprint(n))
	case sqlast.TypeBool:
		return sqlast.BoolLit(n%2 == 0)
	default:
		return sqlast.IntLit(n)
	}
}

// colCmp is the i-th comparison of a column of rel (qualified by alias)
// with a literal that the filter resolves: column op literal, or
// literal op column.
func colCmp(rel *schema.Relation, alias string, i int) *sqlast.Binary {
	c := rel.Columns[i%len(rel.Columns)]
	col := &sqlast.ColumnRef{Table: alias, Column: c.Name}
	lit := fillLit(c, i/3)
	op := cmpOps[i%len(cmpOps)]
	if i%2 == 0 {
		return &sqlast.Binary{Op: op, L: col, R: lit}
	}
	return &sqlast.Binary{Op: op, L: lit, R: col}
}

func and(l, r sqlast.Expr) sqlast.Expr { return &sqlast.Binary{Op: sqlast.OpAnd, L: l, R: r} }

// run executes one statement, recovering the engine's injected panics,
// and reports whether a crash fault downed the instance.
func run(db *engine.DB, sql string) (ok, crashed bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
		crashed = db.Crashed()
	}()
	return db.Exec(sql) == nil, false
}

// TestBatchExecutionMatchesRowAtATime runs the stream on every dialect
// twice: with its fault catalogue armed, where comparison roots charge
// as evalFaultyComparison does, and with faults off, where they charge
// as evalBinary does.
func TestBatchExecutionMatchesRowAtATime(t *testing.T) {
	for _, name := range dialect.Names() {
		t.Run(name, func(t *testing.T) {
			d := dialect.MustGet(name)
			t.Run("armed", func(t *testing.T) { checkFilterStream(t, d) })
			t.Run("clean", func(t *testing.T) { checkFilterStream(t, d, engine.WithoutFaults()) })
		})
	}
}

// checkFilterStream replays the generated stream on one instance of d
// opened with opts, comparing the filter with the scalar reference on
// every candidate row.
func checkFilterStream(t *testing.T, d *dialect.Dialect, opts ...engine.Option) {
	// The row budget keeps join-heavy statements from dominating the
	// run: a statement that exceeds it still compares every row it
	// reached.
	db := engine.Open(d, append(opts, engine.WithRowBudget(4000))...)
	var current string
	check := engine.CheckFilter(db, func(msg string) {
		t.Fatalf("%s\nstatement: %s", msg, current)
	})
	exec := func(sql string) bool {
		current = sql
		ok, crashed := run(db, sql)
		// A crash fault downs the instance; restart it so the stream
		// keeps making progress.
		if crashed {
			db.Restart()
		}
		return ok
	}

	// Type-correct generation keeps a static dialect's queries valid;
	// dynamic dialects keep the mixed-type comparisons their faults key
	// on.
	g := gen.New(gen.Config{Seed: 11, StartDepth: 2, MaxDepth: 3, DepthInterval: 200,
		TypeCorrect: d.TypeSystem == dialect.Static})
	for i := 0; i < 60; i++ {
		st := g.GenSetup()
		if exec(st.SQL) && st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	// The generated setup leaves few rows behind; fill every table with
	// typed rows. Single-column and composite indexes give the planner
	// spans to choose and covering projections to serve.
	tables := map[string]*schema.Relation{}
	for ti, tbl := range g.Model().Tables() {
		tables[tbl.Name] = tbl
		for i := 0; i < 16; i++ {
			ins := &sqlast.Insert{Table: tbl.Name, Rows: [][]sqlast.Expr{{}}}
			for _, c := range tbl.Columns {
				ins.Columns = append(ins.Columns, c.Name)
				ins.Rows[0] = append(ins.Rows[0], fillLit(c, i))
			}
			exec(ins.SQL())
		}
		if d.RequiresRefresh {
			exec("REFRESH TABLE " + tbl.Name)
		}
		c0 := tbl.Columns[0].Name
		exec(fmt.Sprintf("CREATE INDEX bx%d ON %s (%s)", ti, tbl.Name, c0))
		if len(tbl.Columns) > 1 {
			exec(fmt.Sprintf("CREATE INDEX bc%d ON %s (%s, %s)",
				ti, tbl.Name, c0, tbl.Columns[1].Name))
		}
	}

	for i := 0; i < 150; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		sel := sqlast.CloneSelect(oc.Base)
		sel.Where = sqlast.CloneExpr(oc.Pred)
		exec(sel.SQL())
		// The same query with a resolvable comparison on its first table,
		// before or after the generated predicate, so resolved and scalar
		// conjuncts share one filter.
		if len(sel.From) > 0 {
			if tn, ok := sel.From[0].Ref.(*sqlast.TableName); ok && tables[tn.Name] != nil {
				cmp := colCmp(tables[tn.Name], tn.RefName(), i)
				if i%2 == 0 {
					sel.Where = and(cmp, sel.Where)
				} else {
					sel.Where = and(sel.Where, cmp)
				}
				exec(sel.SQL())
			}
		}
		// Interleave UPDATE and DELETE collection. The DELETE predicate is
		// never TRUE, so the tables keep their rows.
		if i%10 == 0 {
			for _, tbl := range g.Model().Tables() {
				c0 := tbl.Columns[0].Name
				exec(fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s", tbl.Name, c0, c0,
					and(colCmp(tbl, "", i), colCmp(tbl, tbl.Name, i+1)).SQL()))
				eq := colCmp(tbl, "", 0)
				ne := *eq
				ne.Op = sqlast.OpNeq
				exec(fmt.Sprintf("DELETE FROM %s WHERE %s", tbl.Name, and(eq, &ne).SQL()))
			}
		}
	}
	if check.Rows < 500 || check.Resolved < 100 {
		t.Fatalf("compared %d candidate rows, %d with a resolved comparison: stream starved",
			check.Rows, check.Resolved)
	}
	t.Logf("compared %d candidate rows, %d with a resolved comparison", check.Rows, check.Resolved)
}
