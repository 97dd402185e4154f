package engine_test

// Differential test for QueryScratch: on a generated statement stream,
// a result built in the statement scratch must read exactly like the
// heap result Query builds for the same statement in the same state.

import (
	"reflect"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// queryRun is everything one query exposes to its caller.
type queryRun struct {
	cols     []string
	rows     []string
	err      string
	panicked bool
	cost     int64
	faults   []string
}

// observe runs sql on db with query, recovering the engine's injected
// panics, and records what the caller sees before anything else runs on
// db. A crash fault's downed instance is restarted.
func observe(db *engine.DB, sql string, query func(string) (*engine.Result, error)) (r queryRun) {
	defer func() {
		if recover() != nil {
			r.panicked = true
		}
		r.cost, r.faults = db.LastCost(), db.TriggeredFaults()
		if db.Crashed() {
			db.Restart()
		}
	}()
	res, err := query(sql)
	if err != nil {
		r.err = err.Error()
	}
	if res != nil {
		r.cols = append([]string(nil), res.Columns...)
		r.rows = res.RenderRows()
	}
	return r
}

// TestScratchResultsMatchQuery runs the stream on every dialect, armed
// and clean, on two instances in lockstep: one reads every query with
// Query, the other with QueryScratch. Columns, rows, errors, LastCost
// and TriggeredFaults must agree on every statement.
func TestScratchResultsMatchQuery(t *testing.T) {
	for _, name := range dialect.Names() {
		t.Run(name, func(t *testing.T) {
			d := dialect.MustGet(name)
			t.Run("armed", func(t *testing.T) { checkScratchStream(t, d) })
			t.Run("clean", func(t *testing.T) { checkScratchStream(t, d, engine.WithoutFaults()) })
		})
	}
}

func checkScratchStream(t *testing.T, d *dialect.Dialect, opts ...engine.Option) {
	opts = append(opts, engine.WithRowBudget(4000))
	heap, scratch := engine.Open(d, opts...), engine.Open(d, opts...)
	queries := 0
	both := func(sql string) {
		want := observe(heap, sql, heap.Query)
		got := observe(scratch, sql, scratch.QueryScratch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nQueryScratch: %+v\nQuery:        %+v", sql, got, want)
		}
		if want.rows != nil {
			queries++
		}
	}

	g := gen.New(gen.Config{Seed: 5, StartDepth: 2, MaxDepth: 3, DepthInterval: 100,
		TypeCorrect: d.TypeSystem == dialect.Static})
	for i := 0; i < 60; i++ {
		st := g.GenSetup()
		want := observe(heap, st.SQL, func(sql string) (*engine.Result, error) { return nil, heap.Exec(sql) })
		got := observe(scratch, st.SQL, func(sql string) (*engine.Result, error) { return nil, scratch.Exec(sql) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nscratch instance: %+v\nheap instance:    %+v", st.SQL, got, want)
		}
		if want.err == "" && !want.panicked && st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	for i := 0; i < 120; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		both(oc.Base.SQL())
		sel := sqlast.CloneSelect(oc.Base)
		sel.Where = sqlast.CloneExpr(oc.Pred)
		both(sel.SQL())
		// The three TLP partitions in one compound, and NoREC's count.
		if d.Clauses.Has(feature.UnionAllID) {
			union := sqlast.CloneSelect(sel)
			for _, p := range []sqlast.Expr{&sqlast.Unary{Op: sqlast.UNot, X: oc.Pred}, &sqlast.IsNull{X: oc.Pred}} {
				arm := sqlast.CloneSelect(oc.Base)
				arm.Where = p
				union.Compound = append(union.Compound, sqlast.CompoundPart{Op: sqlast.SetUnionAll, Select: arm})
			}
			both(union.SQL())
		}
		cnt := sqlast.CloneSelect(sel)
		cnt.Items = []sqlast.SelectItem{{Expr: &sqlast.Func{Name: "COUNT", Star: true}}}
		both(cnt.SQL())
	}
	if queries < 100 {
		t.Fatalf("only %d queries returned rows: stream starved", queries)
	}
}
