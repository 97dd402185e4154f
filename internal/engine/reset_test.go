package engine_test

// Differential test for Reset: an instance that ran a stream and was
// Reset must run any later stream exactly like a freshly opened one.

import (
	"reflect"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/sqlast"
)

// resetStates counts the end states the first streams left an instance
// in before its Reset, over every dialect and configuration.
type resetStates struct {
	crashed, stale, panicked, planSpec int
}

// TestResetMatchesOpen runs, on every dialect (and the synthetic panic
// profile), armed, clean and opened with a plan spec, a first stream on
// instance A that leaves it dirty: tables, views and indexes, a stale
// index where the dialect has StaleIndexAfterUpdate, a contained panic
// where it panics, a plan spec installed by SetPlanSpec, and a crashed
// server where a crash fault fires. A is then Reset, and a second stream
// runs on A and on a freshly opened B in lockstep: every statement must
// give identical columns, rows, errors, panics, LastCost and
// TriggeredFaults, and both instances the same TotalCost at the end.
func TestResetMatchesOpen(t *testing.T) {
	var seen resetStates
	panicdb := dialect.MustGet("sqlite").Clone()
	panicdb.Name = "panicdb"
	panicdb.Faults = faults.NewSet(faults.ForDialect("panicdb"))
	ds := []*dialect.Dialect{panicdb}
	for _, name := range dialect.Names() {
		ds = append(ds, dialect.MustGet(name))
	}
	for _, d := range ds {
		t.Run(d.Name, func(t *testing.T) {
			t.Run("armed", func(t *testing.T) { checkReset(t, d, &seen) })
			t.Run("clean", func(t *testing.T) { checkReset(t, d, &seen, engine.WithoutFaults()) })
			t.Run("planspec", func(t *testing.T) {
				checkReset(t, d, &seen, engine.WithPlanSpec(engine.PlanSpec{CoveringOff: true}))
			})
		})
	}
	t.Logf("first streams ended crashed %d, with a stale index %d, after a panic %d, with a plan spec %d times",
		seen.crashed, seen.stale, seen.panicked, seen.planSpec)
	if seen.crashed == 0 || seen.stale == 0 || seen.panicked == 0 || seen.planSpec == 0 {
		t.Fatalf("a first-stream end state was never reached (%+v): the test no longer covers it", seen)
	}
}

func checkReset(t *testing.T, d *dialect.Dialect, seen *resetStates, opts ...engine.Option) {
	opts = append(opts, engine.WithRowBudget(4000))
	a := engine.Open(d, opts...)
	static := d.TypeSystem == dialect.Static

	// The first stream: only A runs it, so nothing is compared.
	g := gen.New(gen.Config{Seed: 11, StartDepth: 2, MaxDepth: 4, DepthInterval: 50, TypeCorrect: static})
	panicked := false
	exec := func(sql string) {
		if r := observe(a, sql, a.QueryScratch); r.panicked {
			panicked = true
		}
	}
	for i := 0; i < 40; i++ {
		st := g.GenSetup()
		r := observe(a, st.SQL, a.QueryScratch)
		panicked = panicked || r.panicked
		if r.err == "" && !r.panicked && st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	for i := 0; i < 60; i++ {
		if oc := g.GenOracleCase(); oc != nil {
			sel := sqlast.CloneSelect(oc.Base)
			sel.Where = sqlast.CloneExpr(oc.Pred)
			exec(sel.SQL())
		}
	}
	// An index left stale by an UPDATE (StaleIndexAfterUpdate), then a
	// plan spec that outlives its statement.
	for _, sql := range []string{
		"CREATE TABLE rs0 (a INTEGER, b INTEGER)",
		"CREATE INDEX rs0i ON rs0 (a, b)",
		"INSERT INTO rs0 (a, b) VALUES (1, 2)",
		"INSERT INTO rs0 (a, b) VALUES (3, 4)",
		"UPDATE rs0 SET a = 5 WHERE b = 2",
	} {
		exec(sql)
	}
	a.SetPlanSpec(engine.PlanSpec{DisableIndexPaths: true, CoveringOff: true})
	// Last, the stream runs until the server goes down (if a crash fault
	// can fire) and leaves it down.
	for i := 0; i < 400 && !a.Crashed(); i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		sel := sqlast.CloneSelect(oc.Base)
		sel.Where = sqlast.CloneExpr(oc.Pred)
		func() {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			a.QueryScratch(sel.SQL())
		}()
	}
	if a.Crashed() {
		seen.crashed++
	}
	if a.StaleIndexes() > 0 {
		seen.stale++
	}
	if panicked {
		seen.panicked++
	}
	if !reflect.DeepEqual(a.PlanSpec(), engine.PlanSpec{}) {
		seen.planSpec++
	}

	a.Reset()
	b := engine.Open(d, opts...)
	if !reflect.DeepEqual(a.PlanSpec(), b.PlanSpec()) {
		t.Fatalf("after Reset the plan spec is %+v, Open gives %+v", a.PlanSpec(), b.PlanSpec())
	}
	g = gen.New(gen.Config{Seed: 5, StartDepth: 2, MaxDepth: 3, DepthInterval: 100, TypeCorrect: static})
	rows := 0
	both := func(sql string) (ok bool) {
		want := observe(b, sql, b.QueryScratch)
		got := observe(a, sql, a.QueryScratch)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nreset instance: %+v\nfresh instance: %+v", sql, got, want)
		}
		if want.rows != nil {
			rows++
		}
		return want.err == "" && !want.panicked
	}
	for i := 0; i < 40; i++ {
		st := g.GenSetup()
		if both(st.SQL) && st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	for i := 0; i < 80; i++ {
		if oc := g.GenOracleCase(); oc != nil {
			both(oc.Base.SQL())
			sel := sqlast.CloneSelect(oc.Base)
			sel.Where = sqlast.CloneExpr(oc.Pred)
			both(sel.SQL())
		}
	}
	if a.TotalCost() != b.TotalCost() {
		t.Fatalf("TotalCost: reset instance %d, fresh instance %d", a.TotalCost(), b.TotalCost())
	}
	if rows < 50 {
		t.Fatalf("only %d queries returned rows: stream starved", rows)
	}
}
