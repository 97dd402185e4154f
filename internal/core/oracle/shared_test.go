package oracle

import (
	"fmt"
	"reflect"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// sharedQueries builds the queries the oracles seed for one case, with
// the oracles' own sharing: derive shares the base's slices and
// sub-trees between them, the three TLP partitions share the predicate,
// and the UNION ALL composition puts that one predicate node into all
// three arms of one statement.
func sharedQueries(base *sqlast.Select, pred sqlast.Expr) []*sqlast.Select {
	qs := []*sqlast.Select{base}
	parts := tlpPartitions(pred)
	for _, p := range parts {
		q := derive(base)
		q.Where = p
		qs = append(qs, q)
	}
	first := derive(base)
	first.Where = parts[0]
	for _, p := range parts[1:] {
		arm := derive(base)
		arm.Where = p
		first.Compound = append(first.Compound, sqlast.CompoundPart{Op: sqlast.SetUnionAll, Select: arm})
	}
	opt := derive(base)
	opt.Items = []sqlast.SelectItem{{Expr: &sqlast.Func{Name: "COUNT", Star: true}}}
	opt.Where = pred
	ref := derive(base)
	ref.Items = []sqlast.SelectItem{{Expr: &sqlast.IsBool{X: pred, Val: true}}}
	return append(qs, first, opt, ref)
}

// execution is what one statement leaves observable.
type execution struct {
	rows      []string
	cost      int64
	triggered []string
	err       string
}

func execute(db *engine.DB, sql string) execution {
	res, err := db.Query(sql)
	ex := execution{cost: db.LastCost(), triggered: db.TriggeredFaults()}
	if err != nil {
		ex.err = err.Error()
		return ex
	}
	for i := range res.Rows {
		ex.rows = append(ex.rows, string(res.AppendRow(nil, i)))
	}
	return ex
}

// TestSharedNodesRunLikeParsedTrees: a seeded tree shares nodes where a
// parsed one gives every node its own address, and the engine keys
// per-statement state by node identity (the ON conjuncts a JoinPerm plan
// moved, exec_select.go and planenum.go). On two identical instances of
// every dialect, faults armed, one running the oracles' shared trees
// from its statement cache and one parsing every text afresh (no
// cache), each query must give the same rows, LastCost, triggered
// faults and error under the auto plan and every enumerated plan, and
// every oracle the same Result.
func TestSharedNodesRunLikeParsedTrees(t *testing.T) {
	runs, perms, fired := 0, 0, 0
	for _, name := range dialect.Names() {
		d := dialect.MustGet(name)
		shared := engine.Open(d, engine.WithParseCache(sqlparse.NewCache(256)))
		parsed := engine.Open(d, engine.WithParseCache(nil))
		g := gen.New(gen.Config{Seed: 5, StartDepth: 3, MaxDepth: 3})
		for i := 0; i < 40; i++ {
			st := g.GenSetup()
			err, perr := shared.Exec(st.SQL), parsed.Exec(st.SQL)
			if fmt.Sprint(err) != fmt.Sprint(perr) {
				t.Fatalf("%s: setup %q: %v vs %v", name, st.SQL, err, perr)
			}
			if err == nil && st.OnSuccess != nil {
				st.OnSuccess()
			}
		}
		for i := 0; i < 60; i++ {
			oc := g.GenOracleCase()
			if oc == nil {
				continue
			}
			for _, q := range sharedQueries(oc.Base, oc.Pred) {
				sql := q.SQL()
				shared.SeedParse(sql, q)
				specs := append([]engine.PlanSpec{{}}, engine.EnumeratePlans(shared, q)...)
				for _, spec := range specs {
					shared.SetPlanSpec(spec)
					parsed.SetPlanSpec(spec)
					a, b := execute(shared, sql), execute(parsed, sql)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s: %q under plan [%s]:\n  shared tree %+v\n  parsed tree %+v", name, sql, spec.String(), a, b)
					}
					runs++
					if len(spec.JoinPerm) > 0 {
						perms++
					}
					if len(a.triggered) > 0 {
						fired++
					}
				}
			}
			shared.SetPlanSpec(engine.PlanSpec{})
			parsed.SetPlanSpec(engine.PlanSpec{})
			for _, on := range DefaultNames() {
				orc, _ := Get(on)
				c := &Case{Base: oc.Base, Pred: oc.Pred, Seq: i}
				if a, b := orc.Check(shared, c), orc.Check(parsed, c); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: %s on %q: shared trees give %+v, parsed %+v", name, on, oc.Base.SQL(), a, b)
				}
			}
		}
	}
	t.Logf("%d executions compared, %d under a join permutation, %d firing a fault", runs, perms, fired)
	if perms == 0 || fired == 0 {
		t.Fatal("no join permutation ran or no fault fired: the comparison saw too little")
	}
}
