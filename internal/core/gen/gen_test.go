package gen

import (
	"strings"
	"testing"

	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// blockPolicy suppresses a fixed feature set.
type blockPolicy map[string]bool

func (p blockPolicy) SupportedID(f feature.ID) bool { return !p[feature.Name(f)] }

func TestDeterminism(t *testing.T) {
	run := func() []string {
		g := New(Config{Seed: 123})
		var out []string
		for i := 0; i < 30; i++ {
			st := g.GenSetup()
			if st.OnSuccess != nil {
				st.OnSuccess()
			}
			out = append(out, st.SQL)
		}
		for i := 0; i < 200; i++ {
			out = append(out, g.GenQuery().SQL)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestSuppressionStopsGeneration(t *testing.T) {
	policy := blockPolicy{
		"XOR": true, "<=>": true, feature.ExprGlob: true,
		"SIN": true, feature.JoinFull: true,
	}
	g := New(Config{Seed: 7, Policy: policy, StartDepth: 3, MaxDepth: 3})
	for i := 0; i < 20; i++ {
		st := g.GenSetup()
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	for i := 0; i < 3000; i++ {
		var sql string
		var features []string
		if i%2 == 0 {
			st := g.GenQuery()
			sql, features = st.SQL, st.Features
		} else {
			oc := g.GenOracleCase()
			if oc == nil {
				continue
			}
			sel := oc.Base
			sel.Where = oc.Pred
			sql, features = sel.SQL(), oc.Features
		}
		for f := range policy {
			for _, have := range features {
				if have == f {
					t.Fatalf("suppressed feature %q in feature set of %s", f, sql)
				}
			}
		}
		if strings.Contains(sql, "XOR") || strings.Contains(sql, "<=>") ||
			strings.Contains(sql, "GLOB") || strings.Contains(sql, " SIN(") ||
			strings.Contains(sql, "(SIN(") || strings.Contains(sql, "FULL JOIN") {
			t.Fatalf("suppressed feature appears in SQL: %s", sql)
		}
	}
}

func TestFeatureSetsRecorded(t *testing.T) {
	g := New(Config{Seed: 3})
	for i := 0; i < 20; i++ {
		st := g.GenSetup()
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
		if len(st.Features) == 0 {
			t.Fatalf("setup statement without features: %s", st.SQL)
		}
	}
	for i := 0; i < 100; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		if len(oc.Features) == 0 {
			t.Fatal("oracle case without features")
		}
		found := false
		for _, f := range oc.Features {
			if f == feature.StmtSelect {
				found = true
			}
		}
		if !found {
			t.Fatal("oracle case must record the SELECT feature")
		}
	}
}

func TestOracleCaseShape(t *testing.T) {
	g := New(Config{Seed: 5, StartDepth: 3, MaxDepth: 3})
	for i := 0; i < 25; i++ {
		st := g.GenSetup()
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	for i := 0; i < 500; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		// TLP needs a base without WHERE/DISTINCT/aggregates/ORDER/LIMIT.
		if oc.Base.Where != nil || oc.Base.Distinct || oc.Base.Limit != nil ||
			len(oc.Base.OrderBy) > 0 || len(oc.Base.GroupBy) > 0 {
			t.Fatalf("oracle base has forbidden clauses: %s", oc.Base.SQL())
		}
		for _, item := range oc.Base.Items {
			if item.Expr != nil {
				sqlast.WalkExpr(item.Expr, func(e sqlast.Expr) bool {
					if f, ok := e.(*sqlast.Func); ok &&
						(f.Name == "COUNT" || f.Name == "SUM" || f.Name == "AVG") {
						t.Fatalf("aggregate in oracle base: %s", oc.Base.SQL())
					}
					return true
				})
			}
		}
		if oc.Pred == nil {
			t.Fatal("oracle case without predicate")
		}
	}
}

func TestEmptyModelYieldsNoOracleCase(t *testing.T) {
	g := New(Config{Seed: 1})
	if oc := g.GenOracleCase(); oc != nil {
		t.Fatal("no relations yet — oracle case must be nil")
	}
	// Setup always offers CREATE TABLE on an empty model.
	st := g.GenSetup()
	if _, ok := st.Stmt.(*sqlast.CreateTable); !ok {
		t.Fatalf("first setup statement should create a table, got %T", st.Stmt)
	}
}

func TestDepthSchedule(t *testing.T) {
	g := New(Config{Seed: 2, StartDepth: 1, MaxDepth: 3, DepthInterval: 10})
	if d := g.depth(); d != 1 {
		t.Fatalf("initial depth %d, want 1", d)
	}
	g.generated = 10
	if d := g.depth(); d != 2 {
		t.Fatalf("depth after one interval %d, want 2", d)
	}
	g.generated = 1000
	if d := g.depth(); d != 3 {
		t.Fatalf("depth must cap at MaxDepth, got %d", d)
	}
}

func TestModelTracksOnSuccessOnly(t *testing.T) {
	g := New(Config{Seed: 4})
	st := g.GenSetup() // CREATE TABLE
	if len(g.Model().Tables()) != 0 {
		t.Fatal("model must not change before OnSuccess")
	}
	st.OnSuccess()
	if len(g.Model().Tables()) != 1 {
		t.Fatal("model must reflect the confirmed statement")
	}
	g.ResetModel()
	if len(g.Model().Tables()) != 0 {
		t.Fatal("ResetModel must clear state")
	}
}

func TestMaxTablesRespected(t *testing.T) {
	g := New(Config{Seed: 8, MaxTables: 2, MaxViews: 1})
	for i := 0; i < 300; i++ {
		st := g.GenSetup()
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	if n := len(g.Model().Tables()); n > 2 {
		t.Fatalf("MaxTables violated: %d tables", n)
	}
	if n := len(g.Model().Views()); n > 1 {
		t.Fatalf("MaxViews violated: %d views", n)
	}
}

func TestGenRefresh(t *testing.T) {
	g := New(Config{Seed: 9})
	st := g.GenRefresh("t0")
	if st.SQL != "REFRESH TABLE t0" {
		t.Fatalf("GenRefresh SQL = %q", st.SQL)
	}
	if len(st.Features) != 1 || st.Features[0] != feature.StmtRefresh {
		t.Fatalf("GenRefresh features = %v", st.Features)
	}
}

// TestCompositeIndexRespectsPolicy: with the COMPOSITE INDEX clause
// suppressed, every generated CREATE INDEX is single-column; with the
// width-3 feature suppressed, no index exceeds two columns — and with
// nothing suppressed, composite indexes actually appear (no starvation
// in either direction).
func TestCompositeIndexRespectsPolicy(t *testing.T) {
	widths := func(policy Policy, seed int64) map[int]int {
		g := New(Config{Seed: seed, Policy: policy, StartDepth: 2, MaxDepth: 3})
		out := map[int]int{}
		for i := 0; i < 600; i++ {
			st := g.GenSetup()
			if ci, ok := st.Stmt.(*sqlast.CreateIndex); ok {
				out[len(ci.Columns)]++
				st.OnSuccess()
			} else if st.OnSuccess != nil {
				st.OnSuccess()
			}
		}
		return out
	}

	all := widths(AllowAll{}, 5)
	if all[1] == 0 || all[2] == 0 {
		t.Fatalf("width mix starved: %v", all)
	}
	noComposite := widths(blockPolicy{feature.CompositeIndex: true}, 5)
	for w, n := range noComposite {
		if w > 1 && n > 0 {
			t.Fatalf("suppressed COMPOSITE INDEX still yields width %d (%v)", w, noComposite)
		}
	}
	noWide := widths(blockPolicy{feature.IndexWidth(3): true}, 5)
	if noWide[3] > 0 {
		t.Fatalf("suppressed CREATE INDEX#3 still yields width 3 (%v)", noWide)
	}
	if noWide[2] == 0 {
		t.Fatalf("width-2 indexes must survive the width-3 suppression (%v)", noWide)
	}
}

// TestSargablePredShape: the sargable predicate generator emits
// conjunctions of column-vs-constant comparisons over a modeled index's
// columns — the composite-span shape — and returns nil without indexes.
func TestSargablePredShape(t *testing.T) {
	g := New(Config{Seed: 11, StartDepth: 2, MaxDepth: 3})
	ct := &sqlast.CreateTable{Name: "t", Columns: []sqlast.ColumnDef{
		{Name: "a", Type: sqlast.TypeInt}, {Name: "b", Type: sqlast.TypeInt}}}
	g.Model().Apply(ct)
	sc := g.tableScope(g.Model().Tables()[0])

	if p := g.genSargablePred(sc, &feature.Set{}); p != nil {
		t.Fatalf("no indexes modeled, want nil, got %s", p.SQL())
	}
	g.Model().Apply(&sqlast.CreateIndex{Name: "i", Table: "t", Columns: []string{"a", "b"}})
	found := false
	for i := 0; i < 50; i++ {
		p := g.genSargablePred(sc, &feature.Set{})
		if p == nil {
			t.Fatal("indexed model must yield a sargable predicate")
		}
		conjs := 1
		for b, ok := p.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd; b, ok = b.L.(*sqlast.Binary) {
			conjs++
		}
		if conjs > 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("sargable predicates never span multiple conjuncts")
	}
}

// TestPlanSpaceCountersTrackProbeShapes: the plan-space counters must
// tally the probe-eligible shapes the generator emits — sargable heads
// (with composite widths) and probe-eligible join keys — since those are
// the shapes that give the PlanDiff enumerator a non-trivial plan space.
func TestPlanSpaceCountersTrackProbeShapes(t *testing.T) {
	g := New(Config{Seed: 9, StartDepth: 2, MaxDepth: 3})
	g.Model().Apply(&sqlast.CreateTable{Name: "t0", Columns: []sqlast.ColumnDef{
		{Name: "a", Type: sqlast.TypeInt}, {Name: "b", Type: sqlast.TypeInt}}})
	g.Model().Apply(&sqlast.CreateTable{Name: "t1", Columns: []sqlast.ColumnDef{
		{Name: "x", Type: sqlast.TypeInt}, {Name: "y", Type: sqlast.TypeInt}}})
	g.Model().Apply(&sqlast.CreateIndex{Name: "i", Table: "t0", Columns: []string{"a", "b"}})

	if g.PlanSpace() != (PlanSpaceCounters{}) {
		t.Fatalf("counters must start zero: %+v", g.PlanSpace())
	}
	for i := 0; i < 2000; i++ {
		g.GenOracleCase()
	}
	ps := g.PlanSpace()
	if ps.SargableHeads == 0 {
		t.Error("no sargable heads counted")
	}
	if ps.CompositeHeads == 0 || ps.CompositeHeads > ps.SargableHeads {
		t.Errorf("composite heads out of range: %+v", ps)
	}
	if ps.ProbeEligibleJoins == 0 {
		t.Error("no probe-eligible joins counted")
	}
	if ps.MultiKeyJoins == 0 || ps.MultiKeyJoins > ps.ProbeEligibleJoins {
		t.Errorf("multi-key joins out of range: %+v", ps)
	}
}

// TestPickFuncAllocatesNothing guards genFuncCall's candidate selection:
// filtering the pool through the policy reuses one buffer.
func TestPickFuncAllocatesNothing(t *testing.T) {
	g := New(Config{Seed: 1, Policy: blockPolicy{"ABS": true, "LENGTH": true}})
	g.pickFunc(tInt) // sizes the buffer
	for _, want := range []typ{tInt, tText} {
		if n := testing.AllocsPerRun(100, func() { g.pickFunc(want) }); n != 0 {
			t.Errorf("pickFunc(%v) allocates %.0f times", want, n)
		}
	}
	for i := 0; i < 200; i++ {
		if id, ok := g.pickFunc(tInt); !ok || id == feature.FnABS {
			t.Fatalf("pickFunc(tInt) = %s, %v: must skip suppressed ABS", feature.Name(id), ok)
		}
	}
}
