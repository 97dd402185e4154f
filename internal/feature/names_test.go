package feature_test

import (
	"testing"

	"sqlancerpp/internal/baseline"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// roundTrip checks name → ID → name.
func roundTrip(t *testing.T, where, name string) {
	t.Helper()
	id, ok := feature.Lookup(name)
	if !ok {
		t.Errorf("%s: %q is not in the feature table", where, name)
		return
	}
	if got := feature.Name(id); got != name {
		t.Errorf("%s: %q → %d → %q", where, name, id, got)
	}
}

// TestEveryKnownNameRoundTrips: every feature name the program knows is
// in the table and maps back to itself.
func TestEveryKnownNameRoundTrips(t *testing.T) {
	lists := map[string][]string{
		"Statements": feature.Statements, "Joins": feature.Joins,
		"Clauses": feature.Clauses, "SetOps": feature.SetOps,
		"BinaryOperators": feature.BinaryOperators, "UnaryOperators": feature.UnaryOperators,
		"ExprForms": feature.ExprForms, "ComparisonOperators": feature.ComparisonOperators,
		"Functions": feature.Functions, "ExtraFunctions": feature.ExtraFunctions,
		"Aggregates": feature.Aggregates, "engine.FuncNames": engine.FuncNames(),
	}
	for where, l := range lists {
		for _, n := range l {
			roundTrip(t, where, n)
		}
	}
	for _, fn := range engine.FuncNames() {
		if def := engine.LookupFunc(fn); engine.FuncByID(def.Feature) != def || feature.Name(def.Feature) != fn {
			t.Errorf("engine function %s has feature %d", fn, def.Feature)
		}
	}
	for _, name := range dialect.Names() {
		d := dialect.MustGet(name)
		for _, m := range []*feature.Set{&d.Statements, &d.Clauses, &d.Operators, &d.Functions, &d.Types} {
			for _, n := range m.Names() {
				roundTrip(t, name+" matrix", n)
			}
		}
		for _, n := range baseline.ExtraFunctions(d) {
			roundTrip(t, name+" baseline extras", n)
		}
		for _, f := range faults.ForDialect(name) {
			if f.Param != "" {
				roundTrip(t, "fault "+f.ID, f.Param)
			}
		}
	}
	for n := 1; n <= feature.MaxIndexWidth; n++ {
		roundTrip(t, "IndexWidth", feature.IndexWidth(n))
		if got := feature.Name(feature.IndexWidthID(n)); got != feature.IndexWidth(n) {
			t.Errorf("IndexWidthID(%d) names %q", n, got)
		}
	}
}

// TestFuncArgCoversGeneratorCalls: every composite argument feature the
// generator can emit — each function it may call, at each argument
// position its arity allows, with each data type — is in the table,
// where FuncArgID finds it.
func TestFuncArgCoversGeneratorCalls(t *testing.T) {
	types := []string{feature.TypeBoolean, feature.TypeInteger, feature.TypeText}
	fns := append(append([]string{}, feature.Functions...), feature.ExtraFunctions...)
	for _, fn := range fns {
		def := engine.LookupFunc(fn)
		if def == nil {
			t.Errorf("generator function %s has no engine definition", fn)
			continue
		}
		maxPos := def.MaxArgs
		if maxPos < 0 { // variadic: the generator adds at most one argument
			maxPos = def.MinArgs + 1
		}
		if maxPos > feature.MaxFuncArgPos {
			t.Errorf("%s takes %d arguments, beyond MaxFuncArgPos", fn, maxPos)
		}
		for pos := 1; pos <= maxPos; pos++ {
			for _, typ := range types {
				name := feature.FuncArg(fn, pos, typ)
				roundTrip(t, "FuncArg", name)
				if got := feature.Name(feature.FuncArgID(def.Feature, pos, feature.MustLookup(typ))); got != name {
					t.Errorf("FuncArgID names %q, want %q", got, name)
				}
			}
		}
	}
}

// TestBinaryOperatorOrder: BinaryOperatorIDs is indexed by
// sqlast.BinaryOp, which the engine's scan and validation rely on.
func TestBinaryOperatorOrder(t *testing.T) {
	for op := sqlast.OpAdd; op <= sqlast.OpIsNotDistinct; op++ {
		if got := feature.Name(feature.BinaryOperatorIDs[op]); got != op.String() {
			t.Errorf("BinaryOperatorIDs[%d] names %q, want %q", op, got, op.String())
		}
	}
	if len(feature.BinaryOperatorIDs) != int(sqlast.OpIsNotDistinct)+1 {
		t.Errorf("BinaryOperatorIDs has %d entries", len(feature.BinaryOperatorIDs))
	}
}

// TestSetOf: a name outside the table is an error that names it.
func TestSetOf(t *testing.T) {
	s, err := feature.SetOf([]string{"NULLIF", "!="})
	if err != nil || s.Len() != 2 || !s.Has(feature.FnNULLIF) || !s.Has(feature.OpNeqID) {
		t.Fatalf("SetOf = %v, %v", s.Names(), err)
	}
	if got := s.Names(); got[0] != "!=" || got[1] != "NULLIF" {
		t.Errorf("Names() = %v, want name order", got)
	}
	if _, err := feature.SetOf([]string{"NULLIF", "NO SUCH FEATURE"}); err == nil ||
		err.Error() != `unknown feature "NO SUCH FEATURE"` {
		t.Errorf("SetOf(unknown) error = %v", err)
	}
}

// TestSetOps checks the bitset operations against their definitions.
func TestSetOps(t *testing.T) {
	var a, b feature.Set
	a.Add(0)
	a.Add(feature.NumIDs - 1)
	a.Add(64)
	b = a
	b.Add(130)
	if !a.SubsetOf(&b) || b.SubsetOf(&a) {
		t.Error("subset wrong")
	}
	var ids []feature.ID
	for id, ok := b.Next(0); ok; id, ok = b.Next(id + 1) {
		ids = append(ids, id)
	}
	if len(ids) != 4 || ids[0] != 0 || ids[1] != 64 || ids[2] != 130 || ids[3] != feature.NumIDs-1 {
		t.Errorf("Next walks %v", ids)
	}
	c := b
	c.Subtract(&a)
	if c.Len() != 1 || !c.Has(130) {
		t.Errorf("Subtract left %v", c.Names())
	}
	c.Intersect(&a)
	if !c.Empty() {
		t.Error("Intersect of disjoint sets is not empty")
	}
}
