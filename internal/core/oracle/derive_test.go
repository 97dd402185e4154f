package oracle

import (
	"testing"

	"sqlancerpp/internal/sqlast"
)

// withSpare returns s resliced to its length inside a backing array with
// extra zero-valued capacity, so an append that forgets to reallocate
// writes where spareClean can see it.
func withSpare[T any](s []T) []T {
	out := make([]T, len(s), len(s)+4)
	copy(out, s)
	return out
}

// spareClean reports whether the capacity beyond len(s) still holds only
// zero values.
func spareClean[T comparable](s []T) bool {
	var zero T
	for _, v := range s[len(s):cap(s)] {
		if v != zero {
			return false
		}
	}
	return true
}

// TestOraclesLeaveBaseUntouched pins the derive contract: oracle queries
// are shallow copies of the case's base query that share its sub-trees,
// so no oracle may change Base or Pred, not even through the spare
// capacity of Base's slices. TLPComposed appends its UNION ALL arms to a
// copy of Base.Compound; without clipping that append would land in
// Base's backing array.
func TestOraclesLeaveBaseUntouched(t *testing.T) {
	db := cleanDB(t)
	if err := db.Exec("CREATE INDEX i0 ON t (a)"); err != nil {
		t.Fatal(err)
	}
	// Several bases are invalid under some oracles (a compound base under
	// the projection-replacing ones, ORDER BY inside TLPComposed's arms);
	// only the compound base must reach TLPComposed's append.
	for _, c := range []struct {
		base, pred string
		composes   bool
	}{
		{"SELECT a, s FROM t UNION ALL SELECT a, s FROM t", "a = 1", true},
		{"SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a", "a > 0", false},
		{"SELECT t.a FROM t JOIN t AS u ON t.a = u.a ORDER BY t.a", "t.a IN (1, 2)", false},
		{"SELECT * FROM t", "s IS NULL", true},
	} {
		for _, name := range DefaultNames() {
			orc, _ := Get(name)
			base := parseSelect(t, c.base)
			base.Items = withSpare(base.Items)
			base.From = withSpare(base.From)
			base.GroupBy = withSpare(base.GroupBy)
			base.Compound = withSpare(base.Compound)
			base.OrderBy = withSpare(base.OrderBy)
			pred := parseExpr(t, c.pred)
			wantBase, wantPred := sqlast.CloneSelect(base), sqlast.CloneExpr(pred)

			cs := &Case{Base: base, Pred: pred}
			if !orc.Applicable(db, cs) {
				t.Fatalf("%s: not applicable to the fixture", name)
			}
			if res := orc.Check(db, cs); c.composes && name == TLPComposedName && res.Outcome == Invalid {
				t.Fatalf("%s on %q: invalid: %v", name, c.base, res.Err)
			}
			if base.SQL() != wantBase.SQL() {
				t.Errorf("%s changed Base:\n  got  %s\n  want %s", name, base.SQL(), wantBase.SQL())
			}
			if pred.SQL() != wantPred.SQL() {
				t.Errorf("%s changed Pred: got %s, want %s", name, pred.SQL(), wantPred.SQL())
			}
			if !spareClean(base.Items) || !spareClean(base.From) || !spareClean(base.GroupBy) ||
				!spareClean(base.Compound) || !spareClean(base.OrderBy) {
				t.Errorf("%s on %q wrote into the spare capacity of Base's slices", name, c.base)
			}
		}
	}
}
