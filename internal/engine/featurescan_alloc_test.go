package engine_test

import (
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// TestScanFeatureSetAllocatesNothing guards the fault check's scan: a
// generated statement's features go into a Set without one allocation.
func TestScanFeatureSetAllocatesNothing(t *testing.T) {
	g := gen.New(gen.Config{Seed: 1, Policy: gen.AllowAll{}})
	var stmts []sqlast.Stmt
	for i := 0; i < 40; i++ {
		st := g.GenSetup()
		if st.OnSuccess != nil {
			st.OnSuccess()
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
	for _, st := range stmts {
		var set feature.Set
		allocs := testing.AllocsPerRun(5, func() {
			set = feature.Set{}
			engine.ScanFeatureSet(st, &set)
		})
		if allocs != 0 {
			t.Fatalf("scanning allocates %.0f times:\n  %s", allocs, st.SQL())
		}
		if set.Empty() {
			t.Fatalf("scan found no feature in %s", st.SQL())
		}
	}
}
