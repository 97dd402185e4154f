package feedback

import (
	"testing"

	"sqlancerpp/internal/feature"
)

// TestTrackerHotPathAllocatesNothing guards the per-case calls: asking
// whether a feature is supported, and recording a feature set on a
// tracker that has seen it before, allocate nothing.
func TestTrackerHotPathAllocatesNothing(t *testing.T) {
	tr := New(WithUpdateInterval(10))
	var s feature.Set
	for _, id := range []feature.ID{feature.StmtSelectID, feature.OpEqID, feature.FnABS,
		feature.FuncArgID(feature.FnABS, 1, feature.TypeTextID), feature.ExprColumnID} {
		s.Add(id)
	}
	for i := 0; i < 50; i++ {
		tr.RecordQuerySet(&s, i%3 != 0)
	}
	if n := testing.AllocsPerRun(100, func() { tr.SupportedID(feature.OpEqID) }); n != 0 {
		t.Errorf("SupportedID allocates %.0f times", n)
	}
	ok := false
	if n := testing.AllocsPerRun(100, func() {
		ok = !ok
		tr.RecordQuerySet(&s, ok)
	}); n != 0 {
		t.Errorf("recording a set allocates %.0f times", n)
	}
}
