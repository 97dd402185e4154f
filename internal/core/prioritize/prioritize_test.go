package prioritize

import (
	"testing"
	"testing/quick"
)

// TestPrioritizerFigure4 replays the paper's Figure 4 walk-through.
func TestPrioritizerFigure4(t *testing.T) {
	p := New()

	// ① {NULLIF, !=}: no stored set is a subset — new bug.
	if !p.Report([]string{"NULLIF", "!="}) {
		t.Fatal("① must be reported as new")
	}
	// ② {NULLIF, !=, +}: ① ⊆ ② — potential duplicate.
	if p.Report([]string{"NULLIF", "!=", "+"}) {
		t.Fatal("② must be a potential duplicate")
	}
	// ③ {NULLIF, !=, JOIN}: still a superset of ① — duplicate.
	if p.Report([]string{"NULLIF", "!=", "JOIN"}) {
		t.Fatal("③ must be a potential duplicate")
	}
	// ④ {CASE, !=}: no stored subset — new bug.
	if !p.Report([]string{"CASE", "!="}) {
		t.Fatal("④ must be reported as new")
	}
	if p.Size() != 2 {
		t.Fatalf("stored sets = %d, want 2", p.Size())
	}
}

func TestSubsetEdgeCases(t *testing.T) {
	p := New()
	p.Add([]string{"NULLIF", "!="})
	if !p.IsDuplicate([]string{"!=", "NULLIF"}) {
		t.Fatal("order must not matter")
	}
	if !p.IsDuplicate([]string{"NULLIF", "!=", "!="}) {
		t.Fatal("duplicated elements must not matter")
	}
	if p.IsDuplicate([]string{"NULLIF"}) {
		t.Fatal("a strict subset of a stored set is NOT a duplicate")
	}
	if p.IsDuplicate([]string{"NULLIF", "CASE"}) {
		t.Fatal("overlapping but non-superset is not a duplicate")
	}
	// The empty stored set subsumes everything.
	p2 := New()
	p2.Add(nil)
	if !p2.IsDuplicate([]string{"+"}) {
		t.Fatal("the empty set is a subset of everything")
	}
}

func TestPrioritizerProperties(t *testing.T) {
	// Report(x) then any superset of x is a duplicate.
	prop := func(base []string, extra []string) bool {
		if len(base) == 0 {
			return true
		}
		p := New()
		p.Add(base)
		return p.IsDuplicate(append(append([]string{}, base...), extra...))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Report is idempotent on the exact same set.
	idem := func(set []string) bool {
		if len(set) == 0 {
			return true
		}
		p := New()
		first := p.Report(set)
		second := p.Report(set)
		return first && !second
	}
	if err := quick.Check(idem, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSets(t *testing.T) {
	p := New()
	p.Add([]string{"NULLIF", "!="})
	sets := p.Sets()
	if len(sets) != 1 || len(sets[0]) != 2 || sets[0][0] != "!=" {
		t.Fatalf("Sets() = %v", sets)
	}
	// Mutating the copy must not affect the prioritizer.
	sets[0][0] = "CASE"
	if p.IsDuplicate([]string{"CASE", "NULLIF"}) {
		t.Fatal("Sets() must return copies")
	}
}
