package faults

import (
	"testing"

	"sqlancerpp/internal/feature"
)

// CountByClass tallies a fault list by class.
func CountByClass(list []Fault) map[Class]int {
	m := map[Class]int{}
	for _, f := range list {
		m[f.Class]++
	}
	return m
}

func TestSetIndexing(t *testing.T) {
	s := NewSet([]Fault{
		{ID: "a", Kind: CmpNullTrue, Param: "="},
		{ID: "b", Kind: CmpNullEqTrue, Param: "<"},
		{ID: "c", Kind: CmpMixedText, Param: ">"},
		{ID: "d", Kind: FuncCmpNumeric, Param: "REPLACE"},
		{ID: "e", Kind: FuncWrongVal, Param: "ABS"},
		{ID: "f", Kind: NotElim, Param: "<="},
		{ID: "g", Kind: JoinOnToWhere, Param: "LEFT JOIN"},
		{ID: "h", Kind: NotInNullTrue},
		{ID: "i", Kind: BetweenExclusive},
		{ID: "j", Kind: LikeUnderscore},
		{ID: "k", Kind: CaseNullTrue},
		{ID: "l", Kind: DistinctFromNull},
		{ID: "m", Kind: PartialIndexScan},
		{ID: "n", Kind: CrashOnFeature, Param: "XOR"},
		{ID: "o", Kind: CrashOnDeepExpr},
		{ID: "p", Kind: InternalErrorOnFeature, Param: "HEX"},
		{ID: "q", Kind: PerfOnFeature, Param: "IN"},
		{ID: "r", Kind: StaleIndexAfterUpdate},
		{ID: "s", Kind: IndexRangeBoundary, Param: "<="},
		{ID: "t", Kind: UniqueIndexFalseConflict},
		{ID: "u", Kind: CompositeSpanBoundary},
		{ID: "v", Kind: CompositeProbePrefixSkip},
		{ID: "w", Kind: PrefixSpanTruncate},
		{ID: "y", Kind: CoveringIndexProjSwap},
	})
	if s.Len() != 24 {
		t.Fatalf("Len = %d", s.Len())
	}
	if f := s.CmpNullTrue("="); f == nil || f.ID != "a" {
		t.Error("CmpNullTrue lookup failed")
	}
	if s.CmpNullTrue("<") != nil {
		t.Error("CmpNullTrue must be keyed by operator")
	}
	if f := s.CmpNullEq("<"); f == nil || f.ID != "b" {
		t.Error("CmpNullEq lookup failed")
	}
	if f := s.CmpMixed(">"); f == nil || f.ID != "c" {
		t.Error("CmpMixed lookup failed")
	}
	if f := s.FuncCmp("REPLACE"); f == nil || f.ID != "d" {
		t.Error("FuncCmp lookup failed")
	}
	if f := s.FuncWrong("ABS"); f == nil || f.ID != "e" {
		t.Error("FuncWrong lookup failed")
	}
	if f := s.NotElim("<="); f == nil || f.ID != "f" {
		t.Error("NotElim lookup failed")
	}
	if f := s.JoinFlatten("LEFT JOIN"); f == nil || f.ID != "g" {
		t.Error("JoinFlatten lookup failed")
	}
	for name, f := range map[string]*Fault{
		"NotInNull":    s.NotInNull(),
		"Between":      s.Between(),
		"Like":         s.Like(),
		"CaseNull":     s.CaseNull(),
		"DistinctFrom": s.DistinctFrom(),
		"PartialIndex": s.PartialIndex(),
		"StaleIndex":   s.StaleIndex(),
		"UniqueFalse":  s.UniqueConflict(),
		"CompBound":    s.CompositeBoundary(),
		"CompPrefix":   s.CompositePrefixSkip(),
		"PrefixTrunc":  s.PrefixTruncate(),
		"CrashDeep":    s.CrashDeep(),
		"CoveringSwap": s.CoveringSwap(),
	} {
		if f == nil {
			t.Errorf("%s lookup failed", name)
		}
	}
	if f := s.CrashFeature(feature.OpXorID); f == nil || f.ID != "n" {
		t.Error("CrashFeature lookup failed")
	}
	if f := s.ErrFeature(feature.FnHEX); f == nil || f.ID != "p" {
		t.Error("ErrFeature lookup failed")
	}
	if f := s.PerfFeature(feature.ExprInID); f == nil || f.ID != "q" {
		t.Error("PerfFeature lookup failed")
	}
	if f := s.RangeBoundary("<="); f == nil || f.ID != "s" {
		t.Error("RangeBoundary lookup failed")
	}
	if s.RangeBoundary(">=") != nil {
		t.Error("RangeBoundary must be keyed by operator")
	}
}

func TestNilSetIsNoop(t *testing.T) {
	var s *Set
	if s.Len() != 0 || s.All() != nil {
		t.Error("nil set must be empty")
	}
	if s.CmpNullTrue("=") != nil || s.Between() != nil ||
		s.CrashFeature(feature.OpXorID) != nil || s.CrashDeep() != nil {
		t.Error("nil set lookups must return nil")
	}
}

func TestForDialectIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Dialects() {
		for _, f := range ForDialect(name) {
			if seen[f.ID] {
				t.Fatalf("duplicate fault ID %q", f.ID)
			}
			seen[f.ID] = true
			if f.Dialect != name {
				t.Fatalf("fault %s has wrong dialect %q", f.ID, f.Dialect)
			}
		}
	}
	if ForDialect("unknown-system") != nil {
		t.Error("unknown dialects must have no faults")
	}
}

func TestCountByClass(t *testing.T) {
	counts := CountByClass(ForDialect("umbra"))
	if counts[Logic] != 20 {
		t.Errorf("umbra logic faults = %d, want 20", counts[Logic])
	}
	if counts[Crash]+counts[Error]+counts[Perf] != 8 {
		t.Errorf("umbra other faults = %d, want 8",
			counts[Crash]+counts[Error]+counts[Perf])
	}
	if ClassName := Logic.String(); ClassName != "logic" {
		t.Errorf("class label = %q", ClassName)
	}
}

// TestSQLiteFaultsMatchPaperCaseStudies: the SQLite catalogue models the
// paper's two listings.
func TestSQLiteFaultsMatchPaperCaseStudies(t *testing.T) {
	s := NewSet(ForDialect("sqlite"))
	if s.FuncCmp("REPLACE") == nil {
		t.Error("sqlite must carry the REPLACE fault (paper Listing 2)")
	}
	if s.JoinFlatten("RIGHT JOIN") == nil {
		t.Error("sqlite must carry the flattener fault (paper Listing 3)")
	}
}

// TestPanicProfileKinds pins the synthetic panicdb containment profile:
// its catalogue must carry exactly the two process-panic mechanisms
// (PanicOnCompositeRebuild and PanicOnProbeStep) that the campaign's
// recovery-boundary acceptance tests rely on, resolvable through the
// Set accessors the engine uses to arm them.
func TestPanicProfileKinds(t *testing.T) {
	s := NewSet(ForDialect("panicdb"))
	if s.Len() != 2 {
		t.Fatalf("panicdb carries %d faults, want 2", s.Len())
	}
	rebuild := s.PanicRebuild()
	if rebuild == nil || rebuild.Kind != PanicOnCompositeRebuild {
		t.Errorf("PanicRebuild() = %+v, want kind PanicOnCompositeRebuild", rebuild)
	}
	probe := s.PanicProbe()
	if probe == nil || probe.Kind != PanicOnProbeStep {
		t.Errorf("PanicProbe() = %+v, want kind PanicOnProbeStep", probe)
	}
	for _, f := range s.All() {
		if f.Class != Crash {
			t.Errorf("panicdb fault %s has class %v, want Crash", f.ID, f.Class)
		}
	}
}
