// Package faults defines the injected-bug catalogue that stands in for
// the real, unknown bugs the paper found in 18 production DBMSs.
//
// Each fault is a small, realistic defect wired into the engine's
// *optimized* evaluation path (top-level filter predicates, optimizer
// rewrites, index scans) — the same places where real logic bugs hide and
// the reason the TLP and NoREC oracles can detect them. Crash and
// internal-error faults model the paper's "other bugs" category.
//
// Every logic mechanism flips a filter-root predicate between TRUE and
// not-TRUE (or perturbs a value feeding such a predicate): a defect that
// merely turns NULL into FALSE at a WHERE root is semantically invisible,
// because WHERE drops non-TRUE rows either way.
//
// Fault IDs are ground truth: the engine records which faults a query
// triggered, and the evaluation harness uses the IDs to count *unique*
// bugs (the paper used fix commits for this). The tester itself — the
// generator, oracles, and prioritizer — never sees fault IDs.
package faults

import (
	"fmt"

	"sqlancerpp/internal/feature"
)

// Class categorizes a fault by user-visible symptom, mirroring the
// paper's bug classes in Table 2 and §6.
type Class int

// Fault classes.
const (
	Logic Class = iota // silent wrong result (detected by TLP/NoREC)
	Crash              // simulated server crash
	Error              // unexpected internal error
	Perf               // performance cliff
)

// String returns a short class label.
func (c Class) String() string {
	switch c {
	case Logic:
		return "logic"
	case Crash:
		return "crash"
	case Error:
		return "error"
	case Perf:
		return "perf"
	default:
		return "?"
	}
}

// Kind is the defect mechanism, interpreted by the engine.
type Kind int

// Fault mechanisms. "Filter root" means a top-level conjunct of a WHERE
// clause in the optimized path — the position where real DBMSs apply
// special-case rewrites and index selection, and therefore where a defect
// makes the optimized result diverge from the reference semantics.
const (
	// CmpNullTrue: a filter-root comparison with operator Param whose
	// result is NULL is treated as TRUE (row kept).
	CmpNullTrue Kind = iota
	// CmpNullEqTrue: a filter-root comparison with operator Param whose
	// operands are both NULL yields TRUE ("NULL equals NULL" defect).
	CmpNullEqTrue
	// CmpMixedText: a filter-root comparison with operator Param between a
	// numeric and a TEXT operand compares textually instead of using
	// storage-class order (dynamic-typing dialects only).
	CmpMixedText
	// FuncCmpNumeric: a filter-root comparison against the result of
	// function Param compares numerically even for TEXT operands — the
	// shape of the SQLite REPLACE bug (paper Listing 2).
	FuncCmpNumeric
	// FuncWrongVal: function Param, when it appears under a filter-root
	// comparison, returns a perturbed value for non-NULL inputs (an
	// index-constant-folding defect).
	FuncWrongVal
	// JoinOnToWhere: when a WHERE clause is present, the flattener
	// degrades outer join Param ("LEFT JOIN"/"RIGHT JOIN"/"FULL JOIN") to
	// an inner join, losing NULL-extended rows — the shape of the SQLite
	// subquery bug (paper Listing 3).
	JoinOnToWhere
	// NotElim: the rewrite NOT (a Param b) at a filter root uses a wrong
	// complement operator (e.g. NOT (a < b) => (a > b), losing equality).
	NotElim
	// NotInNullTrue: a filter-root NOT IN whose list contains NULL yields
	// TRUE instead of NULL when no listed element matches.
	NotInNullTrue
	// BetweenExclusive: a filter-root BETWEEN treats its bounds as
	// exclusive.
	BetweenExclusive
	// LikeUnderscore: a filter-root LIKE fails to match the '_' wildcard.
	LikeUnderscore
	// CaseNullTrue: a filter-root CASE treats a NULL WHEN condition as
	// TRUE (takes the wrong branch).
	CaseNullTrue
	// DistinctFromNull: a filter-root IS DISTINCT FROM treats two NULLs
	// as distinct (returns TRUE instead of FALSE).
	DistinctFromNull
	// PartialIndexScan: an equality filter on the leading column of a
	// *partial* index uses the index without re-checking rows outside the
	// index predicate, silently dropping them.
	PartialIndexScan
	// StaleIndexAfterUpdate: UPDATE skips secondary-index maintenance, so
	// later index probes return the pre-update rows (or miss the updated
	// ones) — the classic stale-entry corruption.
	StaleIndexAfterUpdate
	// IndexRangeBoundary: an index range scan with the inclusive operator
	// Param ("<=" or ">=") excludes the boundary keys, losing the rows
	// equal to the bound (an off-by-one in the span computation).
	IndexRangeBoundary
	// UniqueIndexFalseConflict: the uniqueness check of a multi-column
	// unique index compares only the leading key column, raising spurious
	// duplicate-key errors for rows that differ in a later column.
	UniqueIndexFalseConflict
	// CompositeSpanBoundary: the trailing strict range (< or >) of a
	// composite index span — an equality prefix plus a range on the next
	// key column — is computed with an off-by-one fencepost, dropping the
	// boundary-adjacent entry (the last entry for <, the first for >).
	// Disjoint from IndexRangeBoundary, which perturbs the inclusive
	// operators.
	CompositeSpanBoundary
	// CompositeProbePrefixSkip: a composite probe matches on its equality
	// prefix but treats the trailing range conjunct as already applied —
	// the whole prefix span comes back and the executor skips re-checking
	// the conjunct, so prefix-matching rows that fail the range appear in
	// the result (an extra-row defect, observable to TLP and PlanDiff).
	CompositeProbePrefixSkip
	// PrefixSpanTruncate: a composite index probed through an equality
	// prefix strictly shorter than its key — a whole-prefix span with no
	// trailing range — computes its upper fencepost one entry short,
	// dropping the span's last row. The cost-based planner reaches such a
	// span only when the query constrains a leading subset of the key;
	// plan forcing (composite-vs-leading PrefixWidth caps) reaches it for
	// fully constrained queries too, where the auto plan and the full
	// scan agree — the defect class the legacy index-on/off plan pair
	// cannot distinguish and the enumerated PlanDiff plan space can.
	PrefixSpanTruncate
	// JoinIndexResidual: the index-nested-loop join executor treats the
	// equality probe conjunct as covering the entire ON condition,
	// skipping the residual ON conjuncts for probed rows — extra join
	// rows appear whenever a residual conjunct would have rejected a
	// probed pair. Because the join plan is a function of FROM/ON alone,
	// every query of a TLP or NoREC case sees the same extra rows; the
	// defect is observable only to a plan-diffing oracle.
	JoinIndexResidual
	// UnionAllDedup: UNION ALL incorrectly removes duplicate rows, as if
	// it were UNION (a classic set-operation defect).
	UnionAllDedup
	// CrashOnFeature: any executed statement containing feature Param (an
	// operator spelling, function name, join keyword, or statement
	// keyword) crashes the server.
	CrashOnFeature
	// CrashOnDeepExpr: expressions nested deeper than 6 crash the server.
	CrashOnDeepExpr
	// InternalErrorOnFeature: feature Param triggers an internal error
	// ("unexpected error" bug class).
	InternalErrorOnFeature
	// PerfOnFeature: feature Param makes the executor fall off a
	// performance cliff (cost multiplied; detected by the campaign's cost
	// watchdog).
	PerfOnFeature
	// PanicOnCompositeRebuild: building or rebuilding a multi-column
	// index through CREATE INDEX or REINDEX panics the *process* — a Go
	// runtime panic, not a simulated ErrCrash — modeling the
	// memory-safety class of bug that kills the harness itself and that
	// only the campaign's recovery boundaries can survive. The engine
	// triggers the fault (ground truth) immediately before panicking, at
	// a point where no catalog state has mutated, so a Restart()ed
	// instance stays consistent.
	PanicOnCompositeRebuild
	// PanicOnProbeStep: the index-nested-loop join probe step panics the
	// process (read-only SELECT path, so recovered state is consistent).
	// Triggered before the panic, like PanicOnCompositeRebuild.
	PanicOnProbeStep
	// CoveringIndexProjSwap: a covering-index projection — one served
	// straight from the ordered index entries without touching heap
	// rows — reads its first two key columns through a transposed
	// column map, serving leads[1] where leads[0] was asked and vice
	// versa (an index-content/layout corruption only the covering path
	// can express). Queries on single-column indexes, non-covering
	// plans, and rows whose two lead columns happen to hold equal
	// values are unaffected.
	CoveringIndexProjSwap
	// JoinPermConjDrop: the join reorderer drops an ON conjunct that a
	// join-order permutation re-attached at a later step than it
	// originally joined under — the step evaluates only the conjuncts
	// that stayed put, so candidate pairs the relocated conjunct would
	// have rejected leak into the result. The auto plan and the plain
	// two-relation swap relocate nothing, so the defect is observable
	// only when a plan-diffing oracle forces a deeper permutation of a
	// 3+-relation inner-join chain.
	JoinPermConjDrop
)

// Fault is one injected defect.
type Fault struct {
	ID          string // unique, e.g. "sqlite-1"
	Dialect     string // dialect the fault is injected into
	Class       Class
	Kind        Kind
	Param       string // operator spelling / function name / join or feature keyword
	Description string
}

// Set is the runtime view of a dialect's faults, indexed for the engine's
// hot paths. A nil *Set disables injection entirely.
type Set struct {
	all []Fault

	cmpNullTrue  map[string]*Fault // by comparison operator spelling
	cmpNullEq    map[string]*Fault
	cmpMixed     map[string]*Fault
	funcCmp      map[string]*Fault // by function name
	funcWrong    map[string]*Fault
	notElim      map[string]*Fault // by inner comparison operator
	joinFlatten  map[string]*Fault // by join keyword
	notInNull    *Fault
	between      *Fault
	like         *Fault
	caseNull     *Fault
	distinctFrom *Fault
	partialIndex *Fault
	staleIndex   *Fault
	rangeBound   map[string]*Fault // by inclusive comparison operator
	uniqueFalse  *Fault
	compBound    *Fault
	compPrefix   *Fault
	prefixTrunc  *Fault
	joinResidual *Fault
	unionDedup   *Fault
	crashFeature map[feature.ID]*Fault
	crashDeep    *Fault
	errFeature   map[feature.ID]*Fault
	perfFeature  map[feature.ID]*Fault
	// triggers holds the features the three maps above are keyed by: a
	// statement whose features miss it fires no feature-keyed fault.
	triggers     feature.Set
	panicRebuild *Fault
	panicProbe   *Fault
	coverSwap    *Fault
	permDrop     *Fault
}

// NewSet indexes a fault list.
func NewSet(list []Fault) *Set {
	s := &Set{
		all:          append([]Fault(nil), list...),
		cmpNullTrue:  map[string]*Fault{},
		cmpNullEq:    map[string]*Fault{},
		cmpMixed:     map[string]*Fault{},
		funcCmp:      map[string]*Fault{},
		funcWrong:    map[string]*Fault{},
		notElim:      map[string]*Fault{},
		joinFlatten:  map[string]*Fault{},
		rangeBound:   map[string]*Fault{},
		crashFeature: map[feature.ID]*Fault{},
		errFeature:   map[feature.ID]*Fault{},
		perfFeature:  map[feature.ID]*Fault{},
	}
	for i := range s.all {
		f := &s.all[i]
		switch f.Kind {
		case CmpNullTrue:
			s.cmpNullTrue[f.Param] = f
		case CmpNullEqTrue:
			s.cmpNullEq[f.Param] = f
		case CmpMixedText:
			s.cmpMixed[f.Param] = f
		case FuncCmpNumeric:
			s.funcCmp[f.Param] = f
		case FuncWrongVal:
			s.funcWrong[f.Param] = f
		case NotElim:
			s.notElim[f.Param] = f
		case JoinOnToWhere:
			s.joinFlatten[f.Param] = f
		case NotInNullTrue:
			s.notInNull = f
		case BetweenExclusive:
			s.between = f
		case LikeUnderscore:
			s.like = f
		case CaseNullTrue:
			s.caseNull = f
		case DistinctFromNull:
			s.distinctFrom = f
		case PartialIndexScan:
			s.partialIndex = f
		case StaleIndexAfterUpdate:
			s.staleIndex = f
		case IndexRangeBoundary:
			s.rangeBound[f.Param] = f
		case UniqueIndexFalseConflict:
			s.uniqueFalse = f
		case CompositeSpanBoundary:
			s.compBound = f
		case CompositeProbePrefixSkip:
			s.compPrefix = f
		case PrefixSpanTruncate:
			s.prefixTrunc = f
		case JoinIndexResidual:
			s.joinResidual = f
		case UnionAllDedup:
			s.unionDedup = f
		case CrashOnFeature:
			s.crashFeature[s.trigger(f)] = f
		case CrashOnDeepExpr:
			s.crashDeep = f
		case InternalErrorOnFeature:
			s.errFeature[s.trigger(f)] = f
		case PerfOnFeature:
			s.perfFeature[s.trigger(f)] = f
		case PanicOnCompositeRebuild:
			s.panicRebuild = f
		case PanicOnProbeStep:
			s.panicProbe = f
		case CoveringIndexProjSwap:
			s.coverSwap = f
		case JoinPermConjDrop:
			s.permDrop = f
		}
	}
	return s
}

// trigger adds the feature a feature-keyed fault fires on to the
// triggers and returns it. Fault lists come from the catalogue (or
// tests), whose parameters a test checks against the feature table, so
// an unknown one is a bug.
func (s *Set) trigger(f *Fault) feature.ID {
	id, ok := feature.Lookup(f.Param)
	if !ok {
		panic(fmt.Sprintf("faults: %s fires on unknown feature %q", f.ID, f.Param))
	}
	s.triggers.Add(id)
	return id
}

// All returns the fault list.
func (s *Set) All() []Fault {
	if s == nil {
		return nil
	}
	return s.all
}

// Len returns the number of faults.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.all)
}

// CmpNullTrue returns the NULL-as-TRUE fault for a comparison operator.
func (s *Set) CmpNullTrue(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.cmpNullTrue[op]
}

// CmpNullEq returns the NULL-equals-NULL fault for a comparison operator.
func (s *Set) CmpNullEq(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.cmpNullEq[op]
}

// CmpMixed returns the mixed-type textual-comparison fault for an operator.
func (s *Set) CmpMixed(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.cmpMixed[op]
}

// FuncCmp returns the FuncCmpNumeric fault targeting function name.
func (s *Set) FuncCmp(name string) *Fault {
	if s == nil {
		return nil
	}
	return s.funcCmp[name]
}

// FuncWrong returns the FuncWrongVal fault targeting function name.
func (s *Set) FuncWrong(name string) *Fault {
	if s == nil {
		return nil
	}
	return s.funcWrong[name]
}

// NotElim returns the NOT-elimination fault for an inner operator.
func (s *Set) NotElim(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.notElim[op]
}

// JoinFlatten returns the ON→WHERE flattener fault for a join keyword.
func (s *Set) JoinFlatten(join string) *Fault {
	if s == nil {
		return nil
	}
	return s.joinFlatten[join]
}

// NotInNull returns the NOT-IN-with-NULL fault, if any.
func (s *Set) NotInNull() *Fault {
	if s == nil {
		return nil
	}
	return s.notInNull
}

// Between returns the exclusive-BETWEEN fault, if any.
func (s *Set) Between() *Fault {
	if s == nil {
		return nil
	}
	return s.between
}

// Like returns the LIKE-underscore fault, if any.
func (s *Set) Like() *Fault {
	if s == nil {
		return nil
	}
	return s.like
}

// CaseNull returns the CASE-null-condition fault, if any.
func (s *Set) CaseNull() *Fault {
	if s == nil {
		return nil
	}
	return s.caseNull
}

// DistinctFrom returns the IS DISTINCT FROM fault, if any.
func (s *Set) DistinctFrom() *Fault {
	if s == nil {
		return nil
	}
	return s.distinctFrom
}

// PartialIndex returns the partial-index-scan fault, if any.
func (s *Set) PartialIndex() *Fault {
	if s == nil {
		return nil
	}
	return s.partialIndex
}

// StaleIndex returns the stale-index-after-UPDATE fault, if any.
func (s *Set) StaleIndex() *Fault {
	if s == nil {
		return nil
	}
	return s.staleIndex
}

// RangeBoundary returns the index range off-by-one fault for an
// inclusive comparison operator ("<=" or ">=").
func (s *Set) RangeBoundary(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.rangeBound[op]
}

// UniqueConflict returns the unique-index false-conflict fault, if any.
func (s *Set) UniqueConflict() *Fault {
	if s == nil {
		return nil
	}
	return s.uniqueFalse
}

// HasPlanFaults reports whether the set carries any access-path-planner
// fault (PartialIndexScan, StaleIndexAfterUpdate, IndexRangeBoundary,
// CompositeSpanBoundary, CompositeProbePrefixSkip, PrefixSpanTruncate,
// JoinPermConjDrop). The engine pins its planner scratch buffers before
// running their ground-truth checks, whose clean re-evaluation may
// re-enter the planner.
func (s *Set) HasPlanFaults() bool {
	if s == nil {
		return false
	}
	return s.partialIndex != nil || s.staleIndex != nil || s.compBound != nil ||
		s.compPrefix != nil || s.prefixTrunc != nil || s.permDrop != nil ||
		len(s.rangeBound) > 0
}

// CompositeBoundary returns the composite-span off-by-one fault, if any.
func (s *Set) CompositeBoundary() *Fault {
	if s == nil {
		return nil
	}
	return s.compBound
}

// CompositePrefixSkip returns the composite-probe trailing-conjunct-skip
// fault, if any.
func (s *Set) CompositePrefixSkip() *Fault {
	if s == nil {
		return nil
	}
	return s.compPrefix
}

// PrefixTruncate returns the short-prefix span-truncation fault, if any.
func (s *Set) PrefixTruncate() *Fault {
	if s == nil {
		return nil
	}
	return s.prefixTrunc
}

// JoinResidual returns the index-nested-loop residual-skip fault, if
// any.
func (s *Set) JoinResidual() *Fault {
	if s == nil {
		return nil
	}
	return s.joinResidual
}

// UnionDedup returns the UNION ALL dedup fault, if any.
func (s *Set) UnionDedup() *Fault {
	if s == nil {
		return nil
	}
	return s.unionDedup
}

// FeatureTriggers returns the features that fire a CrashOnFeature,
// InternalErrorOnFeature or PerfOnFeature fault (nil for a nil set).
func (s *Set) FeatureTriggers() *feature.Set {
	if s == nil {
		return nil
	}
	return &s.triggers
}

// CrashFeature returns the crash fault for a feature.
func (s *Set) CrashFeature(id feature.ID) *Fault {
	if s == nil {
		return nil
	}
	return s.crashFeature[id]
}

// CrashDeep returns the deep-expression crash fault, if any.
func (s *Set) CrashDeep() *Fault {
	if s == nil {
		return nil
	}
	return s.crashDeep
}

// ErrFeature returns the internal-error fault for a feature.
func (s *Set) ErrFeature(id feature.ID) *Fault {
	if s == nil {
		return nil
	}
	return s.errFeature[id]
}

// PerfFeature returns the performance fault for a feature.
func (s *Set) PerfFeature(id feature.ID) *Fault {
	if s == nil {
		return nil
	}
	return s.perfFeature[id]
}

// PanicRebuild returns the composite-index-rebuild panic fault, if any.
func (s *Set) PanicRebuild() *Fault {
	if s == nil {
		return nil
	}
	return s.panicRebuild
}

// PanicProbe returns the join-probe-step panic fault, if any.
func (s *Set) PanicProbe() *Fault {
	if s == nil {
		return nil
	}
	return s.panicProbe
}

// CoveringSwap returns the covering-projection column-transposition
// fault, if any.
func (s *Set) CoveringSwap() *Fault {
	if s == nil {
		return nil
	}
	return s.coverSwap
}

// PermConjDrop returns the join-reorderer conjunct-drop fault, if any.
func (s *Set) PermConjDrop() *Fault {
	if s == nil {
		return nil
	}
	return s.permDrop
}
