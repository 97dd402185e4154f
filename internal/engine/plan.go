package engine

// Access-path planning and index maintenance. Indexes carry a real
// ordered key→row store over their full composite key (catalog.go); the
// DML executors keep it incrementally in sync with the table's visible
// rows, and planIndexAccess chooses between the full scan and an index
// probe for the first FROM relation of a SELECT — combining multiple
// sargable conjuncts into one multi-column span: an equality prefix over
// the index's leading columns plus at most one trailing range (so
// "a = 1 AND b < 5" over an index on (a, b) touches only the rows with
// a = 1 and b < 5).
//
// The candidate set an index probe returns is exactly the set of rows
// whose stored key satisfies the probe conjuncts under the clean
// comparison semantics (evalCompare over Compare order — the same total
// order the entries are sorted by). The WHERE loop still re-evaluates
// every conjunct, fault hooks included, over the candidates, so with
// faults disabled the index path is observationally identical to the
// full scan. The injected index defects (PartialIndexScan,
// IndexRangeBoundary, StaleIndexAfterUpdate, CompositeSpanBoundary)
// perturb the candidate set itself — rows they drop cannot be
// resurrected downstream, which is what makes them visible to TLP and
// NoREC — while CompositeProbePrefixSkip widens it and suppresses the
// trailing conjunct's re-check, adding rows instead.
//
// UPDATE and DELETE collect their mutation sets through the same spans
// (planDMLAccess), but always under clean semantics: mutations must
// follow the reference row flow regardless of injected plan faults, so
// no fault hook applies there and stale stores fall back to the full
// scan.

import (
	"sort"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// ---------------------------------------------------------------------
// Ordered store maintenance
// ---------------------------------------------------------------------

// indexCovers reports whether a row is covered by the index (partial
// predicate TRUE; errors count as uncovered). The composite key itself
// is implicit: it is the row's values at ix.leads.
func (s *DB) indexCovers(t *Table, ix *Index, row []Value) bool {
	if ix.Where != nil {
		env := &rowEnv{rels: []rowRel{tableRowRel(t, row)}}
		tri, err := s.newEvalCtx(env).evalTri(ix.Where)
		if err != nil || tri != TriTrue {
			return false
		}
	}
	return true
}

// buildIndex (re)builds the ordered store from the table's visible rows.
// Entries sort by composite key with ties in table order — the same
// order the incremental path (insert at the end of the equal-key span)
// maintains.
func (s *DB) buildIndex(t *Table, ix *Index) {
	ix.leads = ix.leads[:0]
	for _, c := range ix.Columns {
		ix.leads = append(ix.leads, t.ColumnIndex(c))
	}
	ix.entries = ix.entries[:0]
	ix.stale = false
	for _, row := range t.Rows {
		if s.indexCovers(t, ix, row) {
			ix.entries = append(ix.entries, row)
		}
	}
	sort.SliceStable(ix.entries, func(i, j int) bool {
		return ix.entryCompare(ix.entries[i], ix.entries[j]) < 0
	})
}

// insertEntry adds one row at the end of its equal-key span.
func (ix *Index) insertEntry(row []Value) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entryCompare(ix.entries[i], row) > 0
	})
	ix.entries = append(ix.entries, nil)
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = row
}

// removeEntry drops the entry of one row, located by its composite key
// and row identity (the row slice's first element).
func (ix *Index) removeEntry(row []Value) {
	if len(row) == 0 {
		return
	}
	j := sort.Search(len(ix.entries), func(i int) bool {
		return ix.entryCompare(ix.entries[i], row) >= 0
	})
	for ; j < len(ix.entries) && ix.entryCompare(ix.entries[j], row) == 0; j++ {
		if len(ix.entries[j]) > 0 && &ix.entries[j][0] == &row[0] {
			ix.entries = append(ix.entries[:j], ix.entries[j+1:]...)
			return
		}
	}
}

// indexInsertRows adds entries for rows that just became visible
// (INSERT, or REFRESH TABLE flushing pending rows).
func (s *DB) indexInsertRows(t *Table, rows [][]Value) {
	for _, ix := range t.indexes {
		for _, row := range rows {
			if s.indexCovers(t, ix, row) {
				ix.insertEntry(row)
			}
		}
	}
}

// indexRemoveRow drops the entries of one removed row. Coverage is a
// pure function of the row's values, so recomputing it finds the same
// entries the insertion created.
func (s *DB) indexRemoveRow(t *Table, row []Value) {
	for _, ix := range t.indexes {
		if s.indexCovers(t, ix, row) {
			ix.removeEntry(row)
		}
	}
}

// indexUpdateRow swaps the entries of one updated row (remove the old
// row's entries, insert the new row's). With the StaleIndexAfterUpdate
// fault active the maintenance is skipped entirely and every index whose
// entries would have changed is marked stale — later probes on a stale
// index return detached pre-update rows or miss the updated ones.
func (s *DB) indexUpdateRow(t *Table, old, nr []Value, skipMaintenance bool) {
	for _, ix := range t.indexes {
		co := s.indexCovers(t, ix, old)
		cn := s.indexCovers(t, ix, nr)
		if skipMaintenance {
			if co || cn {
				ix.stale = true
			}
			continue
		}
		if co {
			ix.removeEntry(old)
		}
		if cn {
			ix.insertEntry(nr)
		}
	}
}

// indexClear empties every index on a table (unconditional DELETE): an
// empty store is consistent with an empty table, so staleness resets.
func indexClear(t *Table) {
	for _, ix := range t.indexes {
		ix.entries = ix.entries[:0]
		ix.stale = false
	}
}

// ---------------------------------------------------------------------
// Probe extraction and spans
// ---------------------------------------------------------------------

// indexProbe is a normalized sargable conjunct: column op literal.
type indexProbe struct {
	col string
	op  sqlast.BinaryOp
	val Value
}

// flipCmp mirrors a comparison operator for "literal op column" shapes.
func flipCmp(op sqlast.BinaryOp) sqlast.BinaryOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	default: // =, <=>, IS NOT DISTINCT FROM are symmetric
		return op
	}
}

// litValue converts a literal AST node to a runtime value.
func litValue(l *sqlast.Literal) Value {
	switch l.Kind {
	case sqlast.LitNull:
		return Null()
	case sqlast.LitInt:
		return Int(l.Int)
	case sqlast.LitText:
		return Text(l.Text)
	default:
		return Bool(l.Bool)
	}
}

// matchProbe extracts an index probe from one top-level WHERE conjunct
// for the relation (alias, t). It accepts =, <, <=, >, >= and the
// null-safe equality spellings between a column of the relation and a
// literal. The null-safe forms normalize to = only for non-NULL
// literals: over non-NULL keys the two agree, and NULL keys are outside
// every span ("x <=> NULL" would instead select them, so it is not
// sargable here).
func matchProbe(conj sqlast.Expr, alias string, t *Table) (indexProbe, bool) {
	b, ok := conj.(*sqlast.Binary)
	if !ok {
		return indexProbe{}, false
	}
	op := b.Op
	col, okc := b.L.(*sqlast.ColumnRef)
	lit, okl := b.R.(*sqlast.Literal)
	if !okc || !okl {
		col, okc = b.R.(*sqlast.ColumnRef)
		lit, okl = b.L.(*sqlast.Literal)
		if !okc || !okl {
			return indexProbe{}, false
		}
		op = flipCmp(op)
	}
	v := litValue(lit)
	switch op {
	case sqlast.OpEq, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
		// With a NULL operand these are never TRUE; the span is empty.
	case sqlast.OpNullSafeEq, sqlast.OpIsNotDistinct:
		if v.IsNull() {
			return indexProbe{}, false
		}
		op = sqlast.OpEq
	default:
		return indexProbe{}, false
	}
	if col.Table != "" && !strings.EqualFold(col.Table, alias) {
		return indexProbe{}, false
	}
	if t.ColumnIndex(col.Column) < 0 {
		return indexProbe{}, false
	}
	return indexProbe{col: col.Column, op: op, val: v}, true
}

// eqSpan returns the half-open entry range [lo, hi) whose composite keys
// start with the equality prefix eq (len(eq) <= len(ix.leads); an empty
// prefix spans every entry). A NULL prefix value yields the empty span:
// an equality probe with a NULL operand is never TRUE, and NULL keys —
// which sort first within their prefix group — fall outside it.
func (ix *Index) eqSpan(eq []Value) (int, int) {
	for _, v := range eq {
		if v.IsNull() {
			return 0, 0
		}
	}
	n := len(ix.entries)
	lo := sort.Search(n, func(i int) bool { return ix.keyCompare(ix.entries[i], eq) >= 0 })
	hi := sort.Search(n, func(i int) bool { return ix.keyCompare(ix.entries[i], eq) > 0 })
	return lo, hi
}

// span returns the half-open entry range whose keys satisfy the
// equality prefix eq AND "column[len(eq)] op val" under the clean
// comparison semantics. Entries sort lexicographically in compareForSort
// order (NULLs first per column), which agrees with Compare on non-NULL
// values — the same order evalCompare uses — so the matching region is
// contiguous within the prefix group and NULL keys fall outside every
// span. With len(eq) == 0 this is the single-column span of PR 2; a
// trailing range on a fully-matched prefix is expressed by the caller as
// op = OpEq via the prefix instead.
func (ix *Index) span(eq []Value, op sqlast.BinaryOp, val Value) (int, int) {
	plo, phi := ix.eqSpan(eq)
	if plo == phi || val.IsNull() {
		return plo, plo
	}
	rc := ix.leads[len(eq)]
	in := ix.entries[plo:phi]
	n := len(in)
	lowerEq := plo + sort.Search(n, func(i int) bool { return compareForSort(in[i][rc], val) >= 0 })
	upperEq := plo + sort.Search(n, func(i int) bool { return compareForSort(in[i][rc], val) > 0 })
	switch op {
	case sqlast.OpEq:
		return lowerEq, upperEq
	case sqlast.OpLt:
		return plo + ix.firstNonNull(in, rc), lowerEq
	case sqlast.OpLe:
		return plo + ix.firstNonNull(in, rc), upperEq
	case sqlast.OpGt:
		return upperEq, phi
	default: // OpGe
		return lowerEq, phi
	}
}

// firstNonNull returns the offset of the first entry whose key column rc
// is non-NULL within an equal-prefix entry group.
func (ix *Index) firstNonNull(in [][]Value, rc int) int {
	return sort.Search(len(in), func(i int) bool { return !in[i][rc].IsNull() })
}

// ---------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------

// indexPlannable reports whether pre-filtering the first FROM relation
// with an index probe preserves the statement's semantics: every
// subsequent join must be inner-like (no NULL extension), so removing a
// left row that fails the probe conjunct can only remove joined rows the
// WHERE clause would have dropped anyway.
func indexPlannable(from []sqlast.FromItem) bool {
	for _, it := range from[1:] {
		switch it.Join {
		case sqlast.JoinComma, sqlast.JoinCross, sqlast.JoinInner, sqlast.JoinNatural:
		default:
			return false
		}
	}
	return true
}

// indexOrderSafe reports whether swapping the first relation's scan
// order can change the statement's result beyond row order. The index
// path yields candidates in key order, not table order — invisible to
// multiset comparison, but observable wherever order leaks into row
// selection or values: LIMIT/OFFSET cut by position (an ORDER BY does
// not neutralize them — the sort is stable, so ties keep scan order),
// and grouped execution evaluates non-aggregate expressions on each
// group's first row.
func indexOrderSafe(sel *sqlast.Select) bool {
	if sel.Limit != nil || sel.Offset != nil {
		return false
	}
	if len(sel.GroupBy) > 0 {
		return false // group representatives are first-row dependent
	}
	if !selHasAggregates(sel) {
		return true // plain select: only the output order changes
	}
	// Global aggregate: one output row, safe iff nothing reads a column
	// (or runs a possibly-correlated subquery) outside an aggregate call
	// — the single group's representative row is scan-order dependent.
	for i := range sel.Items {
		if sel.Items[i].Star || !orderFreeExpr(sel.Items[i].Expr) {
			return false
		}
	}
	for _, o := range sel.OrderBy {
		if !orderFreeExpr(o.Expr) {
			return false
		}
	}
	return sel.Having == nil || orderFreeExpr(sel.Having)
}

// orderFreeExpr reports whether an expression's value over a single
// aggregate group is independent of the scan order: every column
// reference and every subquery sits inside an aggregate call.
func orderFreeExpr(e sqlast.Expr) bool {
	safe := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Func:
			if isAggregate(n) {
				return false // aggregates fold the whole group: order-free
			}
		case *sqlast.ColumnRef, *sqlast.Subquery, *sqlast.Exists:
			safe = false
		}
		return safe
	})
	return safe
}

// planScratch holds the planner's per-scan scratch buffers, owned by
// the DB instance and reset at every planIndexAccess/planDMLAccess
// entry: the sargable-probe list and the composite-key arena. Probe eq
// prefixes are subslices of the arena, valid until the next planner
// entry — the ground-truth helpers, whose clean re-evaluation can nest
// another planner call (a subquery conjunct), pin their probe first.
type planScratch struct {
	probes  []indexProbe
	conjIdx []int
	keys    []Value
}

// compositeProbe is a planned multi-column index probe: an equality
// prefix over the index's leading columns plus at most one trailing
// range conjunct on the next column.
type compositeProbe struct {
	ix *Index
	// eq holds the equality-prefix values, one per leading index column.
	eq []Value
	// hasRange marks a trailing range conjunct "columns[len(eq)] rangeOp
	// rangeVal"; rangeIdx is its position among the WHERE conjuncts.
	hasRange bool
	rangeOp  sqlast.BinaryOp
	rangeVal Value
	rangeIdx int
}

// rowMatches reports whether a table row satisfies every probe conjunct
// under the clean comparison semantics (ground-truth accounting).
func (p *compositeProbe) rowMatches(ctx *evalCtx, row []Value) bool {
	for i, v := range p.eq {
		if ctx.evalCompare(sqlast.OpEq, row[p.ix.leads[i]], v) != TriTrue {
			return false
		}
	}
	if p.hasRange {
		return ctx.evalCompare(p.rangeOp, row[p.ix.leads[len(p.eq)]], p.rangeVal) == TriTrue
	}
	return true
}

// span returns the probe's clean entry span.
func (p *compositeProbe) span() (int, int) {
	if p.hasRange {
		return p.ix.span(p.eq, p.rangeOp, p.rangeVal)
	}
	return p.ix.eqSpan(p.eq)
}

// extractProbes collects the sargable conjuncts of one scan into the
// instance's scratch buffers (reset here; the previous scan's contents
// are dead by construction — planning completes before any evaluation).
func (s *DB) extractProbes(t *Table, alias string, conjs []sqlast.Expr) ([]indexProbe, []int) {
	probes := s.scratch.probes[:0]
	conjIdx := s.scratch.conjIdx[:0]
	s.scratch.keys = s.scratch.keys[:0]
	for ci, conj := range conjs {
		if probe, ok := matchProbe(conj, alias, t); ok {
			probes = append(probes, probe)
			conjIdx = append(conjIdx, ci)
		}
	}
	s.scratch.probes, s.scratch.conjIdx = probes, conjIdx
	return probes, conjIdx
}

// matchComposite assembles the widest composite probe an index supports
// from the statement's sargable conjuncts: for each leading column in
// order, the first equality conjunct on it extends the prefix; the first
// range conjunct on the column that ends the prefix becomes the trailing
// range. maxEq > 0 caps the equality-prefix width (PlanSpec.PrefixWidth:
// a capped probe consumes fewer key columns, widening the span — the
// dropped conjuncts stay in the WHERE loop, so the capped plan is
// observationally identical on a clean engine). Returns false when no
// conjunct touches the leading column.
func matchComposite(ix *Index, probes []indexProbe, conjIdx []int, arena *[]Value, maxEq int) (compositeProbe, bool) {
	p := compositeProbe{ix: ix, rangeIdx: -1}
	start := len(*arena)
	width := len(ix.Columns)
	if maxEq > 0 && maxEq < width {
		width = maxEq
	}
	eqLen := 0
	for eqLen < width {
		col := ix.Columns[eqLen]
		extended := false
		for i := range probes {
			if probes[i].op == sqlast.OpEq && strings.EqualFold(probes[i].col, col) {
				*arena = append(*arena, probes[i].val)
				eqLen++
				extended = true
				break
			}
		}
		if !extended {
			break
		}
	}
	// A trailing range binds to the key column right after the equality
	// prefix — whether the prefix ended because no equality conjunct
	// matched or because the width cap cut it short.
	if eqLen < len(ix.Columns) {
		col := ix.Columns[eqLen]
		for i := range probes {
			if probes[i].op != sqlast.OpEq && strings.EqualFold(probes[i].col, col) {
				p.hasRange = true
				p.rangeOp = probes[i].op
				p.rangeVal = probes[i].val
				p.rangeIdx = conjIdx[i]
				break
			}
		}
	}
	// An append past the arena's capacity may move the backing array;
	// slicing after the loop keeps the eq prefix pointing at live memory
	// either way (earlier probes keep their values in the old array).
	p.eq = (*arena)[start : start+eqLen : start+eqLen]
	return p, eqLen > 0 || p.hasRange
}

// planIndexAccess chooses an access path for a base-table scan given the
// statement's top-level WHERE conjuncts. It returns the candidate rows
// in key order when an index probe beats the full scan (fewer entries
// than table rows) — the span is a live subslice of the ordered store,
// so the scan itself allocates nothing. The cost model then charges only
// the rows actually touched: the WHERE loop runs over the candidates
// instead of the whole table. skipConj is the WHERE-conjunct position
// the executor must not re-evaluate (-1 normally): the
// CompositeProbePrefixSkip defect treats the trailing range conjunct as
// consumed by the probe while returning the whole equality-prefix span.
func (s *DB) planIndexAccess(t *Table, alias string, conjs []sqlast.Expr) (rows [][]Value, chosen *Index, skipConj int, ok bool) {
	if s.planSpec.DisableIndexPaths || len(t.indexes) == 0 {
		return nil, nil, -1, false
	}
	rel := s.planSpec.relSpec(alias)
	if rel.Force == ForceScan {
		s.cov.Hit("plan.force.scan")
		return nil, nil, -1, false
	}
	fs := s.faultSet()

	// Sargable conjuncts are extracted once per scan, into the instance's
	// reusable scratch buffers.
	probes, conjIdx := s.extractProbes(t, alias, conjs)
	if len(probes) == 0 {
		return nil, nil, -1, false
	}

	// PartialIndexScan defect: an equality probe on the leading column of
	// a *partial* index wrongly uses that index — regardless of cost, and
	// without re-checking the rows its predicate excludes. Auto planning
	// only: a forced plan names its index explicitly, and this defect
	// lives in the index *selection*.
	if f := fs.PartialIndex(); f != nil && rel.Force == ForceAuto {
		for i := range probes {
			if probes[i].op != sqlast.OpEq {
				continue
			}
			for _, ix := range t.indexes {
				if ix.Where == nil || !strings.EqualFold(ix.Columns[0], probes[i].col) {
					continue
				}
				probe := compositeProbe{ix: ix, eq: []Value{probes[i].val}, rangeIdx: -1}
				lo, hi := probe.span()
				rows := ix.entries[lo:hi]
				if s.indexDropObservable(t, &probe, rows, conjs) {
					s.trigger(f)
				}
				return rows, ix, -1, true
			}
		}
	}

	var best compositeProbe
	var bestLo, bestHi int
	if rel.Force == ForceIndex {
		// Forced index: use it regardless of cost. Inapplicable forcing —
		// unknown or partial index, or no sargable conjunct the index can
		// consume — degrades to the full scan, never errors.
		ix := t.findIndex(rel.Index)
		if ix == nil || ix.Where != nil {
			s.cov.Hit("plan.force.fallback")
			return nil, nil, -1, false
		}
		probe, pok := matchComposite(ix, probes, conjIdx, &s.scratch.keys, rel.PrefixWidth)
		if !pok {
			s.cov.Hit("plan.force.fallback")
			return nil, nil, -1, false
		}
		best = probe
		bestLo, bestHi = probe.span()
		s.cov.Hit("plan.force.index")
	} else {
		// Clean planning: the smallest composite span wins (under the
		// spec's prefix-width cap, if any).
		best, bestLo, bestHi, ok = s.bestCompositeSpan(t, probes, conjIdx, false, rel.PrefixWidth)
		if !ok || bestHi-bestLo >= len(t.Rows) {
			return nil, nil, -1, false
		}
	}

	ix := best.ix
	rows = ix.entries[bestLo:bestHi]
	skipConj = -1

	// The fault branches below interleave clean re-evaluation — which can
	// re-enter the planner through a subquery conjunct and overwrite the
	// scratch key arena — with reads of the chosen probe's eq prefix.
	// Give the probe its own backing first (off the clean hot path).
	if fs.HasPlanFaults() && len(best.eq) > 0 {
		best.eq = append([]Value(nil), best.eq...)
	}

	// CompositeProbePrefixSkip defect: the probe matches on the equality
	// prefix but treats the trailing range conjunct as already applied —
	// the whole prefix span comes back and the WHERE loop skips the
	// conjunct, so prefix-matching rows that fail the range appear in the
	// result. Checked first: it subsumes the span the boundary defects
	// would have perturbed.
	if f := fs.CompositePrefixSkip(); f != nil && len(best.eq) > 0 && best.hasRange {
		plo, phi := ix.eqSpan(best.eq)
		if plo != bestLo || phi != bestHi {
			rows = ix.entries[plo:phi]
			skipConj = best.rangeIdx
			if s.prefixSkipObservable(t, &best, conjs) {
				s.trigger(f)
			}
		}
		return rows, ix, skipConj, true
	}

	// IndexRangeBoundary defect: an inclusive range probe excludes its
	// boundary keys (<= behaves like <, >= like >) — in any span position,
	// single-column or trailing.
	if best.hasRange {
		if f := fs.RangeBoundary(best.rangeOp.String()); f != nil &&
			(best.rangeOp == sqlast.OpLe || best.rangeOp == sqlast.OpGe) {
			faultyOp := sqlast.OpLt
			if best.rangeOp == sqlast.OpGe {
				faultyOp = sqlast.OpGt
			}
			flo, fhi := ix.span(best.eq, faultyOp, best.rangeVal)
			if flo != bestLo || fhi != bestHi {
				rows = ix.entries[flo:fhi]
				if s.indexDropObservable(t, &best, rows, conjs) {
					s.trigger(f)
				}
			}
		}
	}

	// CompositeSpanBoundary defect: the trailing strict range of a
	// *composite* span (non-empty equality prefix) is computed with an
	// off-by-one fencepost — the boundary-adjacent entry is dropped (the
	// last entry for <, the first for >). Disjoint from IndexRangeBoundary,
	// which perturbs the inclusive operators.
	if f := fs.CompositeBoundary(); f != nil && len(best.eq) > 0 && best.hasRange &&
		(best.rangeOp == sqlast.OpLt || best.rangeOp == sqlast.OpGt) && bestHi > bestLo {
		flo, fhi := bestLo, bestHi
		if best.rangeOp == sqlast.OpLt {
			fhi--
		} else {
			flo++
		}
		rows = ix.entries[flo:fhi]
		if s.indexDropObservable(t, &best, rows, conjs) {
			s.trigger(f)
		}
	}

	// PrefixSpanTruncate defect: a probe that consumes an equality prefix
	// strictly shorter than the index's composite key — with no trailing
	// range, i.e. a whole-prefix span — computes its upper fencepost one
	// short, dropping the span's last entry. The auto planner reaches such
	// a span only when the query constrains just a leading subset of the
	// key; a width-capped forced plan (composite-vs-leading forcing)
	// reaches it for fully constrained queries too — where the auto plan
	// consumes the full key and the defect is invisible to the legacy
	// index-on/off plan pair.
	if f := fs.PrefixTruncate(); f != nil && !best.hasRange && len(best.eq) > 0 &&
		len(best.eq) < len(ix.Columns) && bestHi > bestLo {
		rows = ix.entries[bestLo : bestHi-1]
		if s.indexDropObservable(t, &best, rows, conjs) {
			s.trigger(f)
		}
	}

	if ix.stale {
		if f := fs.StaleIndex(); f != nil {
			if s.staleProbeDiverges(t, &best, rows) {
				s.trigger(f)
			}
		}
	}
	return rows, ix, skipConj, true
}

// planDMLAccess chooses the candidate mutation set for an UPDATE/DELETE
// WHERE clause: the identity set (row-slice first-element pointers) of
// the best clean composite span over the statement's top-level
// conjuncts. The set is snapshotted out of the ordered store before the
// caller mutates anything — index maintenance rewrites entries
// mid-statement, so the span subslice itself must not outlive planning.
// Clean semantics only: a mutation's row flow must follow the reference
// semantics regardless of injected plan faults, so no fault hook applies
// here, partial indexes are never used, a stale store falls back to the
// full scan, and so does any WHERE whose conjuncts could raise a
// runtime error on a skipped row (rowLocalTotal). Returns false when no
// span beats the full scan.
func (s *DB) planDMLAccess(t *Table, conjs []sqlast.Expr) (map[*Value]bool, bool) {
	if s.planSpec.DisableIndexPaths || len(t.indexes) == 0 || len(conjs) == 0 {
		return nil, false
	}
	rel := s.planSpec.relSpec(t.Name)
	if rel.Force == ForceScan {
		return nil, false
	}
	// Skipping a row skips the full-scan loop's evaluation of every
	// conjunct on it: legal only when no skipped evaluation could have
	// raised a runtime error, or the two plans would diverge in statement
	// status — and thus final table state — on error-raising dialects.
	for _, conj := range conjs {
		if !s.rowLocalTotal(conj) {
			return nil, false
		}
	}
	probes, conjIdx := s.extractProbes(t, t.Name, conjs)
	if len(probes) == 0 {
		return nil, false
	}
	var best compositeProbe
	var bestLo, bestHi int
	if rel.Force == ForceIndex {
		// Forced index, under the same clean-semantics gates as auto DML
		// planning (non-partial, non-stale); anything inapplicable falls
		// back to the full scan.
		ix := t.findIndex(rel.Index)
		if ix == nil || ix.Where != nil || ix.stale {
			return nil, false
		}
		probe, pok := matchComposite(ix, probes, conjIdx, &s.scratch.keys, rel.PrefixWidth)
		if !pok {
			return nil, false
		}
		best = probe
		bestLo, bestHi = probe.span()
	} else {
		var ok bool
		best, bestLo, bestHi, ok = s.bestCompositeSpan(t, probes, conjIdx, true, rel.PrefixWidth)
		if !ok || bestHi-bestLo >= len(t.Rows) {
			return nil, false
		}
	}
	cand := make(map[*Value]bool, bestHi-bestLo)
	for _, row := range best.ix.entries[bestLo:bestHi] {
		if len(row) > 0 {
			cand[&row[0]] = true
		}
	}
	return cand, true
}

// bestCompositeSpan picks the smallest composite span over a table's
// ordinary (non-partial) indexes; ties keep the first index in name
// order. skipStale additionally rejects stale stores — the DML
// planner's fallback rule. maxEq forwards the spec's prefix-width cap.
// ok is false when no index matches a probe.
func (s *DB) bestCompositeSpan(t *Table, probes []indexProbe, conjIdx []int, skipStale bool, maxEq int) (best compositeProbe, lo, hi int, ok bool) {
	bestLen := -1
	for _, ix := range t.indexes {
		if ix.Where != nil || (skipStale && ix.stale) {
			continue
		}
		probe, pok := matchComposite(ix, probes, conjIdx, &s.scratch.keys, maxEq)
		if !pok {
			continue
		}
		plo, phi := probe.span()
		if bestLen < 0 || phi-plo < bestLen {
			best, lo, hi, bestLen = probe, plo, phi, phi-plo
		}
	}
	return best, lo, hi, bestLen >= 0
}

// rowLocalTotal reports whether evaluating an expression over any row
// of one table is guaranteed error-free: no subquery or function call,
// no division or modulo on DivZeroError dialects, no cast on
// CastTextError dialects. Comparisons, logical operators, IS NULL,
// BETWEEN, IN lists, LIKE, CASE, concatenation, and wrap-around integer
// arithmetic are total in this engine.
func (s *DB) rowLocalTotal(e sqlast.Expr) bool {
	ok := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Func, *sqlast.Subquery, *sqlast.Exists:
			ok = false
		case *sqlast.Cast:
			if s.dialect.CastTextError {
				ok = false
			}
		case *sqlast.Binary:
			if (n.Op == sqlast.OpDiv || n.Op == sqlast.OpMod) && s.dialect.DivZeroError {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// ---------------------------------------------------------------------
// Index-nested-loop join planning
// ---------------------------------------------------------------------

// joinProbe is an index-nested-loop access path for one inner-like join
// step: for every accumulated left row, leftExprs are evaluated once and
// the resulting composite key is binary-searched in ix's ordered store,
// replacing the quadratic candidate loop over the right relation.
// conjIdx holds the positions of the probe conjuncts among the split ON
// conjuncts, one per key column.
type joinProbe struct {
	ix        *Index
	leftExprs []sqlast.Expr
	conjIdx   []int
}

// covers reports whether an ON-conjunct position is consumed by the
// probe's equality key.
func (p *joinProbe) covers(ci int) bool {
	for _, idx := range p.conjIdx {
		if idx == ci {
			return true
		}
	}
	return false
}

// joinEqConj matches one ON conjunct as "right.col = leftExpr" (either
// operand order) for the relation being joined, returning the right
// column name and the left-side key expression.
func joinEqConj(conj sqlast.Expr, rels []matRel, right matRel) (string, sqlast.Expr, bool) {
	b, ok := conj.(*sqlast.Binary)
	if !ok || b.Op != sqlast.OpEq {
		return "", nil, false
	}
	for _, side := range [2][2]sqlast.Expr{{b.L, b.R}, {b.R, b.L}} {
		col, ok := side[0].(*sqlast.ColumnRef)
		if !ok || col.Table == "" || !strings.EqualFold(col.Table, right.alias) {
			continue
		}
		if right.table.ColumnIndex(col.Column) < 0 {
			continue
		}
		if !leftOnlyExpr(side[1], rels) {
			continue
		}
		return col.Column, side[1], true
	}
	return "", nil, false
}

// planJoinProbe chooses an index-nested-loop path for a join step, or
// reports false for the quadratic candidate loop. The plan spec gates
// it first: DisableIndexPaths and the step's ProbeOff forcing suppress
// the probe, and so does a ForceScan on the right relation's alias
// (scanning a relation and probing into it are the same access-path
// choice).
func (s *DB) planJoinProbe(sel *sqlast.Select, rels []matRel, right matRel, conjs []sqlast.Expr, step int) (joinProbe, bool) {
	if s.planSpec.DisableIndexPaths {
		return joinProbe{}, false
	}
	if s.planSpec.joinProbeOff(step) || s.planSpec.relSpec(right.alias).Force == ForceScan {
		s.cov.Hit("plan.join.probeoff")
		return joinProbe{}, false
	}
	return s.matchJoinProbe(sel, rels, right, conjs)
}

// matchJoinProbe is the spec-independent matching half of planJoinProbe
// (the plan enumerator calls it to learn whether a step is
// probe-eligible without consulting the active spec). Each probe
// conjunct must be a plain equality between a column of the (base-table)
// right relation and an expression over the already-joined relations
// only; an index whose leading columns are all matched by such conjuncts
// probes the composite equality span (multi-conjunct ON keys like
// "l.a = r.x AND l.b = r.y" bind a two-column prefix). The longest
// matched prefix wins — ties keep the first index in name order.
// Candidates come out in key order rather than right-table order, so the
// statement must be order-safe (the same gate the base-table planner
// uses); the WHERE and residual-ON evaluation over the candidates is
// unchanged, so with faults disabled the probe path is observationally
// identical to the quadratic loop. The probe's lists live in the
// statement scratch.
func (s *DB) matchJoinProbe(sel *sqlast.Select, rels []matRel, right matRel, conjs []sqlast.Expr) (joinProbe, bool) {
	if right.table == nil || len(right.table.indexes) == 0 || len(conjs) == 0 {
		return joinProbe{}, false
	}
	if !indexOrderSafe(sel) {
		return joinProbe{}, false
	}
	// Extract the eligible equality conjuncts once per join step.
	st := &s.st
	cols := st.strs.alloc(len(conjs))[:0]
	exprs := st.exprs.alloc(len(conjs))[:0]
	idxs := st.ints.alloc(len(conjs))[:0]
	for ci, conj := range conjs {
		if col, le, ok := joinEqConj(conj, rels, right); ok {
			cols = append(cols, col)
			exprs = append(exprs, le)
			idxs = append(idxs, ci)
		}
	}
	if len(cols) == 0 {
		return joinProbe{}, false
	}
	// Each candidate index matches at most one conjunct per key column;
	// a candidate that beats the best so far takes over the buffers.
	var best joinProbe
	probe := joinProbe{leftExprs: st.exprs.alloc(len(cols))[:0], conjIdx: st.ints.alloc(len(cols))[:0]}
	spare := joinProbe{leftExprs: st.exprs.alloc(len(cols))[:0], conjIdx: st.ints.alloc(len(cols))[:0]}
	for _, ix := range right.table.indexes {
		// A stale store (StaleIndexAfterUpdate) falls back to the
		// quadratic loop: probing it per left row would need a per-key
		// divergence check to keep ground truth precise, and the quadratic
		// loop is clean semantics anyway.
		if ix.Where != nil || ix.stale {
			continue
		}
		probe.ix, probe.leftExprs, probe.conjIdx = ix, probe.leftExprs[:0], probe.conjIdx[:0]
		for _, col := range ix.Columns {
			found := false
			for i := range cols {
				if strings.EqualFold(cols[i], col) && !probe.covers(idxs[i]) {
					probe.leftExprs = append(probe.leftExprs, exprs[i])
					probe.conjIdx = append(probe.conjIdx, idxs[i])
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
		if len(probe.leftExprs) == 0 {
			continue
		}
		if best.ix == nil || len(probe.leftExprs) > len(best.leftExprs) {
			if best.ix == nil {
				best, probe = probe, spare
			} else {
				best, probe = probe, best
			}
		}
	}
	return best, best.ix != nil
}

// leftOnlyExpr reports whether an expression can be evaluated over the
// already-joined relations alone: every column reference is qualified
// with an earlier relation's alias, and no subquery appears (a subquery
// could correlate into the probe side).
func leftOnlyExpr(e sqlast.Expr, rels []matRel) bool {
	ok := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Subquery, *sqlast.Exists:
			ok = false
		case *sqlast.ColumnRef:
			if n.Table == "" {
				ok = false
				return false
			}
			found := false
			for i := range rels {
				if strings.EqualFold(rels[i].alias, n.Table) {
					found = true
					break
				}
			}
			if !found {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// ---------------------------------------------------------------------
// Ground-truth trigger precision
// ---------------------------------------------------------------------

// indexDropObservable reports whether a faulty candidate set loses a row
// the clean full scan would return: some table row satisfies the probe
// and every WHERE conjunct under clean semantics but is absent from the
// candidates. Ground-truth accounting only — its work is excluded from
// the statement cost.
func (s *DB) indexDropObservable(t *Table, probe *compositeProbe, candidates [][]Value, conjs []sqlast.Expr) bool {
	saved := s.cost
	defer func() { s.cost = saved }()
	present := make(map[*Value]bool, len(candidates))
	for _, r := range candidates {
		if len(r) > 0 {
			present[&r[0]] = true
		}
	}
	env := &rowEnv{rels: []rowRel{tableRowRel(t, nil)}}
	ctx := s.newEvalCtx(env)
	for _, row := range t.Rows {
		if len(row) > 0 && present[&row[0]] {
			continue
		}
		if !probe.rowMatches(ctx, row) {
			continue
		}
		env.rels[0].vals = row
		if s.conjsPassCleanly(ctx, conjs, -1) {
			return true
		}
	}
	return false
}

// prefixSkipObservable reports whether the CompositeProbePrefixSkip
// defect adds a row the clean plan would not return: some row of the
// equality-prefix span fails the trailing range conjunct under clean
// semantics while passing every other WHERE conjunct — so it surfaces in
// the result despite the WHERE loop (which skips the trailing conjunct).
// Ground-truth accounting only — its work is excluded from the statement
// cost.
func (s *DB) prefixSkipObservable(t *Table, probe *compositeProbe, conjs []sqlast.Expr) bool {
	saved := s.cost
	defer func() { s.cost = saved }()
	env := &rowEnv{rels: []rowRel{tableRowRel(t, nil)}}
	ctx := s.newEvalCtx(env)
	plo, phi := probe.ix.eqSpan(probe.eq)
	rc := probe.ix.leads[len(probe.eq)]
	for _, row := range probe.ix.entries[plo:phi] {
		if ctx.evalCompare(probe.rangeOp, row[rc], probe.rangeVal) == TriTrue {
			continue // the clean span keeps it too
		}
		env.rels[0].vals = row
		if s.conjsPassCleanly(ctx, conjs, probe.rangeIdx) {
			return true
		}
	}
	return false
}

// conjsPassCleanly evaluates the WHERE conjuncts (except position skip)
// over the row bound in ctx, under clean semantics. A conjunct that
// cannot be evaluated row-locally (it references another join relation
// or an outer scope) cannot refute the row, so it counts as passing —
// triggering too eagerly is safe, missing a trigger on an observable
// divergence would misreport a found bug as a false positive.
func (s *DB) conjsPassCleanly(ctx *evalCtx, conjs []sqlast.Expr, skip int) bool {
	for i, conj := range conjs {
		if i == skip {
			continue
		}
		tri, err := ctx.evalTri(conj)
		if err != nil {
			continue
		}
		if tri != TriTrue {
			return false
		}
	}
	return true
}

// staleProbeDiverges reports whether a probe on a stale index returns a
// row multiset different from what a clean scan of the table would:
// the observable symptom of StaleIndexAfterUpdate. Ground-truth
// accounting only — its work is excluded from the statement cost.
func (s *DB) staleProbeDiverges(t *Table, probe *compositeProbe, candidates [][]Value) bool {
	saved := s.cost
	defer func() { s.cost = saved }()
	counts := make(map[string]int, len(candidates))
	extra := 0
	for _, r := range candidates {
		counts[renderRow(r)]++
		extra++
	}
	ix := probe.ix
	ctx := s.newEvalCtx(nil)
	for _, row := range t.Rows {
		if !s.indexCovers(t, ix, row) || !probe.rowMatches(ctx, row) {
			continue
		}
		k := renderRow(row)
		if counts[k] == 0 {
			return true // the clean scan has a row the probe missed
		}
		counts[k]--
		extra--
	}
	return extra != 0 // the probe returned detached rows
}

// joinResidualRejects reports whether any residual ON conjunct (every
// conjunct the probe's equality key does not cover) rejects the
// currently bound join pair under clean semantics: the observable
// symptom of JoinIndexResidual, which keeps the pair anyway. An
// evaluation error also counts — the clean plan would have surfaced it,
// the faulty plan never evaluates. Ground-truth accounting only — its
// work is excluded from the statement cost.
func (s *DB) joinResidualRejects(ctx *evalCtx, conjs []sqlast.Expr, probe *joinProbe) bool {
	saved := s.cost
	defer func() { s.cost = saved }()
	for i, conj := range conjs {
		if probe.covers(i) {
			continue
		}
		tri, err := ctx.evalTri(conj)
		if err != nil || tri != TriTrue {
			return true
		}
	}
	return false
}
