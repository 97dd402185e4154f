package engine

import (
	"slices"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// matRel is a materialized FROM relation.
type matRel struct {
	alias string
	cols  []string
	rows  [][]Value
	table *Table // set when the relation is a direct table reference
}

// jrow is one combined join row: one value slice per relation.
type jrow [][]Value

// scratchExec bundles a scratch environment, its relation slots, and
// the evaluation context over it into one scratch element; the
// execution hot paths build them in lockstep, and one serves every row
// of a loop: callers point it at successive rows with bindRow.
type scratchExec struct {
	env  rowEnv
	ctx  evalCtx
	rels [4]rowRel
}

// newScratchExec builds a scratch environment over a fixed relation list
// and its evaluation context (the inline relation array covers every
// generated query shape; wider joins take their slots from the scratch
// too).
func (s *DB) newScratchExec(rels []matRel, outer *rowEnv) (*rowEnv, *evalCtx) {
	sc := &s.st.execs.alloc(1)[0]
	sc.env.outer = outer
	if len(rels) <= len(sc.rels) {
		sc.env.rels = sc.rels[:len(rels):len(rels)]
	} else {
		sc.env.rels = s.st.rowRels.alloc(len(rels))
	}
	for i := range rels {
		sc.env.rels[i] = rowRel{alias: rels[i].alias, cols: rels[i].cols}
	}
	sc.ctx = s.evalCtxFor(&sc.env)
	return &sc.env, &sc.ctx
}

// bindRow points a scratch environment at one combined row.
func (env *rowEnv) bindRow(row jrow) {
	for i := range row {
		env.rels[i].vals = row[i]
	}
}

// jrowArena hands out combined join rows from chunked backing storage,
// replacing one slice allocation per output row with one per chunk.
// Chunks start at jrowChunkMin slots and double up to jrowChunkMax, so a
// step's arena memory tracks its output: a step that emits one row pays
// for a small chunk, not a full one. Correlated subqueries rerun their
// join steps once per outer row, which makes a fixed chunk cost add up.
//
// With src set, chunks come from that scratch stack; the zero arena
// allocates them on the heap.
type jrowArena struct {
	buf  [][]Value
	next int // slots in the next chunk; 0 before the first
	src  *stack[[]Value]
}

const (
	jrowChunkMin = 16
	jrowChunkMax = 1024
)

func (a *jrowArena) row(lrow jrow, rrow []Value) jrow {
	n := len(lrow) + 1
	if len(a.buf) < n {
		size := max(a.next, jrowChunkMin)
		a.next = min(2*size, jrowChunkMax)
		if a.src != nil {
			a.buf = a.src.alloc(max(size, n))
		} else {
			a.buf = make([][]Value, max(size, n))
		}
	}
	out := a.buf[:n:n]
	a.buf = a.buf[n:]
	copy(out, lrow)
	out[n-1] = rrow
	return out
}

// materializeRef produces the rows of a FROM item.
func (s *DB) materializeRef(ref sqlast.TableRef, outer *rowEnv) (matRel, *Error) {
	switch r := ref.(type) {
	case *sqlast.TableName:
		if t := s.store.table(r.Name); t != nil {
			s.cov.Hit("exec.scan.table")
			// The scan shares the table's row slice: rows are immutable for
			// the duration of a statement (DML replaces slices, it never
			// writes through them), and projection copies values out.
			return matRel{alias: r.RefName(), cols: t.colNames(), rows: t.Rows, table: t}, nil
		}
		if v := s.store.view(r.Name); v != nil {
			s.cov.Hit("exec.scan.view")
			res, err := s.execSelectEnv(v.Def, nil, &s.st)
			if err != nil {
				return matRel{}, err
			}
			return matRel{alias: r.RefName(), cols: v.Columns, rows: res.Rows}, nil
		}
		return matRel{}, errf(ErrSemantic, "no such table or view %q", r.Name)
	case *sqlast.DerivedTable:
		s.cov.Hit("exec.scan.derived")
		res, err := s.execSelectEnv(r.Select, outer, &s.st)
		if err != nil {
			return matRel{}, err
		}
		return matRel{alias: r.Alias, cols: res.Columns, rows: res.Rows}, nil
	default:
		return matRel{}, errf(ErrSemantic, "unhandled table reference")
	}
}

// execSelectEnv executes a SELECT with an optional outer environment for
// correlated subqueries. out is where the result is built: nil for the
// heap, when the caller keeps the Result, or the statement scratch (see
// stmtScratch's allocators). Everything else the execution builds comes
// from the scratch. Errors use the engine's *Error type.
func (s *DB) execSelectEnv(sel *sqlast.Select, outer *rowEnv, out *stmtScratch) (*Result, *Error) {
	if len(sel.Compound) > 0 {
		return s.execCompound(sel, outer, out)
	}
	s.cov.Hit("exec.select")
	st := &s.st
	var rels []matRel
	var rows []jrow
	// Filter conjuncts are split once per statement; the access-path
	// planner and the WHERE loop share them.
	var conjs []sqlast.Expr
	if sel.Where != nil {
		conjs = st.splitAnd(sel.Where)
	}

	// skipConj is the WHERE-conjunct position consumed by a faulty index
	// probe (CompositeProbePrefixSkip); -1 keeps every conjunct.
	skipConj := -1
	// cover, when non-nil, serves the projection from the chosen index's
	// key columns instead of evaluating projection expressions (cover.go).
	var cover *coverPlan
	// starOrder, when non-nil, maps original relation positions to their
	// permuted indexes so * projection keeps the original column order
	// under a JoinPerm plan; moved marks the ON conjuncts the reorder
	// re-attached at a later step (the JoinPermConjDrop fault's site).
	var starOrder []int
	var moved map[sqlast.Expr]bool
	if len(sel.From) > 0 {
		// PlanSpec join-order forcing: reorder the leading inner-join
		// chain where the permutation is semantically safe; an unsafe
		// permutation is ignored (forcing degrades, never errors).
		from := sel.From
		if perm := s.planSpec.JoinPerm; len(perm) > 0 {
			if m := permPrefixLen(sel); len(perm) <= m {
				from, moved = permutedFrom(from, perm)
				starOrder = st.ints.alloc(len(from))
				for j := range starOrder {
					starOrder[j] = j
				}
				for j, o := range perm {
					starOrder[o] = j
				}
				s.cov.Hit("plan.perm")
			}
		}
		first, err := s.materializeRef(from[0].Ref, outer)
		if err != nil {
			return nil, err
		}
		if len(conjs) > 0 && first.table != nil && indexPlannable(from) && indexOrderSafe(sel) {
			if idxRows, ix, skip, ok := s.planIndexAccess(first.table, first.alias, conjs); ok {
				first.rows = idxRows
				skipConj = skip
				s.cov.Hit("exec.scan.index")
				// Covering projection applies only to a single-table probe:
				// the candidate rows already come from the index's ordered
				// store, so an index-only statement never reads the heap.
				if len(from) == 1 {
					cover = s.coveringPlan(sel, first.alias, first.table, ix)
				}
			}
		}
		rels = st.rels.alloc(len(from))[:1]
		rels[0] = first
		rows = st.jrows.alloc(len(first.rows))
		for i := range first.rows {
			// Slice into the materialized row list: no combined-row
			// storage for a single relation.
			rows[i] = first.rows[i : i+1 : i+1]
		}
		for step, item := range from[1:] {
			right, err := s.materializeRef(item.Ref, outer)
			if err != nil {
				return nil, err
			}
			rels = append(rels, right) // within the capacity of len(from)
			rows, err = s.joinStep(sel, rels, rows, item, step, moved, outer)
			if err != nil {
				return nil, err
			}
		}
	} else {
		rows = st.jrows.alloc(1) // SELECT without FROM: one empty row
	}

	// One scratch environment and evaluation context serve every row of
	// the WHERE and projection loops.
	env, ctx := s.newScratchExec(rels, outer)

	s.cov.HitBranch("where.present", sel.Where != nil)
	// WHERE: the optimized filter path. When the planner chose an index
	// probe, rows already holds only the candidate span, so the filter —
	// and the cost it charges — covers just the rows actually touched.
	// With the CompositeProbePrefixSkip defect active, the conjunct the
	// probe claims to have consumed is excised from the predicate.
	if sel.Where != nil {
		filterConjs := conjs
		if skipConj >= 0 {
			filterConjs = st.exprs.alloc(len(conjs) - 1)
			copy(filterConjs, conjs[:skipConj])
			copy(filterConjs[skipConj:], conjs[skipConj+1:])
		}
		fp := s.buildFilterPlan(filterConjs, env)
		var err *Error
		rows, err = s.filterRows(&fp, rows, env, ctx)
		if err != nil {
			return nil, err
		}
	}

	colNames := s.outputColumns(sel, rels, starOrder, out)

	grouped := len(sel.GroupBy) > 0 || selHasAggregates(sel)
	var outRows [][]Value
	var sortKeys [][]Value
	if grouped {
		var err *Error
		outRows, sortKeys, err = s.execGrouped(sel, rels, rows, outer, out)
		if err != nil {
			return nil, err
		}
	} else if cover != nil {
		outRows, sortKeys = s.coveringProject(cover, rows, out)
	} else {
		// Heap projection. Output rows and sort keys subslice two
		// exactly-sized backing arrays: one allocation each per statement
		// instead of one per row, with every subslice capacity-bounded so
		// an append could never bleed into its neighbor. Without ORDER BY
		// there are no sort keys and sortKeys stays nil.
		width := projWidth(sel, rels)
		n := len(rows)
		klen := len(sel.OrderBy)
		outRows = out.rowList(n)[:0]
		flat := out.values(n * width)
		var kflat []Value
		if klen > 0 {
			sortKeys = st.lists.alloc(n)[:0]
			kflat = st.vals.alloc(n * klen)
		}
		for i, row := range rows {
			env.bindRow(row)
			var kbuf []Value
			if klen > 0 {
				kbuf = kflat[i*klen : (i+1)*klen : (i+1)*klen]
			}
			prow, keys, err := s.projectRow(sel, rels, row, starOrder, ctx, flat[i*width:i*width:(i+1)*width], kbuf)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, prow)
			if klen > 0 {
				sortKeys = append(sortKeys, keys)
			}
		}
	}

	if sel.Distinct {
		s.cov.Hit("exec.distinct")
		// Dedup in place: the frame owns its output list.
		seen := st.sets.take()
		n := 0
		for i, r := range outRows {
			st.key = appendRow(st.key[:0], r)
			_, added := seen.add(st.key)
			s.cov.HitBranch("distinct.dup", !added)
			if added {
				outRows[n] = r
				if sortKeys != nil {
					sortKeys[n] = sortKeys[i]
				}
				n++
			}
		}
		outRows = outRows[:n]
		if sortKeys != nil {
			sortKeys = sortKeys[:n]
		}
	}

	if len(sel.OrderBy) > 0 {
		s.cov.Hit("exec.orderby")
		s.sortRows(outRows, sortKeys, sel.OrderBy)
	}

	if sel.Offset != nil {
		s.cov.Hit("exec.offset")
		off := int(*sel.Offset)
		if off < 0 {
			off = 0
		}
		if off > len(outRows) {
			off = len(outRows)
		}
		outRows = outRows[off:]
	}
	if sel.Limit != nil {
		s.cov.Hit("exec.limit")
		lim := int(*sel.Limit)
		if lim < 0 {
			lim = 0
		}
		if lim < len(outRows) {
			outRows = outRows[:lim]
		}
	}

	res := out.result()
	res.Columns, res.Rows = colNames, outRows
	return res, nil
}

// joinStep combines the accumulated rows with one new relation, the
// last of rels. step is the join-step ordinal (0 joins the second FROM
// item), which the plan spec's per-join forcing keys on. moved marks ON
// conjuncts a JoinPerm reorder re-attached at a later step — the
// JoinPermConjDrop defect loses exactly those.
func (s *DB) joinStep(sel *sqlast.Select, rels []matRel, left []jrow, item sqlast.FromItem, step int, moved map[sqlast.Expr]bool, outer *rowEnv) ([]jrow, *Error) {
	st := &s.st
	lrels, right := rels[:len(rels)-1], rels[len(rels)-1]
	jf := joinFeature(item.Join)
	// Coverage keys are built only when a recorder is attached: the
	// match branch is hit once per candidate pair, and concatenating its
	// key there would allocate per pair even in uninstrumented runs.
	var matchKey string
	if s.cov != nil {
		s.cov.Hit("exec.join." + jf)
		matchKey = "join.match." + jf
	}

	// The ON→WHERE flattener defect degrades an outer join to inner when
	// a WHERE clause is present (paper Listing 3's shape).
	flatten := s.faultSet().JoinFlatten(jf)
	degraded := flatten != nil && sel.Where != nil

	// One scratch environment covers every candidate pair, the ON
	// conjuncts are split once per join step, and combined output rows
	// come from a chunked arena that grows with the output — the loop
	// allocates only for rows it emits, never per candidate pair.
	env, ctx := s.newScratchExec(rels, outer)
	var onConjs []sqlast.Expr
	if item.Join == sqlast.JoinNatural {
		onConjs = s.naturalOn(lrels, right)
	} else if item.On != nil {
		onConjs = st.splitAnd(item.On)
	}
	match := func(lrow jrow, rrow []Value) (bool, *Error) {
		if len(onConjs) == 0 {
			return true, nil
		}
		env.bindRow(lrow)
		env.rels[len(lrow)].vals = rrow
		ok, err := s.evalFilterConjs(onConjs, ctx)
		s.cov.HitBranch(matchKey, ok)
		return ok, err
	}

	// NULL-extension rows exist only for outer joins. They are immutable,
	// so every NULL-extended output row of a step shares the same backing
	// slices.
	arena := jrowArena{src: &st.lists}
	var rightNull []Value
	var leftNull jrow
	if item.Join == sqlast.JoinLeft || item.Join == sqlast.JoinFull {
		rightNull = st.nullRow(len(right.cols))
	}
	if item.Join == sqlast.JoinRight || item.Join == sqlast.JoinFull {
		leftNull = st.lists.alloc(len(lrels))
		for i := range lrels {
			leftNull[i] = st.nullRow(len(lrels[i].cols))
		}
	}

	// emit appends a combined row to the step's output list, which grows
	// in the scratch.
	var out []jrow
	emit := func(lrow jrow, rrow []Value) {
		out = append(st.jrows.grow(out), arena.row(lrow, rrow))
	}
	switch item.Join {
	case sqlast.JoinComma, sqlast.JoinCross, sqlast.JoinInner, sqlast.JoinNatural:
		// The join-reorderer conjunct-drop defect loses the ON conjuncts
		// a permutation relocated past their original step: the step
		// evaluates only the conjuncts that stayed put, so candidate
		// pairs a relocated conjunct would have rejected leak through.
		// It can fire only under a non-identity JoinPerm plan — the auto
		// plan relocates nothing — which makes it observable exactly to
		// a plan-diffing oracle.
		dropFault := s.faultSet().PermConjDrop()
		var kept, dropped []sqlast.Expr
		if dropFault != nil && len(moved) > 0 {
			for _, c := range onConjs {
				if moved[c] {
					dropped = append(dropped, c)
				} else {
					kept = append(kept, c)
				}
			}
		}
		if len(dropped) == 0 {
			dropFault = nil
			if probe, ok := s.planJoinProbe(sel, lrels, right, onConjs, step); ok {
				return s.joinProbeStep(&probe, left, matchKey, env, ctx, onConjs, &arena)
			}
		}
		for _, lrow := range left {
			for _, rrow := range right.rows {
				if dropFault != nil {
					env.bindRow(lrow)
					env.rels[len(lrow)].vals = rrow
					ok, err := s.evalFilterConjs(kept, ctx)
					if err != nil {
						return nil, err
					}
					if ok {
						// The defect emits the row; trigger only when a
						// dropped conjunct would have rejected it, so the
						// ground truth marks observable divergence.
						if s.permDropRejects(ctx, dropped) {
							s.trigger(dropFault)
						}
						emit(lrow, rrow)
					}
					if cerr := s.chargeRow(); cerr != nil {
						return nil, cerr
					}
					continue
				}
				ok, err := match(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					emit(lrow, rrow)
				}
				if cerr := s.chargeRow(); cerr != nil {
					return nil, cerr
				}
			}
		}
	case sqlast.JoinLeft, sqlast.JoinFull:
		matchedRight := st.bools.alloc(len(right.rows))
		for _, lrow := range left {
			any := false
			for ri, rrow := range right.rows {
				ok, err := match(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					any = true
					matchedRight[ri] = true
					emit(lrow, rrow)
				}
				if cerr := s.chargeRow(); cerr != nil {
					return nil, cerr
				}
			}
			if !any {
				if degraded {
					s.trigger(flatten)
					continue
				}
				emit(lrow, rightNull)
			}
		}
		if item.Join == sqlast.JoinFull {
			for ri, rrow := range right.rows {
				if matchedRight[ri] {
					continue
				}
				if degraded {
					s.trigger(flatten)
					continue
				}
				emit(leftNull, rrow)
			}
		}
	case sqlast.JoinRight:
		for _, rrow := range right.rows {
			any := false
			for _, lrow := range left {
				ok, err := match(lrow, rrow)
				if err != nil {
					return nil, err
				}
				if ok {
					any = true
					emit(lrow, rrow)
				}
				if cerr := s.chargeRow(); cerr != nil {
					return nil, cerr
				}
			}
			if !any {
				if degraded {
					s.trigger(flatten)
					continue
				}
				emit(leftNull, rrow)
			}
		}
	default:
		return nil, errf(ErrSemantic, "unhandled join type")
	}
	return out, nil
}

// joinProbeStep runs one inner-like join step as an index-nested-loop:
// per left row, the composite probe key is evaluated once and
// binary-searched in the index's ordered store; only the candidate span
// is re-checked against the full ON condition (fault hooks included), so
// with faults disabled the output multiset is identical to the quadratic
// loop while the cost charges only the rows actually probed.
//
// The JoinIndexResidual defect skips the re-check: it treats the probe's
// equality key as covering the entire ON condition, emitting every span
// candidate — extra join rows appear whenever a residual conjunct would
// have rejected a probed pair. Because the plan (and thus the defect) is
// a function of FROM/ON alone, every query of a TLP or NoREC case sees
// the same extra rows; only a plan-diffing oracle can observe them.
//
// matchKey is the step's "join.match.<join>" coverage key, empty when no
// recorder is attached.
func (s *DB) joinProbeStep(probe *joinProbe, left []jrow, matchKey string,
	env *rowEnv, ctx *evalCtx, onConjs []sqlast.Expr, arena *jrowArena) ([]jrow, *Error) {
	s.cov.Hit("exec.join.probe")
	// The probe-step panic fault kills the process mid-SELECT — a
	// read-only path, so a recovered instance is consistent. Triggered
	// first: the recovered ClassHarness report needs the ground truth.
	if f := s.faultSet().PanicProbe(); f != nil {
		s.trigger(f)
		panic("engine: join probe dereferenced a detached index entry")
	}
	residual := s.faultSet().JoinResidual()
	if residual != nil && len(onConjs) <= len(probe.conjIdx) {
		residual = nil // the probe key is the entire ON: no defect
	}
	var out []jrow
	rslot := len(env.rels) - 1
	// One key buffer serves every left row.
	key := s.st.vals.alloc(len(probe.leftExprs))
	for _, lrow := range left {
		env.bindRow(lrow)
		for i, le := range probe.leftExprs {
			v, err := ctx.eval(le)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		lo, hi := probe.ix.eqSpan(key)
		for _, rrow := range probe.ix.entries[lo:hi] {
			env.rels[rslot].vals = rrow
			if residual != nil {
				if s.joinResidualRejects(ctx, onConjs, probe) {
					s.trigger(residual)
				}
				out = append(s.st.jrows.grow(out), arena.row(lrow, rrow))
				if cerr := s.chargeRow(); cerr != nil {
					return nil, cerr
				}
				continue
			}
			ok, err := s.evalFilterConjs(onConjs, ctx)
			s.cov.HitBranch(matchKey, ok)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(s.st.jrows.grow(out), arena.row(lrow, rrow))
			}
			if cerr := s.chargeRow(); cerr != nil {
				return nil, cerr
			}
		}
	}
	return out, nil
}

// naturalEq is one synthesized NATURAL JOIN conjunct, its nodes in one
// scratch element.
type naturalEq struct {
	eq   sqlast.Binary
	l, r sqlast.ColumnRef
}

// naturalOn synthesizes the NATURAL JOIN condition as its conjuncts:
// equality on every column name the new relation shares with an earlier
// relation, in the scratch. No shared column means no condition.
func (s *DB) naturalOn(rels []matRel, right matRel) []sqlast.Expr {
	var conjs []sqlast.Expr
	for _, rc := range right.cols {
		for _, rel := range rels {
			shared := false
			for _, lc := range rel.cols {
				if strings.EqualFold(lc, rc) {
					shared = true
					break
				}
			}
			if !shared {
				continue
			}
			n := &s.st.naturals.alloc(1)[0]
			n.l = sqlast.ColumnRef{Table: rel.alias, Column: rc}
			n.r = sqlast.ColumnRef{Table: right.alias, Column: rc}
			n.eq = sqlast.Binary{Op: sqlast.OpEq, L: &n.l, R: &n.r}
			conjs = append(s.st.exprs.grow(conjs), &n.eq)
			break
		}
	}
	return conjs
}

// permDropRejects reports whether any relocated-then-dropped ON
// conjunct would have rejected the candidate pair ctx is bound to — the
// ground-truth observability check of JoinPermConjDrop. Evaluation cost
// is excluded: the check is bookkeeping, not execution.
func (s *DB) permDropRejects(ctx *evalCtx, dropped []sqlast.Expr) bool {
	saved := s.cost
	defer func() { s.cost = saved }()
	for _, c := range dropped {
		t, err := ctx.evalTri(c)
		if err != nil || t != TriTrue {
			return true
		}
	}
	return false
}

// outputColumns computes the result column names into out (see
// execSelectEnv). starOrder, when non-nil, restores * expansion to the
// original relation order under a permuted join plan.
func (s *DB) outputColumns(sel *sqlast.Select, rels []matRel, starOrder []int, out *stmtScratch) []string {
	names := out.names(projWidth(sel, rels))[:0]
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			if starOrder != nil {
				for _, ri := range starOrder {
					names = append(names, rels[ri].cols...)
				}
				continue
			}
			for _, rel := range rels {
				names = append(names, rel.cols...)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = autoColName(len(names) + 1)
			}
		}
		names = append(names, name)
	}
	return names
}

// projWidth computes the output width of a projection (stars expand to
// every visible column), so row buffers can be sized exactly once per
// statement.
func projWidth(sel *sqlast.Select, rels []matRel) int {
	w := 0
	for i := range sel.Items {
		if sel.Items[i].Star {
			for _, rel := range rels {
				w += len(rel.cols)
			}
			continue
		}
		w++
	}
	return w
}

// projectRow evaluates the projections and ORDER BY keys for one row.
// ctx is the statement's reused evaluation context, already bound to the
// row. out is an empty, capacity-bounded projection buffer; keys is a
// full-length ORDER BY key buffer (nil when the statement has none) —
// both are caller-provided slices of per-statement backing arrays.
func (s *DB) projectRow(sel *sqlast.Select, rels []matRel, row jrow, starOrder []int, ctx *evalCtx, out, keys []Value) ([]Value, []Value, *Error) {
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			if starOrder != nil {
				for _, ri := range starOrder {
					out = append(out, row[ri]...)
				}
				continue
			}
			for ri := range rels {
				out = append(out, row[ri]...)
			}
			continue
		}
		v, err := ctx.eval(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, v)
	}
	for i := range sel.OrderBy {
		v, err := ctx.eval(sel.OrderBy[i].Expr)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = v
	}
	return out, keys, nil
}

// orderKeys evaluates the ORDER BY expressions in ctx, into the
// scratch.
func (s *DB) orderKeys(sel *sqlast.Select, ctx *evalCtx) ([]Value, *Error) {
	if len(sel.OrderBy) == 0 {
		return nil, nil
	}
	keys := s.st.vals.alloc(len(sel.OrderBy))
	for i := range sel.OrderBy {
		v, err := ctx.eval(sel.OrderBy[i].Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// renderRow builds the canonical dedup/compare key of a row.
func renderRow(row []Value) string {
	var buf [64]byte
	return string(appendRow(buf[:0], row))
}

// sortRows orders output rows by their sort keys (stable; NULLs first).
func (s *DB) sortRows(rows [][]Value, keys [][]Value, order []sqlast.OrderItem) {
	idx := s.st.ints.alloc(len(rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ka, kb := keys[a], keys[b]
		for i := range order {
			c := compareForSort(ka[i], kb[i])
			if c == 0 {
				continue
			}
			if order[i].Desc == (c > 0) {
				return -1
			}
			return 1
		}
		return 0
	})
	sorted := s.st.lists.alloc(len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	copy(rows, sorted)
}

// compareForSort orders values with NULLs first.
func compareForSort(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	default:
		return Compare(a, b)
	}
}

// selHasAggregates reports whether the projection, HAVING, or ORDER BY
// contains aggregate calls.
func selHasAggregates(sel *sqlast.Select) bool {
	for i := range sel.Items {
		if sel.Items[i].Expr != nil && hasAggregate(sel.Items[i].Expr) {
			return true
		}
	}
	if sel.Having != nil && hasAggregate(sel.Having) {
		return true
	}
	for _, o := range sel.OrderBy {
		if hasAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// execGrouped executes the GROUP BY / aggregate path, building its
// output rows into out (see execSelectEnv). Every member row gets an
// environment of its own, since aggregates read the whole group; those
// environments, the group table and the keys live in the scratch.
func (s *DB) execGrouped(sel *sqlast.Select, rels []matRel, rows []jrow, outer *rowEnv, out *stmtScratch) ([][]Value, [][]Value, *Error) {
	s.cov.Hit("exec.groupby")
	st := &s.st
	envs := st.envs.alloc(len(rows))
	slots := st.rowRels.alloc(len(rows) * len(rels))
	for i, row := range rows {
		env := &envs[i]
		env.outer = outer
		env.rels = slots[i*len(rels) : (i+1)*len(rels) : (i+1)*len(rels)]
		for j := range rels {
			env.rels[j] = rowRel{alias: rels[j].alias, cols: rels[j].cols, vals: row[j]}
		}
	}

	// Number the groups in order of first appearance: gid[i] is row i's
	// group. Without GROUP BY every row is in group 0.
	gid := st.ints.alloc(len(rows))
	groups := 0
	if len(sel.GroupBy) > 0 {
		table := st.sets.take()
		kctx := s.scratchCtx(nil)
		kvals := st.vals.alloc(len(sel.GroupBy))
		for i := range rows {
			kctx.env = &envs[i]
			for gi, g := range sel.GroupBy {
				v, err := kctx.eval(g)
				if err != nil {
					return nil, nil, err
				}
				kvals[gi] = v
			}
			st.key = appendRow(st.key[:0], kvals)
			gid[i], _ = table.add(st.key)
		}
		groups = table.len()
	} else {
		// A global aggregate has one group, even over zero rows.
		groups = 1
	}

	// Lay the members out group by group, each group's rows in row order.
	start := st.ints.alloc(groups + 1)
	for _, g := range gid {
		start[g+1]++
	}
	for g := 1; g <= groups; g++ {
		start[g] += start[g-1]
	}
	members := st.members.alloc(len(rows))
	fill := st.ints.alloc(groups)
	copy(fill, start)
	for i, g := range gid {
		members[fill[g]] = &envs[i]
		fill[g]++
	}

	outRows := out.rowList(groups)[:0]
	var sortKeys [][]Value
	if len(sel.OrderBy) > 0 {
		sortKeys = st.lists.alloc(groups)[:0]
	}
	ctx := s.scratchCtx(nil)
	for g := 0; g < groups; g++ {
		group := members[start[g]:start[g+1]:start[g+1]]
		var rep *rowEnv
		if len(group) > 0 {
			rep = group[0]
		} else {
			// Only the global aggregate over zero rows has an empty
			// group; its representative row is all NULL.
			rep = &st.envs.alloc(1)[0]
			rep.outer = outer
			rep.rels = st.rowRels.alloc(len(rels))
			for i := range rels {
				rep.rels[i] = rowRel{alias: rels[i].alias, cols: rels[i].cols, vals: st.nullRow(len(rels[i].cols))}
			}
		}
		ctx.env = rep
		ctx.group = group // never nil: an empty group is still an aggregate context
		if sel.Having != nil {
			t, err := ctx.evalTri(sel.Having)
			if err != nil {
				return nil, nil, err
			}
			if t != TriTrue {
				continue
			}
		}
		row := out.values(len(sel.Items))
		for i := range sel.Items {
			item := &sel.Items[i]
			if item.Star {
				return nil, nil, errf(ErrSemantic, "SELECT * is not valid with GROUP BY")
			}
			v, err := ctx.eval(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		keys, err := s.orderKeys(sel, ctx)
		if err != nil {
			return nil, nil, err
		}
		outRows = append(outRows, row)
		if sortKeys != nil {
			sortKeys = append(sortKeys, keys)
		}
	}
	return outRows, sortKeys, nil
}
