package engine

import (
	"sort"
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

// buildEnv exposes a combined row to the evaluator. It allocates a fresh
// environment and is reserved for rows that must be retained (the grouped
// path keeps one environment per group member); transient per-row
// evaluation uses a scratch environment instead.
func buildEnv(rels []matRel, row jrow, outer *rowEnv) *rowEnv {
	env := &rowEnv{outer: outer, rels: make([]rowRel, len(rels))}
	for i := range rels {
		env.rels[i] = rowRel{alias: rels[i].alias, cols: rels[i].cols, vals: row[i]}
	}
	return env
}

// newScratchEnv builds a reusable environment over a fixed relation list.
// Callers point it at successive rows with bindRow, so a statement that
// scans a million rows allocates one environment, not a million.
func newScratchEnv(rels []matRel, outer *rowEnv) *rowEnv {
	env := &rowEnv{outer: outer, rels: make([]rowRel, len(rels))}
	for i := range rels {
		env.rels[i] = rowRel{alias: rels[i].alias, cols: rels[i].cols}
	}
	return env
}

// scratchExec bundles the per-statement scratch environment, its
// relation slots, and the evaluation context into one allocation; all
// three live exactly as long as one statement execution, and the
// execution hot paths build them in lockstep.
type scratchExec struct {
	env  rowEnv
	ctx  evalCtx
	rels [4]rowRel
}

// newScratchExec is newScratchEnv plus newEvalCtx fused into a single
// allocation (the inline relation array covers every generated query
// shape; wider joins fall back to a heap slice).
func (s *DB) newScratchExec(rels []matRel, outer *rowEnv) (*rowEnv, *evalCtx) {
	sc := &scratchExec{}
	sc.env.outer = outer
	if len(rels) <= len(sc.rels) {
		sc.env.rels = sc.rels[:len(rels)]
	} else {
		sc.env.rels = make([]rowRel, len(rels))
	}
	for i := range rels {
		sc.env.rels[i] = rowRel{alias: rels[i].alias, cols: rels[i].cols}
	}
	sc.ctx = evalCtx{
		s:   s,
		env: &sc.env,
		dialect: dialectFlags{
			DivZeroError:    s.dialect.DivZeroError,
			CastTextError:   s.dialect.CastTextError,
			MathDomainError: s.dialect.MathDomainError,
		},
	}
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
type jrowArena struct {
	buf  [][]Value
	next int // slots in the next chunk; 0 before the first
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
		a.buf = make([][]Value, max(size, n))
	}
	out := a.buf[:n:n]
	a.buf = a.buf[n:]
	copy(out, lrow)
	out[n-1] = rrow
	return out
}

func nullRow(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Null()
	}
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
			res, err := s.execSelectEnv(v.Def, nil)
			if err != nil {
				return matRel{}, err
			}
			return matRel{alias: r.RefName(), cols: v.Columns, rows: res.Rows}, nil
		}
		return matRel{}, errf(ErrSemantic, "no such table or view %q", r.Name)
	case *sqlast.DerivedTable:
		s.cov.Hit("exec.scan.derived")
		res, err := s.execSelectEnv(r.Select, outer)
		if err != nil {
			return matRel{}, err
		}
		return matRel{alias: r.Alias, cols: res.Columns, rows: res.Rows}, nil
	default:
		return matRel{}, errf(ErrSemantic, "unhandled table reference")
	}
}

// execSelectEnv executes a SELECT with an optional outer environment for
// correlated subqueries. Errors use the engine's *Error type.
func (s *DB) execSelectEnv(sel *sqlast.Select, outer *rowEnv) (*Result, *Error) {
	if len(sel.Compound) > 0 {
		return s.execCompound(sel, outer)
	}
	s.cov.Hit("exec.select")
	var rels []matRel
	var rows []jrow
	// Filter conjuncts are split once per statement; the access-path
	// planner and the WHERE loop share them.
	var conjs []sqlast.Expr
	if sel.Where != nil {
		conjs = splitAnd(sel.Where, nil)
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
				starOrder = make([]int, len(from))
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
		rels = []matRel{first}
		rows = make([]jrow, len(first.rows))
		for i := range first.rows {
			// Slice into the materialized row list: one allocation for the
			// whole scan instead of one jrow header per row.
			rows[i] = first.rows[i : i+1 : i+1]
		}
		for step, item := range from[1:] {
			right, err := s.materializeRef(item.Ref, outer)
			if err != nil {
				return nil, err
			}
			rows, err = s.joinStep(sel, rels, rows, right, item, step, moved, outer)
			if err != nil {
				return nil, err
			}
			rels = append(rels, right)
		}
	} else {
		rows = []jrow{{}} // SELECT without FROM: one empty row
	}

	// One scratch environment and evaluation context serve every row of
	// the WHERE and projection loops.
	env, ctx := s.newScratchExec(rels, outer)

	s.cov.HitBranch("where.present", sel.Where != nil)
	// WHERE: the optimized filter path. When the planner chose an index
	// probe, rows already holds only the candidate span, so the filter —
	// and the cost it charges — covers just the rows actually touched.
	// With the CompositeProbePrefixSkip defect active, the conjunct the
	// probe claims to have consumed is excised from the predicate. The
	// filter itself runs batch-at-a-time over column vectors (batch.go),
	// observationally identical to row-at-a-time at every batch size.
	if sel.Where != nil {
		filterConjs := conjs
		if skipConj >= 0 {
			filterConjs = append(conjs[:skipConj:skipConj], conjs[skipConj+1:]...)
		}
		fp := s.buildFilterPlan(filterConjs, rels)
		var err *Error
		rows, err = s.filterSelectRows(&fp, rows, env, ctx)
		if err != nil {
			return nil, err
		}
	}

	colNames := s.outputColumns(sel, rels, starOrder)

	grouped := len(sel.GroupBy) > 0 || selHasAggregates(sel)
	var outRows [][]Value
	var sortKeys [][]Value
	if grouped {
		var err *Error
		outRows, sortKeys, err = s.execGrouped(sel, rels, rows, outer)
		if err != nil {
			return nil, err
		}
	} else if cover != nil {
		outRows, sortKeys = s.coveringProject(cover, rows)
	} else {
		// Heap projection. Output rows and sort keys subslice two
		// exactly-sized backing arrays: one allocation each per statement
		// instead of one per row, with every subslice capacity-bounded so
		// an append could never bleed into its neighbor. Without ORDER BY
		// there are no sort keys and sortKeys stays nil.
		width := projWidth(sel, rels)
		n := len(rows)
		klen := len(sel.OrderBy)
		outRows = make([][]Value, 0, n)
		flat := make([]Value, n*width)
		var kflat []Value
		if klen > 0 {
			sortKeys = make([][]Value, 0, n)
			kflat = make([]Value, n*klen)
		}
		for i, row := range rows {
			env.bindRow(row)
			var kbuf []Value
			if klen > 0 {
				kbuf = kflat[i*klen : (i+1)*klen : (i+1)*klen]
			}
			out, keys, err := s.projectRow(sel, rels, row, starOrder, ctx, flat[i*width:i*width:(i+1)*width], kbuf)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, out)
			if klen > 0 {
				sortKeys = append(sortKeys, keys)
			}
		}
	}

	if sel.Distinct {
		s.cov.Hit("exec.distinct")
		seen := map[string]bool{}
		var dr [][]Value
		var dk [][]Value
		for i, r := range outRows {
			k := renderRow(r)
			s.cov.HitBranch("distinct.dup", seen[k])
			if !seen[k] {
				seen[k] = true
				dr = append(dr, r)
				if sortKeys != nil {
					dk = append(dk, sortKeys[i])
				}
			}
		}
		outRows, sortKeys = dr, dk
	}

	if len(sel.OrderBy) > 0 {
		s.cov.Hit("exec.orderby")
		sortRows(outRows, sortKeys, sel.OrderBy)
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

	return &Result{Columns: colNames, Rows: outRows}, nil
}

// joinStep combines the accumulated rows with one new relation. step is
// the join-step ordinal (0 joins the second FROM item), which the plan
// spec's per-join forcing keys on. moved marks ON conjuncts a JoinPerm
// reorder re-attached at a later step — the JoinPermConjDrop defect
// loses exactly those.
func (s *DB) joinStep(sel *sqlast.Select, rels []matRel, left []jrow, right matRel, item sqlast.FromItem, step int, moved map[sqlast.Expr]bool, outer *rowEnv) ([]jrow, *Error) {
	jf := joinFeature(item.Join)
	// Coverage keys are built only when a recorder is attached: the
	// match branch is hit once per candidate pair, and concatenating its
	// key there would allocate per pair even in uninstrumented runs.
	var matchKey string
	if s.cov != nil {
		s.cov.Hit("exec.join." + jf)
		matchKey = "join.match." + jf
	}

	on := item.On
	if item.Join == sqlast.JoinNatural {
		on = naturalOn(rels, right)
	}

	// The ON→WHERE flattener defect degrades an outer join to inner when
	// a WHERE clause is present (paper Listing 3's shape).
	flatten := s.faultSet().JoinFlatten(jf)
	degraded := flatten != nil && sel.Where != nil

	// One scratch environment covers every candidate pair, the ON
	// conjuncts are split once per join step, and combined output rows
	// come from a chunked arena that grows with the output — the loop
	// allocates only for rows it emits, never per candidate pair.
	jrels := make([]matRel, len(rels)+1)
	copy(jrels, rels)
	jrels[len(rels)] = right
	env, ctx := s.newScratchExec(jrels, outer)
	var onConjs []sqlast.Expr
	if on != nil {
		onConjs = splitAnd(on, nil)
	}
	match := func(lrow jrow, rrow []Value) (bool, *Error) {
		if on == nil {
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
	var arena jrowArena
	var rightNull []Value
	var leftNull jrow
	if item.Join == sqlast.JoinLeft || item.Join == sqlast.JoinFull {
		rightNull = nullRow(len(right.cols))
	}
	if item.Join == sqlast.JoinRight || item.Join == sqlast.JoinFull {
		leftNull = make(jrow, len(rels))
		for i := range rels {
			leftNull[i] = nullRow(len(rels[i].cols))
		}
	}

	var out []jrow
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
			if probe := s.planJoinProbe(sel, rels, right, onConjs, step); probe != nil {
				return s.joinProbeStep(probe, left, matchKey, env, ctx, onConjs, &arena)
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
						out = append(out, arena.row(lrow, rrow))
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
					out = append(out, arena.row(lrow, rrow))
				}
				if cerr := s.chargeRow(); cerr != nil {
					return nil, cerr
				}
			}
		}
	case sqlast.JoinLeft, sqlast.JoinFull:
		matchedRight := make([]bool, len(right.rows))
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
					out = append(out, arena.row(lrow, rrow))
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
				out = append(out, arena.row(lrow, rightNull))
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
				out = append(out, arena.row(leftNull, rrow))
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
					out = append(out, arena.row(lrow, rrow))
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
				out = append(out, arena.row(leftNull, rrow))
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
	key := make([]Value, len(probe.leftExprs))
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
				out = append(out, arena.row(lrow, rrow))
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
				out = append(out, arena.row(lrow, rrow))
			}
			if cerr := s.chargeRow(); cerr != nil {
				return nil, cerr
			}
		}
	}
	return out, nil
}

// naturalOn synthesizes the NATURAL JOIN condition: equality on every
// column name the new relation shares with an earlier relation.
func naturalOn(rels []matRel, right matRel) sqlast.Expr {
	var on sqlast.Expr
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
			eq := &sqlast.Binary{
				Op: sqlast.OpEq,
				L:  &sqlast.ColumnRef{Table: rel.alias, Column: rc},
				R:  &sqlast.ColumnRef{Table: right.alias, Column: rc},
			}
			if on == nil {
				on = eq
			} else {
				on = &sqlast.Binary{Op: sqlast.OpAnd, L: on, R: eq}
			}
			break
		}
	}
	return on
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

// outputColumns computes the result column names. starOrder, when
// non-nil, restores * expansion to the original relation order under a
// permuted join plan.
func (s *DB) outputColumns(sel *sqlast.Select, rels []matRel, starOrder []int) []string {
	var out []string
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			if starOrder != nil {
				for _, ri := range starOrder {
					out = append(out, rels[ri].cols...)
				}
				continue
			}
			for _, rel := range rels {
				out = append(out, rel.cols...)
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = "col" + itoa(len(out)+1)
			}
		}
		out = append(out, name)
	}
	return out
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

// orderKeys evaluates the ORDER BY expressions in ctx.
func (s *DB) orderKeys(sel *sqlast.Select, ctx *evalCtx) ([]Value, *Error) {
	if len(sel.OrderBy) == 0 {
		return nil, nil
	}
	keys := make([]Value, len(sel.OrderBy))
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
	var sb strings.Builder
	for i, v := range row {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(v.Render())
	}
	return sb.String()
}

// sortRows orders output rows by their sort keys (stable; NULLs first).
func sortRows(rows [][]Value, keys [][]Value, order []sqlast.OrderItem) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range order {
			va, vb := ka[i], kb[i]
			c := compareForSort(va, vb)
			if c == 0 {
				continue
			}
			if order[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	outR := make([][]Value, len(rows))
	for i, j := range idx {
		outR[i] = rows[j]
	}
	copy(rows, outR)
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

// execGrouped executes the GROUP BY / aggregate path.
func (s *DB) execGrouped(sel *sqlast.Select, rels []matRel, rows []jrow, outer *rowEnv) ([][]Value, [][]Value, *Error) {
	s.cov.Hit("exec.groupby")
	type group struct {
		envs []*rowEnv
	}
	var order []string
	groups := map[string]*group{}
	kctx := s.newEvalCtx(nil)
	var keyb strings.Builder
	for _, row := range rows {
		env := buildEnv(rels, row, outer)
		key := ""
		if len(sel.GroupBy) > 0 {
			kctx.env = env
			keyb.Reset()
			for gi, g := range sel.GroupBy {
				v, err := kctx.eval(g)
				if err != nil {
					return nil, nil, err
				}
				if gi > 0 {
					keyb.WriteByte('|')
				}
				keyb.WriteString(v.Render())
			}
			key = keyb.String()
		}
		gr := groups[key]
		if gr == nil {
			gr = &group{}
			groups[key] = gr
			order = append(order, key)
		}
		gr.envs = append(gr.envs, env)
	}
	// A global aggregate over zero rows still produces one group.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	var outRows [][]Value
	var sortKeys [][]Value
	ctx := s.newEvalCtx(nil)
	for _, key := range order {
		gr := groups[key]
		var rep *rowEnv
		if len(gr.envs) > 0 {
			rep = gr.envs[0]
		} else {
			// Only the global aggregate over zero rows has an empty
			// group; its representative row is all NULL.
			r := make(jrow, len(rels))
			for i := range rels {
				r[i] = nullRow(len(rels[i].cols))
			}
			rep = buildEnv(rels, r, outer)
		}
		ctx.env = rep
		ctx.group = gr.envs
		if ctx.group == nil {
			ctx.group = []*rowEnv{} // empty group, still an aggregate context
		}
		if sel.Having != nil {
			t, err := ctx.evalTri(sel.Having)
			if err != nil {
				return nil, nil, err
			}
			if t != TriTrue {
				continue
			}
		}
		var out []Value
		for i := range sel.Items {
			item := &sel.Items[i]
			if item.Star {
				return nil, nil, errf(ErrSemantic, "SELECT * is not valid with GROUP BY")
			}
			v, err := ctx.eval(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, v)
		}
		keys, err := s.orderKeys(sel, ctx)
		if err != nil {
			return nil, nil, err
		}
		outRows = append(outRows, out)
		sortKeys = append(sortKeys, keys)
	}
	return outRows, sortKeys, nil
}
