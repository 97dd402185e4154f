package engine

import (
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/sqlast"
)

// This file implements the engine's *optimized* filter path: the
// evaluation of WHERE and ON predicates after the optimizer has split
// them into top-level conjuncts. Real DBMSs special-case these filter
// roots (rewrites, index probes, constant folding), and that is where the
// injected logic faults live. The reference path (projection evaluation,
// and every sub-expression below a filter root) is always clean — which
// is precisely why the TLP and NoREC oracles can observe the defects.

// splitAnd flattens a conjunction into its top-level conjuncts. A nil
// out is pre-sized to the exact conjunct count: the split runs on every
// execution of every filtered statement, and the append-growth
// reallocations it would otherwise pay are pure per-execution overhead.
func splitAnd(e sqlast.Expr, out []sqlast.Expr) []sqlast.Expr {
	if out == nil {
		out = make([]sqlast.Expr, 0, countConjs(e))
	}
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		out = splitAnd(b.L, out)
		return splitAnd(b.R, out)
	}
	return append(out, e)
}

func countConjs(e sqlast.Expr) int {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == sqlast.OpAnd {
		return countConjs(b.L) + countConjs(b.R)
	}
	return 1
}

// filterPlan is one WHERE predicate prepared for the row loop: its
// top-level conjuncts, with every `column op literal` conjunct's column
// resolved once per statement instead of once per row.
type filterPlan struct {
	conjs []sqlast.Expr
	// cmps[i] is conjunct i's resolved comparison, or a zero entry when
	// the conjunct evaluates through evalFilterRoot; nil when no
	// conjunct resolves.
	cmps []resolvedCmp
	// clean is true when no fault set is armed: a comparison root then
	// evaluates through evalBinary, otherwise through
	// evalFaultyComparison, and the two charge differently.
	clean bool
}

// resolvedCmp is a WHERE conjunct comparing a bare column of the
// statement's own relations with a literal through a plain comparison
// operator, its column resolved to a (relation, column) slot. The row
// loop reads the slot directly and charges exactly what evalFilterRoot
// charges for the same conjunct.
type resolvedCmp struct {
	ok        bool
	rel, col  int
	op        sqlast.BinaryOp
	lit       Value
	colOnLeft bool
}

// buildFilterPlan resolves the predicate's conjuncts against env's own
// relations (the statement's FROM list, outer scopes excluded).
func (s *DB) buildFilterPlan(conjs []sqlast.Expr, env *rowEnv) filterPlan {
	fs := s.faultSet()
	p := filterPlan{conjs: conjs, clean: fs == nil}
	for ci, e := range conjs {
		rc, ok := resolveCmp(e, env, fs)
		if !ok {
			continue
		}
		if p.cmps == nil {
			p.cmps = s.st.cmps.alloc(len(conjs))
		}
		p.cmps[ci] = rc
	}
	return p
}

// resolveCmp recognizes `column op literal` and `literal op column`
// with a plain comparison operator whose column resolves in env's own
// scope; an outer-scope reference stays with the scalar path, which
// walks enclosing environments. With faults armed, an operator carrying
// a comparison-root fault (CmpNullTrue, CmpNullEqTrue, CmpMixedText)
// never resolves: those defects live in evalFaultyComparison. No other
// comparison-root fault can fire on a column-literal comparison.
func resolveCmp(e sqlast.Expr, env *rowEnv, fs *faults.Set) (resolvedCmp, bool) {
	b, ok := e.(*sqlast.Binary)
	if !ok {
		return resolvedCmp{}, false
	}
	switch b.Op {
	case sqlast.OpEq, sqlast.OpNeq, sqlast.OpNeq2,
		sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
	default:
		return resolvedCmp{}, false
	}
	ref, lref := b.L.(*sqlast.ColumnRef)
	lit, rlit := b.R.(*sqlast.Literal)
	colOnLeft := lref && rlit
	if !colOnLeft {
		var rref, llit bool
		ref, rref = b.R.(*sqlast.ColumnRef)
		lit, llit = b.L.(*sqlast.Literal)
		if !rref || !llit {
			return resolvedCmp{}, false
		}
	}
	ri, ci, found := env.resolve(ref.Table, ref.Column)
	if !found {
		return resolvedCmp{}, false
	}
	if fs != nil {
		op := b.Op.String()
		if fs.CmpNullTrue(op) != nil || fs.CmpNullEq(op) != nil || fs.CmpMixed(op) != nil {
			return resolvedCmp{}, false
		}
	}
	return resolvedCmp{ok: true, rel: ri, col: ci, op: b.Op, lit: litValue(lit), colOnLeft: colOnLeft}, true
}

// eval compares the bound row's column with the literal. Clean, it
// charges what eval charges a comparison of two leaves (one unit per
// node) and records the comparison's coverage through compareNode, as
// evalBinary does; with faults armed it charges what
// evalFaultyComparison does, the two leaves and no coverage.
func (rc *resolvedCmp) eval(ctx *evalCtx, clean bool) Tri {
	l, r := ctx.env.rels[rc.rel].vals[rc.col], rc.lit
	if !rc.colOnLeft {
		l, r = r, l
	}
	if !clean {
		ctx.s.cost += 2
		return compareValues(rc.op, l, r)
	}
	ctx.s.cost += 3
	return ctx.compareNode(rc.op, l, r)
}

// filterRow decides the WHERE for the row bound in ctx's environment:
// the row is kept when every conjunct is TRUE. Conjuncts run in order
// and each runs to completion, so cost, coverage, errors and fault
// triggers are those of evalFilterConjs on the same row.
func (s *DB) filterRow(p *filterPlan, ctx *evalCtx) (bool, *Error) {
	if s.filterProbe != nil {
		return s.filterProbe(*p, ctx)
	}
	return s.evalFilterPlan(p, ctx)
}

func (s *DB) evalFilterPlan(p *filterPlan, ctx *evalCtx) (bool, *Error) {
	s.cov.Hit("filter.eval")
	keep := true
	for ci, e := range p.conjs {
		var t Tri
		if p.cmps != nil && p.cmps[ci].ok {
			t = p.cmps[ci].eval(ctx, p.clean)
		} else {
			var err *Error
			if t, err = s.evalFilterRoot(e, ctx); err != nil {
				return false, err
			}
		}
		if t != TriTrue {
			keep = false
		}
	}
	s.cov.HitBranch("filter.keep", keep)
	return keep, nil
}

// filterRows runs a SELECT's WHERE over its candidate rows and returns
// the rows kept, compacted in place: the statement owns the list. Each
// row is charged after its verdict, so an evaluation error outranks
// budget exhaustion on the same row.
func (s *DB) filterRows(p *filterPlan, rows []jrow, env *rowEnv, ctx *evalCtx) ([]jrow, *Error) {
	kept := rows[:0]
	for _, row := range rows {
		env.bindRow(row)
		keep, err := s.filterRow(p, ctx)
		if err != nil {
			return nil, err
		}
		if keep {
			kept = append(kept, row)
		}
		if cerr := s.chargeRow(); cerr != nil {
			return nil, cerr
		}
	}
	return kept, nil
}

// dmlWhere runs an UPDATE or DELETE's WHERE on the target-table row
// bound in env. The row is charged before an evaluation error surfaces:
// at the DML sites budget exhaustion outranks an error on the same row.
func (s *DB) dmlWhere(p *filterPlan, ctx *evalCtx) (bool, *Error) {
	pass, err := s.filterRow(p, ctx)
	if cerr := s.chargeRow(); cerr != nil {
		return false, cerr
	}
	return pass, err
}

// evalFilterConjs evaluates a predicate as an optimized filter: TRUE
// keeps the row. conjs are the predicate's top-level conjuncts, split
// once per statement (splitAnd); ctx is the caller's reused evaluation
// context, already bound to the current row. It is the scalar reference
// the WHERE filter (filterRow) must match.
func (s *DB) evalFilterConjs(conjs []sqlast.Expr, ctx *evalCtx) (bool, *Error) {
	s.cov.Hit("filter.eval")
	result := TriTrue
	for _, conj := range conjs {
		t, err := s.evalFilterRoot(conj, ctx)
		if err != nil {
			return false, err
		}
		result = result.And(t)
	}
	s.cov.HitBranch("filter.keep", result == TriTrue)
	return result == TriTrue, nil
}

// wrongComplement maps a comparison operator to the *defective*
// complement the NotElim fault rewrites NOT(a op b) into.
var wrongComplement = map[sqlast.BinaryOp]sqlast.BinaryOp{
	sqlast.OpLt:   sqlast.OpGt, // correct: >=
	sqlast.OpLe:   sqlast.OpGe, // correct: >
	sqlast.OpGt:   sqlast.OpLt, // correct: <=
	sqlast.OpGe:   sqlast.OpLe, // correct: <
	sqlast.OpEq:   sqlast.OpLt, // correct: != (or <>)
	sqlast.OpNeq:  sqlast.OpLt, // correct: =
	sqlast.OpNeq2: sqlast.OpLt, // correct: =
}

// evalFilterRoot evaluates one conjunct with fault hooks applied at its
// root node only.
func (s *DB) evalFilterRoot(e sqlast.Expr, ctx *evalCtx) (Tri, *Error) {
	fs := s.faultSet()
	if fs == nil {
		return ctx.evalTri(e)
	}

	switch root := e.(type) {
	case *sqlast.Binary:
		if root.Op.IsComparison() {
			return s.evalFaultyComparison(ctx, root)
		}

	case *sqlast.Unary:
		if root.Op != sqlast.UNot {
			break
		}
		inner, ok := root.X.(*sqlast.Binary)
		if !ok || !inner.Op.IsComparison() {
			break
		}
		f := fs.NotElim(inner.Op.String())
		if f == nil {
			break
		}
		l, err := ctx.eval(inner.L)
		if err != nil {
			return TriNull, err
		}
		r, err := ctx.eval(inner.R)
		if err != nil {
			return TriNull, err
		}
		ref := ctx.evalCompare(inner.Op, l, r).Not()
		faulty := ctx.evalCompare(wrongComplement[inner.Op], l, r)
		if faulty != ref {
			s.trigger(f)
		}
		return faulty, nil

	case *sqlast.Between:
		f := fs.Between()
		if f == nil {
			break
		}
		ref, err := ctx.evalBetween(root, false)
		if err != nil {
			return TriNull, err
		}
		faulty, err := ctx.evalBetween(root, true)
		if err != nil {
			return TriNull, err
		}
		if faulty != ref {
			s.trigger(f)
		}
		return faulty, nil

	case *sqlast.InList:
		f := fs.NotInNull()
		if f == nil || !root.Not {
			break
		}
		ref, err := ctx.evalIn(root, false)
		if err != nil {
			return TriNull, err
		}
		faulty, err := ctx.evalIn(root, true)
		if err != nil {
			return TriNull, err
		}
		if faulty != ref {
			s.trigger(f)
		}
		return faulty, nil

	case *sqlast.Like:
		f := fs.Like()
		if f == nil || root.Kind != sqlast.LikeLike {
			break
		}
		ref, err := ctx.evalLike(root, false)
		if err != nil {
			return TriNull, err
		}
		faulty, err := ctx.evalLike(root, true)
		if err != nil {
			return TriNull, err
		}
		if faulty != ref {
			s.trigger(f)
		}
		return faulty, nil

	case *sqlast.Case:
		f := fs.CaseNull()
		if f == nil || root.Operand != nil {
			break
		}
		ref, err := ctx.evalCase(root)
		if err != nil {
			return TriNull, err
		}
		faulty, err := ctx.evalCaseNullTrue(root)
		if err != nil {
			return TriNull, err
		}
		rt, ft := truthiness(ref), truthiness(faulty)
		if rt != ft {
			s.trigger(f)
		}
		return ft, nil
	}

	return ctx.evalTri(e)
}

// evalFaultyComparison applies the comparison-root fault hooks:
// FuncCmpNumeric, FuncWrongVal, CmpMixedText, CmpNullEqTrue, CmpNullTrue,
// DistinctFromNull.
func (s *DB) evalFaultyComparison(ctx *evalCtx, root *sqlast.Binary) (Tri, *Error) {
	fs := s.faultSet()
	op := root.Op.String()

	l, err := ctx.eval(root.L)
	if err != nil {
		return TriNull, err
	}
	r, err := ctx.eval(root.R)
	if err != nil {
		return TriNull, err
	}
	ref := ctx.evalCompare(root.Op, l, r)

	// FuncWrongVal: perturb the value of the targeted function call.
	if lf, lok := root.L.(*sqlast.Func); lok {
		if f := fs.FuncWrong(lf.Name); f != nil {
			faulty := ctx.evalCompare(root.Op, perturb(l), r)
			if faulty != ref {
				s.trigger(f)
			}
			return faulty, nil
		}
	}
	if rf, rok := root.R.(*sqlast.Func); rok {
		if f := fs.FuncWrong(rf.Name); f != nil {
			faulty := ctx.evalCompare(root.Op, l, perturb(r))
			if faulty != ref {
				s.trigger(f)
			}
			return faulty, nil
		}
	}

	// FuncCmpNumeric: comparisons against the targeted function's result
	// compare numerically (the REPLACE-bug shape).
	funcCmpFault := func() *faults.Fault {
		if lf, ok := root.L.(*sqlast.Func); ok {
			if f := fs.FuncCmp(lf.Name); f != nil {
				return f
			}
		}
		if rf, ok := root.R.(*sqlast.Func); ok {
			if f := fs.FuncCmp(rf.Name); f != nil {
				return f
			}
		}
		return nil
	}()
	if funcCmpFault != nil && !l.IsNull() && !r.IsNull() {
		faulty := compareInts(root.Op, toInt(l), toInt(r))
		if faulty != ref {
			s.trigger(funcCmpFault)
		}
		return faulty, nil
	}

	// CmpMixedText: mixed numeric/text operands compared textually.
	if f := fs.CmpMixed(op); f != nil && !l.IsNull() && !r.IsNull() &&
		numericKind(l.K) != numericKind(r.K) {
		c := CompareText(l, r)
		faulty := applyCmp(root.Op, c)
		if faulty != ref {
			s.trigger(f)
		}
		return faulty, nil
	}

	// DistinctFromNull: IS DISTINCT FROM treats two NULLs as distinct.
	if root.Op == sqlast.OpIsDistinct && l.IsNull() && r.IsNull() {
		if f := fs.DistinctFrom(); f != nil {
			s.trigger(f)
			return TriTrue, nil
		}
	}

	// CmpNullEqTrue: both operands NULL yields TRUE.
	if l.IsNull() && r.IsNull() {
		if f := fs.CmpNullEq(op); f != nil && ref == TriNull {
			s.trigger(f)
			return TriTrue, nil
		}
	}

	// CmpNullTrue: a NULL comparison result is treated as TRUE.
	if ref == TriNull {
		if f := fs.CmpNullTrue(op); f != nil {
			s.trigger(f)
			return TriTrue, nil
		}
	}

	return ref, nil
}

// compareInts applies a comparison operator to two integers.
func compareInts(op sqlast.BinaryOp, a, b int64) Tri {
	var c int
	switch {
	case a < b:
		c = -1
	case a > b:
		c = 1
	}
	return applyCmp(op, c)
}

// applyCmp converts a three-way comparison result into the operator's
// truth value.
func applyCmp(op sqlast.BinaryOp, c int) Tri {
	switch op {
	case sqlast.OpEq, sqlast.OpNullSafeEq, sqlast.OpIsNotDistinct:
		return TriOf(c == 0)
	case sqlast.OpNeq, sqlast.OpNeq2, sqlast.OpIsDistinct:
		return TriOf(c != 0)
	case sqlast.OpLt:
		return TriOf(c < 0)
	case sqlast.OpLe:
		return TriOf(c <= 0)
	case sqlast.OpGt:
		return TriOf(c > 0)
	default:
		return TriOf(c >= 0)
	}
}

// perturb returns the FuncWrongVal defect's wrong value.
func perturb(v Value) Value {
	switch v.K {
	case KindInt:
		return Int(v.I + 1)
	case KindText:
		return Text(v.S + "x")
	case KindBool:
		return Bool(!v.B)
	default:
		return v
	}
}

// evalCaseNullTrue evaluates a searched CASE treating NULL WHEN
// conditions as TRUE (the CaseNullTrue defect).
func (ctx *evalCtx) evalCaseNullTrue(x *sqlast.Case) (Value, *Error) {
	for i := range x.Whens {
		t, err := ctx.evalTri(x.Whens[i].Cond)
		if err != nil {
			return Null(), err
		}
		if t == TriTrue || t == TriNull {
			return ctx.eval(x.Whens[i].Then)
		}
	}
	if x.Else != nil {
		return ctx.eval(x.Else)
	}
	return Null(), nil
}
