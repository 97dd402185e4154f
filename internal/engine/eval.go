package engine

import (
	"strings"

	"sqlancerpp/internal/sqlast"
)

// rowRel binds one FROM relation's current row.
type rowRel struct {
	alias string
	cols  []string
	vals  []Value
}

// rowEnv is the evaluation environment: the current row of each visible
// relation, with a link to the enclosing query's environment for
// correlated subqueries.
type rowEnv struct {
	rels  []rowRel
	outer *rowEnv
}

// resolve finds a column in this scope alone: the first relation, in
// FROM order, whose alias matches the qualifier (when there is one) and
// that has a column of that name, both compared case-insensitively.
// Column resolution order is decided here: lookup and the WHERE
// filter's resolved comparisons both go through it.
func (env *rowEnv) resolve(table, col string) (rel, idx int, ok bool) {
	for i := range env.rels {
		r := &env.rels[i]
		if table != "" && !strings.EqualFold(r.alias, table) {
			continue
		}
		for j, c := range r.cols {
			if strings.EqualFold(c, col) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// lookup resolves a column reference to its current value, innermost
// scope first. Validation has already established existence and
// unambiguity.
func (env *rowEnv) lookup(table, col string) (Value, bool) {
	for e := env; e != nil; e = e.outer {
		if i, j, ok := e.resolve(table, col); ok {
			return e.rels[i].vals[j], true
		}
	}
	return Null(), false
}

// evalCtx carries everything expression evaluation needs.
type evalCtx struct {
	s       *DB
	env     *rowEnv
	dialect dialectFlags
	// group, when non-nil, holds the member rows of the current group;
	// aggregate calls compute over it.
	group []*rowEnv
}

// dialectFlags caches the dialect behaviors the evaluator consults.
type dialectFlags struct {
	DivZeroError    bool
	CastTextError   bool
	MathDomainError bool
}

// evalCtxFor is an evaluation context over env.
func (s *DB) evalCtxFor(env *rowEnv) evalCtx {
	return evalCtx{
		s:   s,
		env: env,
		dialect: dialectFlags{
			DivZeroError:    s.dialect.DivZeroError,
			CastTextError:   s.dialect.CastTextError,
			MathDomainError: s.dialect.MathDomainError,
		},
	}
}

// newEvalCtx is an evaluation context over env on the heap, for loops
// that build one per row and would otherwise grow the scratch with the
// row count.
func (s *DB) newEvalCtx(env *rowEnv) *evalCtx {
	ctx := s.evalCtxFor(env)
	return &ctx
}

// scratchCtx is an evaluation context over env in the statement scratch.
func (s *DB) scratchCtx(env *rowEnv) *evalCtx {
	ctx := &s.st.ctxs.alloc(1)[0]
	*ctx = s.evalCtxFor(env)
	return ctx
}

// eval computes the reference (fault-free) value of an expression.
func (ctx *evalCtx) eval(e sqlast.Expr) (Value, *Error) {
	ctx.s.cost++
	switch x := e.(type) {
	case *sqlast.Literal:
		switch x.Kind {
		case sqlast.LitNull:
			return Null(), nil
		case sqlast.LitInt:
			return Int(x.Int), nil
		case sqlast.LitText:
			return Text(x.Text), nil
		default:
			return Bool(x.Bool), nil
		}

	case *sqlast.ColumnRef:
		v, ok := ctx.env.lookup(x.Table, x.Column)
		if !ok {
			return Null(), errf(ErrSemantic, "no such column %s", x.SQL())
		}
		return v, nil

	case *sqlast.Unary:
		return ctx.evalUnary(x)

	case *sqlast.Binary:
		return ctx.evalBinary(x)

	case *sqlast.Func:
		return ctx.evalFunc(x)

	case *sqlast.Case:
		return ctx.evalCase(x)

	case *sqlast.Cast:
		v, err := ctx.eval(x.X)
		if err != nil {
			return Null(), err
		}
		return ctx.evalCast(v, x.To)

	case *sqlast.Between:
		t, err := ctx.evalBetween(x, false)
		if err != nil {
			return Null(), err
		}
		return t.Value(), nil

	case *sqlast.InList:
		t, err := ctx.evalIn(x, false)
		if err != nil {
			return Null(), err
		}
		return t.Value(), nil

	case *sqlast.IsNull:
		v, err := ctx.eval(x.X)
		if err != nil {
			return Null(), err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return Bool(res), nil

	case *sqlast.IsBool:
		v, err := ctx.eval(x.X)
		if err != nil {
			return Null(), err
		}
		t := truthiness(v)
		var res bool
		if x.Val {
			res = t == TriTrue
		} else {
			res = t == TriFalse
		}
		if x.Not {
			res = !res
		}
		return Bool(res), nil

	case *sqlast.Like:
		t, err := ctx.evalLike(x, false)
		if err != nil {
			return Null(), err
		}
		return t.Value(), nil

	case *sqlast.Subquery:
		return ctx.evalSubquery(x.Select, false, false)

	case *sqlast.Exists:
		return ctx.evalSubquery(x.Select, true, x.Not)

	default:
		return Null(), errf(ErrSemantic, "unhandled expression kind")
	}
}

// evalSubquery runs a scalar subquery, or with exists an [NOT] EXISTS,
// for the current row. The subquery's result lives in the scratch only
// until its one value is copied out: a correlated subquery reruns per
// outer row, and releasing each run keeps its memory flat.
func (ctx *evalCtx) evalSubquery(sel *sqlast.Select, exists, not bool) (Value, *Error) {
	st := &ctx.s.st
	m := st.mark()
	res, err := ctx.s.execSelectEnv(sel, ctx.env, st)
	var v Value
	switch {
	case err != nil:
	case exists:
		v = Bool((len(res.Rows) > 0) != not)
	case len(res.Rows) > 1:
		err = errf(ErrRuntime, "scalar subquery returned %d rows", len(res.Rows))
	case len(res.Rows) == 1:
		v = res.Rows[0][0]
	}
	st.release(m)
	return v, err
}

// evalTri evaluates an expression as a predicate.
func (ctx *evalCtx) evalTri(e sqlast.Expr) (Tri, *Error) {
	v, err := ctx.eval(e)
	if err != nil {
		return TriNull, err
	}
	return truthiness(v), nil
}

func (ctx *evalCtx) evalUnary(x *sqlast.Unary) (Value, *Error) {
	v, err := ctx.eval(x.X)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case sqlast.UNot:
		ctx.s.cov.Hit("eval.unary.not")
		return truthiness(v).Not().Value(), nil
	case sqlast.UMinus:
		ctx.s.cov.Hit("eval.unary.minus")
		if v.IsNull() {
			return Null(), nil
		}
		return Int(-toInt(v)), nil
	case sqlast.UPlus:
		ctx.s.cov.Hit("eval.unary.plus")
		if v.IsNull() {
			return Null(), nil
		}
		return Int(toInt(v)), nil
	default: // UBitNot
		ctx.s.cov.Hit("eval.unary.bitnot")
		if v.IsNull() {
			return Null(), nil
		}
		return Int(^toInt(v)), nil
	}
}

func (ctx *evalCtx) evalBinary(x *sqlast.Binary) (Value, *Error) {
	op := x.Op
	l, err := ctx.eval(x.L)
	if err != nil {
		return Null(), err
	}
	r, err := ctx.eval(x.R)
	if err != nil {
		return Null(), err
	}
	if op.IsComparison() {
		return ctx.compareNode(op, l, r).Value(), nil
	}
	ctx.s.cov.Hit(binCovKeys[op].hit)
	switch {
	case op.IsLogical():
		lt, rt := truthiness(l), truthiness(r)
		switch op {
		case sqlast.OpAnd:
			return lt.And(rt).Value(), nil
		case sqlast.OpOr:
			return lt.Or(rt).Value(), nil
		default:
			return lt.Xor(rt).Value(), nil
		}
	case op == sqlast.OpConcat:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(toText(l) + toText(r)), nil
	default:
		return ctx.evalArith(op, l, r)
	}
}

// binCovKeys caches each operator's coverage-key spellings
// ("eval.binary.<op>", "cmp.null.<op>"). The binary evaluator hits these
// on every node; building them by concatenation allocated two strings
// per evaluation — even with no recorder attached — and dominated the
// SELECT hot path's allocation profile.
var binCovKeys = func() (keys [sqlast.OpIsNotDistinct + 1]struct{ hit, null string }) {
	for op := range keys {
		o := sqlast.BinaryOp(op)
		keys[op].hit = "eval.binary." + o.String()
		keys[op].null = "cmp.null." + o.String()
	}
	return
}()

// compareNode evaluates a comparison node over its evaluated operands
// and records the node's coverage: the operator's binary hit and its
// NULL-operand branch. evalBinary and the WHERE filter's resolved
// comparisons both go through it.
func (ctx *evalCtx) compareNode(op sqlast.BinaryOp, l, r Value) Tri {
	ctx.s.cov.Hit(binCovKeys[op].hit)
	ctx.s.cov.HitBranch(binCovKeys[op].null, l.IsNull() || r.IsNull())
	return compareValues(op, l, r)
}

// evalCompare implements the reference comparison semantics.
func (ctx *evalCtx) evalCompare(op sqlast.BinaryOp, l, r Value) Tri {
	return compareValues(op, l, r)
}

// compareValues is the context-free comparison kernel.
func compareValues(op sqlast.BinaryOp, l, r Value) Tri {
	switch op {
	case sqlast.OpNullSafeEq: // <=>
		if l.IsNull() || r.IsNull() {
			return TriOf(l.IsNull() && r.IsNull())
		}
		return TriOf(nullSafeEqual(l, r))
	case sqlast.OpIsDistinct:
		if l.IsNull() || r.IsNull() {
			return TriOf(l.IsNull() != r.IsNull())
		}
		return TriOf(!nullSafeEqual(l, r))
	case sqlast.OpIsNotDistinct:
		if l.IsNull() || r.IsNull() {
			return TriOf(l.IsNull() == r.IsNull())
		}
		return TriOf(nullSafeEqual(l, r))
	}
	if l.IsNull() || r.IsNull() {
		return TriNull
	}
	c := Compare(l, r)
	switch op {
	case sqlast.OpEq:
		return TriOf(c == 0)
	case sqlast.OpNeq, sqlast.OpNeq2:
		return TriOf(c != 0)
	case sqlast.OpLt:
		return TriOf(c < 0)
	case sqlast.OpLe:
		return TriOf(c <= 0)
	case sqlast.OpGt:
		return TriOf(c > 0)
	default: // OpGe
		return TriOf(c >= 0)
	}
}

// nullSafeEqual compares two non-NULL values for (null-safe) equality.
func nullSafeEqual(l, r Value) bool {
	if numericKind(l.K) != numericKind(r.K) {
		return false
	}
	return Compare(l, r) == 0
}

func (ctx *evalCtx) evalArith(op sqlast.BinaryOp, l, r Value) (Value, *Error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	a, b := toInt(l), toInt(r)
	switch op {
	case sqlast.OpAdd:
		return Int(a + b), nil
	case sqlast.OpSub:
		return Int(a - b), nil
	case sqlast.OpMul:
		return Int(a * b), nil
	case sqlast.OpDiv:
		if b == 0 {
			if ctx.dialect.DivZeroError {
				return Null(), errf(ErrRuntime, "division by zero")
			}
			return Null(), nil
		}
		return Int(a / b), nil
	case sqlast.OpMod:
		if b == 0 {
			if ctx.dialect.DivZeroError {
				return Null(), errf(ErrRuntime, "division by zero")
			}
			return Null(), nil
		}
		return Int(a % b), nil
	case sqlast.OpBitAnd:
		return Int(a & b), nil
	case sqlast.OpBitOr:
		return Int(a | b), nil
	case sqlast.OpBitXor:
		return Int(a ^ b), nil
	case sqlast.OpShl:
		if b < 0 || b > 63 {
			return Int(0), nil
		}
		return Int(a << uint(b)), nil
	default: // OpShr
		if b < 0 || b > 63 {
			return Int(0), nil
		}
		return Int(a >> uint(b)), nil
	}
}

func (ctx *evalCtx) evalFunc(x *sqlast.Func) (Value, *Error) {
	if isAggregate(x) {
		if ctx.group == nil {
			return Null(), errf(ErrSemantic, "aggregate %s is not allowed here", x.Name)
		}
		return ctx.evalAggregate(x)
	}
	// Scalar MIN/MAX (two or more arguments, SQLite-style).
	if (x.Name == "MIN" || x.Name == "MAX") && len(x.Args) >= 2 {
		ctx.s.cov.Hit("eval.func.scalar-minmax")
		var best Value
		for i, a := range x.Args {
			v, err := ctx.eval(a)
			if err != nil {
				return Null(), err
			}
			if v.IsNull() {
				return Null(), nil
			}
			if i == 0 {
				best = v
				continue
			}
			c := Compare(v, best)
			if (x.Name == "MAX" && c > 0) || (x.Name == "MIN" && c < 0) {
				best = v
			}
		}
		return best, nil
	}
	def := LookupFunc(x.Name)
	if def == nil {
		return Null(), errf(ErrSemantic, "no such function %s", x.Name)
	}
	// The arguments live on the scratch's value stack for the call.
	vals := &ctx.s.st.vals
	p := vals.pos()
	args := vals.alloc(len(x.Args))
	for i, a := range x.Args {
		v, err := ctx.eval(a)
		if err != nil {
			vals.release(p)
			return Null(), err
		}
		args[i] = v
	}
	if ctx.s.cov != nil {
		ctx.s.cov.Hit("eval.func." + x.Name)
		ctx.s.cov.HitBranch("func.null."+x.Name, anyNull(args) >= 0)
	}
	v, err := def.Impl(ctx, args)
	vals.release(p)
	return v, err
}

func (ctx *evalCtx) evalCase(x *sqlast.Case) (Value, *Error) {
	ctx.s.cov.Hit("eval.case")
	ctx.s.cov.HitBranch("case.searched", x.Operand == nil)
	if x.Operand != nil {
		op, err := ctx.eval(x.Operand)
		if err != nil {
			return Null(), err
		}
		for i := range x.Whens {
			w, err := ctx.eval(x.Whens[i].Cond)
			if err != nil {
				return Null(), err
			}
			if !op.IsNull() && !w.IsNull() && nullSafeEqual(op, w) {
				return ctx.eval(x.Whens[i].Then)
			}
		}
	} else {
		for i := range x.Whens {
			t, err := ctx.evalTri(x.Whens[i].Cond)
			if err != nil {
				return Null(), err
			}
			if t == TriTrue {
				return ctx.eval(x.Whens[i].Then)
			}
		}
	}
	if x.Else != nil {
		return ctx.eval(x.Else)
	}
	return Null(), nil
}

func (ctx *evalCtx) evalCast(v Value, to sqlast.Type) (Value, *Error) {
	if ctx.s.cov != nil {
		ctx.s.cov.Hit("eval.cast." + to.String())
	}
	if v.IsNull() {
		return Null(), nil
	}
	switch to {
	case sqlast.TypeInt:
		if v.K == KindText {
			if n, ok := parseFullInt(v.S); ok {
				return Int(n), nil
			}
			if ctx.dialect.CastTextError {
				return Null(), errf(ErrRuntime, "invalid input for CAST to INTEGER: %q", v.S)
			}
			return Int(parseLeadingInt(v.S)), nil
		}
		return Int(toInt(v)), nil
	case sqlast.TypeText:
		return Text(toText(v)), nil
	case sqlast.TypeBool:
		switch v.K {
		case KindBool:
			return v, nil
		case KindInt:
			return Bool(v.I != 0), nil
		default:
			s := strings.ToLower(strings.TrimSpace(v.S))
			switch s {
			case "true", "t", "1":
				return Bool(true), nil
			case "false", "f", "0":
				return Bool(false), nil
			}
			if ctx.dialect.CastTextError {
				return Null(), errf(ErrRuntime, "invalid input for CAST to BOOLEAN: %q", v.S)
			}
			return Bool(parseLeadingInt(v.S) != 0), nil
		}
	default:
		return Null(), errf(ErrSemantic, "CAST to unknown type")
	}
}

// parseFullInt parses s as a complete integer literal.
func parseFullInt(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	i := 0
	neg := false
	if s[i] == '+' || s[i] == '-' {
		neg = s[i] == '-'
		i++
	}
	if i == len(s) {
		return 0, false
	}
	var n int64
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(s[i]-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// evalBetween computes x BETWEEN lo AND hi with three-valued logic.
// exclusive is set by the BetweenExclusive fault.
func (ctx *evalCtx) evalBetween(x *sqlast.Between, exclusive bool) (Tri, *Error) {
	ctx.s.cov.Hit("eval.between")
	v, err := ctx.eval(x.X)
	if err != nil {
		return TriNull, err
	}
	lo, err := ctx.eval(x.Lo)
	if err != nil {
		return TriNull, err
	}
	hi, err := ctx.eval(x.Hi)
	if err != nil {
		return TriNull, err
	}
	opLo, opHi := sqlast.OpGe, sqlast.OpLe
	if exclusive {
		opLo, opHi = sqlast.OpGt, sqlast.OpLt
	}
	t := ctx.evalCompare(opLo, v, lo).And(ctx.evalCompare(opHi, v, hi))
	if x.Not {
		t = t.Not()
	}
	return t, nil
}

// evalIn computes x IN (...) with three-valued logic. If notInNullTrue is
// set (injected fault), a non-matching NOT IN with a NULL element yields
// TRUE instead of NULL.
func (ctx *evalCtx) evalIn(x *sqlast.InList, notInNullTrue bool) (Tri, *Error) {
	ctx.s.cov.Hit("eval.in")
	v, err := ctx.eval(x.X)
	if err != nil {
		return TriNull, err
	}
	sawNull := v.IsNull()
	matched := false
	for _, item := range x.List {
		iv, err := ctx.eval(item)
		if err != nil {
			return TriNull, err
		}
		if iv.IsNull() || v.IsNull() {
			sawNull = true
			continue
		}
		if nullSafeEqual(v, iv) {
			matched = true
		}
	}
	var t Tri
	switch {
	case matched:
		t = TriTrue
	case sawNull:
		t = TriNull
	default:
		t = TriFalse
	}
	if x.Not {
		t = t.Not()
		if notInNullTrue && t == TriNull {
			t = TriTrue
		}
	}
	return t, nil
}

// evalLike computes x LIKE/GLOB pattern. If underscoreBroken is set
// (injected fault), the '_' wildcard matches nothing.
func (ctx *evalCtx) evalLike(x *sqlast.Like, underscoreBroken bool) (Tri, *Error) {
	ctx.s.cov.Hit("eval.like")
	v, err := ctx.eval(x.X)
	if err != nil {
		return TriNull, err
	}
	p, err := ctx.eval(x.Pattern)
	if err != nil {
		return TriNull, err
	}
	if v.IsNull() || p.IsNull() {
		return TriNull, nil
	}
	var m bool
	if x.Kind == sqlast.LikeGlob {
		m = globMatch(toText(p), toText(v))
	} else {
		m = likeMatch(toText(p), toText(v), underscoreBroken)
	}
	if x.Not {
		m = !m
	}
	return TriOf(m), nil
}

// likeMatch implements LIKE with % and _ wildcards over ASCII,
// case-insensitively.
func likeMatch(pattern, s string, underscoreBroken bool) bool {
	pattern = strings.ToLower(pattern)
	s = strings.ToLower(s)
	return wildMatch(pattern, s, '%', '_', underscoreBroken)
}

// globMatch implements GLOB with * and ? wildcards, case-sensitively.
func globMatch(pattern, s string) bool {
	return wildMatch(pattern, s, '*', '?', false)
}

// wildMatch is a linear-space wildcard matcher (iterative, no
// backtracking blowup).
func wildMatch(p, s string, many, one byte, oneBroken bool) bool {
	var pi, si int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == many:
			star, mark = pi, si
			pi++
		case pi < len(p) && p[pi] == one && !oneBroken:
			pi++
			si++
		case pi < len(p) && p[pi] != one && p[pi] == s[si]:
			pi++
			si++
		case star >= 0:
			mark++
			si = mark
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == many {
		pi++
	}
	return pi == len(p)
}
