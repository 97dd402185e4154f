package gen

import (
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// typ is the generator's intended type of an expression.
type typ int

const (
	tInt typ = iota
	tText
	tBool
)

func (t typ) featureID() feature.ID {
	switch t {
	case tInt:
		return feature.TypeIntegerID
	case tText:
		return feature.TypeTextID
	default:
		return feature.TypeBooleanID
	}
}

func (t typ) astType() sqlast.Type {
	switch t {
	case tInt:
		return sqlast.TypeInt
	case tText:
		return sqlast.TypeText
	default:
		return sqlast.TypeBool
	}
}

// scopeCol is one column visible to expression generation.
type scopeCol struct {
	Table  string
	Column string
	Type   typ
}

// exprScope lists the columns visible to the expression generator.
type exprScope struct {
	cols []scopeCol
	// rels carries the FROM relations, so subqueries can reference other
	// model tables without colliding.
	gen *Generator
}

func typOf(t sqlast.Type) typ {
	switch t {
	case sqlast.TypeText:
		return tText
	case sqlast.TypeBool:
		return tBool
	default:
		return tInt
	}
}

// countOfType counts the in-scope columns of an intended type.
func (sc *exprScope) countOfType(t typ) int {
	n := 0
	for i := range sc.cols {
		if sc.cols[i].Type == t {
			n++
		}
	}
	return n
}

// nthOfType returns the in-scope column of type t at position n (from
// 0, in scope order) among the columns of that type; n must be below
// countOfType(t). Leaf generation picks a column without building a list.
func (sc *exprScope) nthOfType(t typ, n int) scopeCol {
	for i := range sc.cols {
		if sc.cols[i].Type != t {
			continue
		}
		if n == 0 {
			return sc.cols[i]
		}
		n--
	}
	panic("gen: column index out of range")
}

// genLeaf produces a column reference or constant of the wanted type.
// Deliberate mismatches (probability MismatchProb, gated by the learned
// implicit-cast feature) probe the DBMS's type system.
func (g *Generator) genLeaf(sc *exprScope, want typ, fs *feature.Set) sqlast.Expr {
	actual := want
	if g.prob(g.cfg.MismatchProb) && g.supported(feature.PropImplicitCastID) {
		actual = typ(g.intn(3))
		if actual != want {
			fs.Add(feature.PropImplicitCastID)
		}
	}
	if actual == tBool && !g.supported(feature.TypeBooleanID) {
		actual = tInt
	}
	// NULL constants are essential for exercising three-valued logic.
	if g.prob(0.14) {
		fs.Add(feature.ExprConstantID)
		return sqlast.Null()
	}
	if n := sc.countOfType(actual); n > 0 && g.prob(0.62) {
		c := sc.nthOfType(actual, g.intn(n))
		fs.Add(feature.ExprColumnID)
		return &sqlast.ColumnRef{Table: c.Table, Column: c.Column}
	}
	fs.Add(feature.ExprConstantID)
	return g.genConst(actual, fs)
}

var intConsts = []int64{0, 1, -1, 2, 3, 10, 100, 2000, -2000, 1000000}
var textConsts = []string{"", "a", "b", "A", "0", "1", " a", "asdf", "%", "_", "ab"}

// genConst produces a literal of the given type.
func (g *Generator) genConst(t typ, fs *feature.Set) sqlast.Expr {
	switch t {
	case tInt:
		return sqlast.IntLit(intConsts[g.intn(len(intConsts))])
	case tText:
		return sqlast.TextLit(textConsts[g.intn(len(textConsts))])
	default:
		fs.Add(feature.TypeBooleanID)
		return sqlast.BoolLit(g.prob(0.5))
	}
}

// operandType picks the type for comparison operands. Mixed-type pairs
// probe implicit conversion and are gated on the learned feature.
func (g *Generator) operandType() typ {
	switch g.intn(5) {
	case 0, 1, 2:
		return tInt
	case 3:
		return tText
	default:
		if g.supported(feature.TypeBooleanID) {
			return tBool
		}
		return tInt
	}
}

// genExpr generates an expression with the wanted type and depth budget.
func (g *Generator) genExpr(sc *exprScope, want typ, depth int, fs *feature.Set) sqlast.Expr {
	if depth <= 0 {
		return g.genLeaf(sc, want, fs)
	}
	switch want {
	case tBool:
		return g.genBool(sc, depth, fs)
	case tInt:
		return g.genInt(sc, depth, fs)
	default:
		return g.genText(sc, depth, fs)
	}
}

var cmpAlts = []feature.ID{feature.OpEqID, feature.OpNeqID, feature.OpNeq2ID, feature.OpLtID, feature.OpLeID, feature.OpGtID, feature.OpGeID, feature.OpNullSafeEqID,
	feature.OpIsDistinctID, feature.OpIsNotDistinctID}

func (g *Generator) genBool(sc *exprScope, depth int, fs *feature.Set) sqlast.Expr {
	alts := []feature.ID{altCMP, altCMP, altCMP, feature.OpAndID, feature.OpOrID, feature.OpXorID, feature.ExprNotID,
		feature.ExprIsNullID, feature.ExprIsBoolID, feature.ExprBetweenID,
		feature.ExprInID, feature.ExprNotInID, feature.ExprLikeID, feature.ExprGlobID,
		feature.ExprCaseID, feature.ExprExistsID, altLEAF}
	switch g.pickChoice(alts) {
	case altCMP:
		op := g.pickFeature(cmpAlts)
		fs.Add(op)
		lt := g.operandType()
		rt := lt
		if g.prob(g.cfg.MismatchProb) && g.supported(feature.PropImplicitCastID) {
			rt = g.operandType()
			if rt != lt {
				fs.Add(feature.PropImplicitCastID)
			}
		}
		return &sqlast.Binary{
			Op: cmpOpOf(op),
			L:  g.genCmpOperand(sc, lt, depth, fs),
			R:  g.genCmpOperand(sc, rt, depth, fs),
		}
	case feature.OpAndID:
		fs.Add(feature.OpAndID)
		return &sqlast.Binary{Op: sqlast.OpAnd,
			L: g.genBool(sc, depth-1, fs), R: g.genBool(sc, depth-1, fs)}
	case feature.OpOrID:
		fs.Add(feature.OpOrID)
		return &sqlast.Binary{Op: sqlast.OpOr,
			L: g.genBool(sc, depth-1, fs), R: g.genBool(sc, depth-1, fs)}
	case feature.OpXorID:
		fs.Add(feature.OpXorID)
		return &sqlast.Binary{Op: sqlast.OpXor,
			L: g.genBool(sc, depth-1, fs), R: g.genBool(sc, depth-1, fs)}
	case feature.ExprNotID:
		fs.Add(feature.ExprNotID)
		return &sqlast.Unary{Op: sqlast.UNot, X: g.genBool(sc, depth-1, fs)}
	case feature.ExprIsNullID:
		fs.Add(feature.ExprIsNullID)
		return &sqlast.IsNull{X: g.genExpr(sc, g.operandType(), depth-1, fs), Not: g.prob(0.5)}
	case feature.ExprIsBoolID:
		fs.Add(feature.ExprIsBoolID)
		return &sqlast.IsBool{X: g.genBool(sc, depth-1, fs), Val: g.prob(0.5), Not: g.prob(0.3)}
	case feature.ExprBetweenID:
		fs.Add(feature.ExprBetweenID)
		t := g.operandType()
		return &sqlast.Between{
			X:   g.genExpr(sc, t, depth-1, fs),
			Lo:  g.genExpr(sc, t, depth-1, fs),
			Hi:  g.genExpr(sc, t, depth-1, fs),
			Not: g.prob(0.3),
		}
	case feature.ExprInID, feature.ExprNotInID:
		not := g.prob(0.5)
		if not {
			fs.Add(feature.ExprNotInID)
		} else {
			fs.Add(feature.ExprInID)
		}
		t := g.operandType()
		n := 1 + g.intn(3)
		list := make([]sqlast.Expr, n)
		for i := range list {
			list[i] = g.genExpr(sc, t, depth-1, fs)
		}
		return &sqlast.InList{X: g.genExpr(sc, t, depth-1, fs), List: list, Not: not}
	case feature.ExprLikeID:
		fs.Add(feature.ExprLikeID)
		return &sqlast.Like{
			X:       g.genExpr(sc, tText, depth-1, fs),
			Pattern: g.genLikePattern(sqlast.LikeLike),
			Kind:    sqlast.LikeLike,
			Not:     g.prob(0.3),
		}
	case feature.ExprGlobID:
		fs.Add(feature.ExprGlobID)
		return &sqlast.Like{
			X:       g.genExpr(sc, tText, depth-1, fs),
			Pattern: g.genLikePattern(sqlast.LikeGlob),
			Kind:    sqlast.LikeGlob,
			Not:     g.prob(0.3),
		}
	case feature.ExprCaseID:
		fs.Add(feature.ExprCaseID)
		return g.genCase(sc, tBool, depth, fs)
	case feature.ExprExistsID:
		if sub := g.genSubSelect(sc, depth, fs); sub != nil {
			fs.Add(feature.ExprExistsID)
			return &sqlast.Exists{Select: sub, Not: g.prob(0.3)}
		}
		return g.genLeaf(sc, tBool, fs)
	default: // LEAF
		return g.genLeaf(sc, tBool, fs)
	}
}

// Structural alternatives of pickChoice: labels past the feature table,
// which pickChoice always keeps.
const (
	altCMP feature.ID = feature.NumIDs + iota
	altLEAF
	altARITH
	altFUNC
	altNEG
)

// pickChoice picks among structural alternatives, filtering those that
// map to features the policy suppresses.
func (g *Generator) pickChoice(alts []feature.ID) feature.ID {
	ok := g.choiceBuf[:0]
	for _, a := range alts {
		// Structural labels are not features; the concrete feature inside
		// them is gated separately.
		if a >= feature.NumIDs || g.supported(a) {
			ok = append(ok, a)
		}
	}
	g.choiceBuf = ok
	if len(ok) == 0 {
		ok = alts
	}
	return ok[g.intn(len(ok))]
}

func cmpOpOf(op feature.ID) sqlast.BinaryOp {
	switch op {
	case feature.OpEqID:
		return sqlast.OpEq
	case feature.OpNeqID:
		return sqlast.OpNeq
	case feature.OpNeq2ID:
		return sqlast.OpNeq2
	case feature.OpLtID:
		return sqlast.OpLt
	case feature.OpLeID:
		return sqlast.OpLe
	case feature.OpGtID:
		return sqlast.OpGt
	case feature.OpGeID:
		return sqlast.OpGe
	case feature.OpNullSafeEqID:
		return sqlast.OpNullSafeEq
	case feature.OpIsDistinctID:
		return sqlast.OpIsDistinct
	default:
		return sqlast.OpIsNotDistinct
	}
}

var likePatterns = []string{"%", "%a%", "a%", "_", "a_", "%0%", "", "ab"}
var globPatterns = []string{"*", "*a*", "a*", "?", "a?", "*0*", "", "ab"}

func (g *Generator) genLikePattern(kind sqlast.LikeKind) sqlast.Expr {
	if kind == sqlast.LikeGlob {
		return sqlast.TextLit(globPatterns[g.intn(len(globPatterns))])
	}
	return sqlast.TextLit(likePatterns[g.intn(len(likePatterns))])
}

// genCmpOperand produces one comparison operand. Function calls are
// favored — "col = FN(...)" is the canonical oracle-query shape (the
// paper's REPLACE bug) — and exercise the composite type features.
func (g *Generator) genCmpOperand(sc *exprScope, t typ, depth int, fs *feature.Set) sqlast.Expr {
	if t == tInt && g.prob(g.cfg.RiskyProb) {
		d := depth
		if d < 1 {
			d = 1
		}
		return g.genRisky(sc, d, fs)
	}
	if t != tBool && g.prob(0.38) {
		d := depth
		if d < 1 {
			d = 1
		}
		if e := g.genFuncCall(sc, t, d, fs); e != nil {
			return e
		}
	}
	return g.genExpr(sc, t, depth-1, fs)
}

// riskyAlts are genRisky's constructs, each gated on its feature.
var riskyAlts = []feature.ID{feature.OpDivID, feature.OpModID, feature.FnASIN,
	feature.FnLN, feature.FnSQRT, feature.FnPOWER, feature.FnEXP, feature.ExprCastID}

// genRisky produces a failure-prone construct: NULL on dynamic dialects,
// a runtime error on static ones (the paper's context-dependent
// failures).
func (g *Generator) genRisky(sc *exprScope, depth int, fs *feature.Set) sqlast.Expr {
	ok := g.choiceBuf[:0]
	for _, a := range riskyAlts {
		if g.supported(a) {
			ok = append(ok, a)
		}
	}
	g.choiceBuf = ok
	if len(ok) == 0 {
		return g.genLeaf(sc, tInt, fs)
	}
	pick := ok[g.intn(len(ok))]
	fs.Add(pick)
	switch pick {
	case feature.OpDivID:
		return &sqlast.Binary{Op: sqlast.OpDiv, L: g.genExpr(sc, tInt, depth-1, fs), R: sqlast.IntLit(0)}
	case feature.OpModID:
		return &sqlast.Binary{Op: sqlast.OpMod, L: g.genExpr(sc, tInt, depth-1, fs), R: sqlast.IntLit(0)}
	case feature.ExprCastID:
		return &sqlast.Cast{X: sqlast.TextLit("abc"), To: sqlast.TypeInt}
	}
	fs.Add(feature.FuncArgID(pick, 1, feature.TypeIntegerID))
	fn := &sqlast.Func{Name: feature.Name(pick)}
	switch pick {
	case feature.FnASIN:
		fn.Args = []sqlast.Expr{sqlast.IntLit(2000)}
	case feature.FnLN:
		fn.Args = []sqlast.Expr{sqlast.IntLit(0)}
	case feature.FnSQRT:
		fn.Args = []sqlast.Expr{sqlast.IntLit(-1)}
	case feature.FnPOWER:
		fn.Args = []sqlast.Expr{sqlast.IntLit(2), sqlast.IntLit(70)}
	default: // EXP
		fn.Args = []sqlast.Expr{sqlast.IntLit(100)}
	}
	return fn
}

var arithAlts = []feature.ID{feature.OpAddID, feature.OpSubID, feature.OpMulID, feature.OpDivID, feature.OpModID, feature.OpBitAndID, feature.OpBitOrID, feature.OpBitXorID, feature.OpShlID, feature.OpShrID}

func (g *Generator) genInt(sc *exprScope, depth int, fs *feature.Set) sqlast.Expr {
	if g.prob(g.cfg.RiskyProb) {
		return g.genRisky(sc, depth, fs)
	}
	alts := []feature.ID{altARITH, altARITH, altNEG, feature.OpBitNotID, altFUNC, altFUNC,
		feature.ExprCaseID, feature.ExprCastID, feature.SubqueryID, altLEAF, altLEAF}
	switch g.pickChoice(alts) {
	case altARITH:
		op := g.pickFeature(arithAlts)
		fs.Add(op)
		return &sqlast.Binary{
			Op: arithOpOf(op),
			L:  g.genExpr(sc, tInt, depth-1, fs),
			R:  g.genExpr(sc, tInt, depth-1, fs),
		}
	case altNEG:
		fs.Add(feature.OpSubID)
		x := g.genExpr(sc, tInt, depth-1, fs)
		// Fold literals, matching the parser's canonical form.
		if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt {
			return sqlast.IntLit(-lit.Int)
		}
		return &sqlast.Unary{Op: sqlast.UMinus, X: x}
	case feature.OpBitNotID:
		fs.Add(feature.OpBitNotID)
		return &sqlast.Unary{Op: sqlast.UBitNot, X: g.genExpr(sc, tInt, depth-1, fs)}
	case altFUNC:
		if e := g.genFuncCall(sc, tInt, depth, fs); e != nil {
			return e
		}
		return g.genLeaf(sc, tInt, fs)
	case feature.ExprCaseID:
		fs.Add(feature.ExprCaseID)
		return g.genCase(sc, tInt, depth, fs)
	case feature.ExprCastID:
		fs.Add(feature.ExprCastID)
		return &sqlast.Cast{X: g.genExpr(sc, g.operandType(), depth-1, fs), To: sqlast.TypeInt}
	case feature.SubqueryID:
		if sub := g.genScalarSubquery(sc, tInt, depth, fs); sub != nil {
			return sub
		}
		return g.genLeaf(sc, tInt, fs)
	default:
		return g.genLeaf(sc, tInt, fs)
	}
}

func arithOpOf(op feature.ID) sqlast.BinaryOp {
	switch op {
	case feature.OpAddID:
		return sqlast.OpAdd
	case feature.OpSubID:
		return sqlast.OpSub
	case feature.OpMulID:
		return sqlast.OpMul
	case feature.OpDivID:
		return sqlast.OpDiv
	case feature.OpModID:
		return sqlast.OpMod
	case feature.OpBitAndID:
		return sqlast.OpBitAnd
	case feature.OpBitOrID:
		return sqlast.OpBitOr
	case feature.OpBitXorID:
		return sqlast.OpBitXor
	case feature.OpShlID:
		return sqlast.OpShl
	default:
		return sqlast.OpShr
	}
}

func (g *Generator) genText(sc *exprScope, depth int, fs *feature.Set) sqlast.Expr {
	alts := []feature.ID{feature.OpConcatID, altFUNC, altFUNC, feature.ExprCaseID, feature.ExprCastID,
		altLEAF, altLEAF}
	switch g.pickChoice(alts) {
	case feature.OpConcatID:
		fs.Add(feature.OpConcatID)
		return &sqlast.Binary{Op: sqlast.OpConcat,
			L: g.genExpr(sc, tText, depth-1, fs), R: g.genExpr(sc, tText, depth-1, fs)}
	case altFUNC:
		if e := g.genFuncCall(sc, tText, depth, fs); e != nil {
			return e
		}
		return g.genLeaf(sc, tText, fs)
	case feature.ExprCaseID:
		fs.Add(feature.ExprCaseID)
		return g.genCase(sc, tText, depth, fs)
	case feature.ExprCastID:
		fs.Add(feature.ExprCastID)
		return &sqlast.Cast{X: g.genExpr(sc, g.operandType(), depth-1, fs), To: sqlast.TypeText}
	default:
		return g.genLeaf(sc, tText, fs)
	}
}

// genCase generates a searched or operand CASE of the wanted result type.
func (g *Generator) genCase(sc *exprScope, want typ, depth int, fs *feature.Set) sqlast.Expr {
	c := &sqlast.Case{}
	n := 1 + g.intn(2)
	if g.prob(0.3) {
		t := g.operandType()
		c.Operand = g.genExpr(sc, t, depth-1, fs)
		for i := 0; i < n; i++ {
			c.Whens = append(c.Whens, sqlast.When{
				Cond: g.genExpr(sc, t, depth-1, fs),
				Then: g.genExpr(sc, want, depth-1, fs),
			})
		}
	} else {
		for i := 0; i < n; i++ {
			c.Whens = append(c.Whens, sqlast.When{
				Cond: g.genBool(sc, depth-1, fs),
				Then: g.genExpr(sc, want, depth-1, fs),
			})
		}
	}
	if g.prob(0.7) {
		c.Else = g.genExpr(sc, want, depth-1, fs)
	}
	return c
}

// genFuncCall generates a call to a function with the wanted result
// type, tracking the composite per-argument type features (SIN#1=INTEGER
// in the paper's Appendix A.1). Returns nil when no candidate exists.
func (g *Generator) genFuncCall(sc *exprScope, want typ, depth int, fs *feature.Set) sqlast.Expr {
	id, ok := g.pickFunc(want)
	if !ok {
		return nil
	}
	def := engine.FuncByID(id)
	fs.Add(id)
	nArgs := def.MinArgs
	if def.MaxArgs > def.MinArgs {
		nArgs += g.intn(def.MaxArgs - def.MinArgs + 1)
	} else if def.MaxArgs < 0 {
		nArgs += g.intn(2)
	}
	call := &sqlast.Func{Name: def.Name}
	for i := 0; i < nArgs; i++ {
		at := g.argType(def, i, want)
		// Composite type feature: the generator learns per-argument
		// expected types through these.
		argFeat := feature.FuncArgID(id, i+1, at.featureID())
		if !g.supported(argFeat) {
			// Pick the declared kind instead.
			at = declaredArgType(def, i, want)
			argFeat = feature.FuncArgID(id, i+1, at.featureID())
		}
		fs.Add(argFeat)
		call.Args = append(call.Args, g.genExpr(sc, at, depth-1, fs))
	}
	return call
}

// pickFunc picks uniformly among the supported functions with the wanted
// result type, in pool order; false when none is left.
func (g *Generator) pickFunc(want typ) (feature.ID, bool) {
	var pool []feature.ID
	switch want {
	case tInt:
		pool = g.intPool
	case tText:
		pool = g.textPool
	default:
		return 0, false
	}
	candidates := g.choiceBuf[:0]
	for _, fn := range pool {
		if g.supported(fn) {
			candidates = append(candidates, fn)
		}
	}
	g.choiceBuf = candidates
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[g.intn(len(candidates))], true
}

// argType picks an argument type: usually the declared kind, sometimes a
// deliberate experiment.
func (g *Generator) argType(def *engine.FuncDef, i int, want typ) typ {
	if g.prob(g.cfg.MismatchProb) && g.supported(feature.PropImplicitCastID) {
		return typ(g.intn(3))
	}
	return declaredArgType(def, i, want)
}

func declaredArgType(def *engine.FuncDef, i int, want typ) typ {
	if len(def.ArgKinds) == 0 {
		return want
	}
	k := def.ArgKinds[len(def.ArgKinds)-1]
	if i < len(def.ArgKinds) {
		k = def.ArgKinds[i]
	}
	switch k {
	case engine.KindInt:
		return tInt
	case engine.KindText:
		return tText
	case engine.KindBool:
		return tBool
	default: // KindNull: polymorphic — use the wanted type
		return want
	}
}

// genScalarSubquery produces (SELECT expr FROM t [WHERE p] LIMIT 1) of
// the wanted type, or nil if no table exists.
func (g *Generator) genScalarSubquery(sc *exprScope, want typ, depth int, fs *feature.Set) sqlast.Expr {
	if !g.supported(feature.SubqueryID) {
		return nil
	}
	sub := g.genSubSelect(sc, depth, fs)
	if sub == nil {
		return nil
	}
	fs.Add(feature.SubqueryID)
	// Exactly one projected column of the wanted type; LIMIT 1 bounds the
	// row count so the scalar subquery cannot fail at runtime.
	inner := sub.From[0].Ref.(*sqlast.TableName)
	rel := g.model.Relation(inner.Name)
	innerScope := &exprScope{gen: g}
	for _, c := range rel.Columns {
		innerScope.cols = append(innerScope.cols, scopeCol{Table: inner.RefName(), Column: c.Name, Type: typOf(c.Type)})
	}
	sub.Items = []sqlast.SelectItem{{Expr: g.genExpr(innerScope, want, depth-1, fs)}}
	one := int64(1)
	if g.supported(feature.LimitID) {
		fs.Add(feature.LimitID)
		sub.Limit = &one
	} else {
		// Without LIMIT, aggregate to guarantee a single row.
		sub.Items = []sqlast.SelectItem{{Expr: &sqlast.Func{Name: "MAX", Args: []sqlast.Expr{sub.Items[0].Expr}}}}
		fs.Add(feature.FnMAX)
		fs.Add(feature.ExprAggrID)
	}
	return &sqlast.Subquery{Select: sub}
}

// genSubSelect builds the skeleton SELECT * FROM t [WHERE pred] over a
// random model table, used by EXISTS and scalar subqueries.
func (g *Generator) genSubSelect(sc *exprScope, depth int, fs *feature.Set) *sqlast.Select {
	tables := g.model.Tables()
	if len(tables) == 0 || !g.supported(feature.SubqueryID) {
		return nil
	}
	t := tables[g.intn(len(tables))]
	sel := &sqlast.Select{
		Items: []sqlast.SelectItem{{Star: true}},
		From:  []sqlast.FromItem{{Ref: &sqlast.TableName{Name: t.Name}}},
	}
	if g.prob(0.5) {
		innerScope := &exprScope{gen: g}
		for _, c := range t.Columns {
			innerScope.cols = append(innerScope.cols, scopeCol{Table: t.Name, Column: c.Name, Type: typOf(c.Type)})
		}
		// Correlated predicates may also reference the outer scope.
		innerScope.cols = append(innerScope.cols, sc.cols...)
		sel.Where = g.genBool(innerScope, depth-1, fs)
		fs.Add(feature.ClauseWhereID)
	}
	return sel
}
