package engine

import (
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// validateExpr checks feature support and name resolution for an
// expression, and infers its type. On dynamically typed dialects the
// returned type is advisory (TypeUnknown unless structurally known); on
// static dialects mismatches are semantic errors.
// allowAggr permits aggregate calls (projections, HAVING, ORDER BY).
// Each call is one level of the statement's expression nesting; an
// expression inside a subquery nests below the subquery.
func (s *DB) validateExpr(e sqlast.Expr, sc *scope, allowAggr bool) (sqlast.Type, error) {
	s.depth++
	s.maxDepth = max(s.maxDepth, s.depth)
	t, err := s.validateNode(e, sc, allowAggr)
	s.depth--
	return t, err
}

// validateNode is validateExpr for the expression's own node.
func (s *DB) validateNode(e sqlast.Expr, sc *scope, allowAggr bool) (sqlast.Type, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		switch x.Kind {
		case sqlast.LitNull:
			return sqlast.TypeUnknown, nil
		case sqlast.LitInt:
			return sqlast.TypeInt, nil
		case sqlast.LitText:
			return sqlast.TypeText, nil
		case sqlast.LitBool:
			if !s.uses(&s.dialect.Types, feature.TypeBooleanID) {
				return sqlast.TypeUnknown, unsupported(feature.TypeBoolean)
			}
			return sqlast.TypeBool, nil
		}
		return sqlast.TypeUnknown, nil

	case *sqlast.ColumnRef:
		typ, err := sc.resolve(x.Table, x.Column)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		return typ, nil

	case *sqlast.Unary:
		switch x.Op {
		case sqlast.UBitNot:
			if !s.uses(&s.dialect.Operators, feature.OpBitNotID) {
				return sqlast.TypeUnknown, unsupported(feature.OpBitNot)
			}
		case sqlast.UNot:
			if !s.uses(&s.dialect.Operators, feature.ExprNotID) {
				return sqlast.TypeUnknown, unsupported(feature.ExprNot)
			}
		}
		typ, err := s.validateExpr(x.X, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			want := sqlast.TypeInt
			if x.Op == sqlast.UNot {
				want = sqlast.TypeBool
			}
			if _, ok := unify(typ, want); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires %s operand", x.Op, want)
			}
			return want, nil
		}
		if x.Op == sqlast.UNot {
			return sqlast.TypeBool, nil
		}
		return sqlast.TypeInt, nil

	case *sqlast.Binary:
		return s.validateBinary(x, sc, allowAggr)

	case *sqlast.Func:
		return s.validateFunc(x, sc, allowAggr)

	case *sqlast.Case:
		return s.validateCase(x, sc, allowAggr)

	case *sqlast.Cast:
		if !s.uses(&s.dialect.Operators, feature.ExprCastID) {
			return sqlast.TypeUnknown, unsupported(feature.ExprCast)
		}
		if !s.supportsType(x.To) {
			return sqlast.TypeUnknown, unsupported(x.To.String())
		}
		if _, err := s.validateExpr(x.X, sc, allowAggr); err != nil {
			return sqlast.TypeUnknown, err
		}
		return x.To, nil

	case *sqlast.Between:
		if !s.uses(&s.dialect.Operators, feature.ExprBetweenID) {
			return sqlast.TypeUnknown, unsupported(feature.ExprBetween)
		}
		tx, err := s.validateExpr(x.X, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		tl, err := s.validateExpr(x.Lo, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		th, err := s.validateExpr(x.Hi, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			t, ok := unify(tx, tl)
			if ok {
				_, ok = unify(t, th)
			}
			if !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "BETWEEN operands must have compatible types")
			}
		}
		return sqlast.TypeBool, nil

	case *sqlast.InList:
		id := feature.ExprInID
		if x.Not {
			id = feature.ExprNotInID
		}
		if !s.uses(&s.dialect.Operators, id) {
			return sqlast.TypeUnknown, unsupported(feature.Name(id))
		}
		tx, err := s.validateExpr(x.X, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		for _, item := range x.List {
			ti, err := s.validateExpr(item, sc, allowAggr)
			if err != nil {
				return sqlast.TypeUnknown, err
			}
			if s.static() {
				if _, ok := unify(tx, ti); !ok {
					return sqlast.TypeUnknown, errf(ErrSemantic, "IN list operands must have compatible types")
				}
			}
		}
		return sqlast.TypeBool, nil

	case *sqlast.IsNull:
		if !s.uses(&s.dialect.Operators, feature.ExprIsNullID) {
			return sqlast.TypeUnknown, unsupported(feature.ExprIsNull)
		}
		if _, err := s.validateExpr(x.X, sc, allowAggr); err != nil {
			return sqlast.TypeUnknown, err
		}
		return sqlast.TypeBool, nil

	case *sqlast.IsBool:
		if !s.uses(&s.dialect.Operators, feature.ExprIsBoolID) {
			return sqlast.TypeUnknown, unsupported(feature.ExprIsBool)
		}
		typ, err := s.validateExpr(x.X, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			if _, ok := unify(typ, sqlast.TypeBool); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "IS TRUE/FALSE requires a boolean operand")
			}
		}
		return sqlast.TypeBool, nil

	case *sqlast.Like:
		id := feature.ExprLikeID
		if x.Kind == sqlast.LikeGlob {
			id = feature.ExprGlobID
		}
		if !s.uses(&s.dialect.Operators, id) {
			return sqlast.TypeUnknown, unsupported(feature.Name(id))
		}
		tx, err := s.validateExpr(x.X, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		tp, err := s.validateExpr(x.Pattern, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			if _, ok := unify(tx, sqlast.TypeText); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "LIKE requires TEXT operands")
			}
			if _, ok := unify(tp, sqlast.TypeText); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "LIKE requires a TEXT pattern")
			}
		}
		return sqlast.TypeBool, nil

	case *sqlast.Subquery:
		if !s.uses(&s.dialect.Clauses, feature.SubqueryID) {
			return sqlast.TypeUnknown, unsupported(feature.Subquery)
		}
		cols, err := s.validateSelect(x.Select, sc)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if len(cols) != 1 {
			return sqlast.TypeUnknown, errf(ErrSemantic, "scalar subquery must return exactly one column")
		}
		return cols[0].Type, nil

	case *sqlast.Exists:
		if !s.uses(&s.dialect.Operators, feature.ExprExistsID) {
			return sqlast.TypeUnknown, unsupported(feature.ExprExists)
		}
		if _, err := s.validateSelect(x.Select, sc); err != nil {
			return sqlast.TypeUnknown, err
		}
		return sqlast.TypeBool, nil

	default:
		return sqlast.TypeUnknown, errf(ErrSemantic, "unhandled expression kind")
	}
}

func (s *DB) validateBinary(x *sqlast.Binary, sc *scope, allowAggr bool) (sqlast.Type, error) {
	id := binaryFeature(x.Op)
	op := feature.Name(id)
	if !s.uses(&s.dialect.Operators, id) {
		return sqlast.TypeUnknown, unsupported(op)
	}
	lt, err := s.validateExpr(x.L, sc, allowAggr)
	if err != nil {
		return sqlast.TypeUnknown, err
	}
	rt, err := s.validateExpr(x.R, sc, allowAggr)
	if err != nil {
		return sqlast.TypeUnknown, err
	}
	if !s.static() {
		switch {
		case x.Op.IsComparison(), x.Op.IsLogical():
			return sqlast.TypeBool, nil
		case x.Op == sqlast.OpConcat:
			return sqlast.TypeText, nil
		default:
			return sqlast.TypeInt, nil
		}
	}
	switch {
	case x.Op == sqlast.OpConcat:
		if _, ok := unify(lt, sqlast.TypeText); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "|| requires TEXT operands")
		}
		if _, ok := unify(rt, sqlast.TypeText); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "|| requires TEXT operands")
		}
		return sqlast.TypeText, nil
	case x.Op.IsArithmetic():
		if _, ok := unify(lt, sqlast.TypeInt); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires INTEGER operands", op)
		}
		if _, ok := unify(rt, sqlast.TypeInt); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires INTEGER operands", op)
		}
		return sqlast.TypeInt, nil
	case x.Op.IsComparison():
		if _, ok := unify(lt, rt); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires compatible operand types", op)
		}
		return sqlast.TypeBool, nil
	case x.Op.IsLogical():
		if _, ok := unify(lt, sqlast.TypeBool); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires BOOLEAN operands", op)
		}
		if _, ok := unify(rt, sqlast.TypeBool); !ok {
			return sqlast.TypeUnknown, errf(ErrSemantic, "operator %s requires BOOLEAN operands", op)
		}
		return sqlast.TypeBool, nil
	default:
		return sqlast.TypeUnknown, errf(ErrSemantic, "unhandled operator %s", op)
	}
}

// validateCase checks a CASE expression: an operand CASE compares the
// operand with each WHEN; a searched CASE requires boolean WHENs. All
// THEN/ELSE results must share a type family.
func (s *DB) validateCase(x *sqlast.Case, sc *scope, allowAggr bool) (sqlast.Type, error) {
	if !s.uses(&s.dialect.Operators, feature.ExprCaseID) {
		return sqlast.TypeUnknown, unsupported(feature.ExprCase)
	}
	var opType sqlast.Type = sqlast.TypeUnknown
	if x.Operand != nil {
		t, err := s.validateExpr(x.Operand, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		opType = t
	}
	var resType sqlast.Type = sqlast.TypeUnknown
	for i := range x.Whens {
		ct, err := s.validateExpr(x.Whens[i].Cond, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			if x.Operand != nil {
				if _, ok := unify(opType, ct); !ok {
					return sqlast.TypeUnknown, errf(ErrSemantic, "CASE operand and WHEN types are incompatible")
				}
			} else if _, ok := unify(ct, sqlast.TypeBool); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "searched CASE requires boolean WHEN conditions")
			}
		}
		tt, err := s.validateExpr(x.Whens[i].Then, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			u, ok := unify(resType, tt)
			if !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "CASE branches have incompatible types")
			}
			resType = u
		}
	}
	if x.Else != nil {
		et, err := s.validateExpr(x.Else, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if s.static() {
			u, ok := unify(resType, et)
			if !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "CASE branches have incompatible types")
			}
			resType = u
		}
	}
	return resType, nil
}

func kindToType(k Kind) sqlast.Type {
	switch k {
	case KindInt:
		return sqlast.TypeInt
	case KindText:
		return sqlast.TypeText
	case KindBool:
		return sqlast.TypeBool
	default:
		return sqlast.TypeUnknown
	}
}

func (s *DB) validateFunc(x *sqlast.Func, sc *scope, allowAggr bool) (sqlast.Type, error) {
	if isAggregate(x) {
		return s.validateAggregate(x, sc, allowAggr)
	}
	// Scalar MIN/MAX: two or more arguments of one comparable family
	// (SQLite-style).
	if (x.Name == "MIN" || x.Name == "MAX") && len(x.Args) >= 2 {
		if !s.usesFunction(x.Name) {
			return sqlast.TypeUnknown, unsupported(x.Name)
		}
		var res sqlast.Type = sqlast.TypeUnknown
		for _, a := range x.Args {
			at, err := s.validateExpr(a, sc, allowAggr)
			if err != nil {
				return sqlast.TypeUnknown, err
			}
			if s.static() {
				u, ok := unify(res, at)
				if !ok {
					return sqlast.TypeUnknown, errf(ErrSemantic, "%s arguments must have compatible types", x.Name)
				}
				res = u
			}
		}
		return res, nil
	}
	def := LookupFunc(x.Name)
	if def == nil {
		return sqlast.TypeUnknown, errf(ErrSemantic, "no such function %s", x.Name)
	}
	if !s.uses(&s.dialect.Functions, def.Feature) {
		return sqlast.TypeUnknown, unsupported(x.Name)
	}
	if x.Star || x.Distinct {
		return sqlast.TypeUnknown, errf(ErrSemantic, "%s is not an aggregate function", x.Name)
	}
	if len(x.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(x.Args) > def.MaxArgs) {
		return sqlast.TypeUnknown, errf(ErrSemantic, "wrong number of arguments to %s", x.Name)
	}
	var firstArg sqlast.Type = sqlast.TypeUnknown
	for i, a := range x.Args {
		at, err := s.validateExpr(a, sc, allowAggr)
		if err != nil {
			return sqlast.TypeUnknown, err
		}
		if i == 0 {
			firstArg = at
		}
		if s.static() && len(def.ArgKinds) > 0 {
			want := def.ArgKinds[min(i, len(def.ArgKinds)-1)]
			if want != KindNull {
				if _, ok := unify(at, kindToType(want)); !ok {
					return sqlast.TypeUnknown, errf(ErrSemantic,
						"argument %d of %s must be %s", i+1, x.Name, want)
				}
			}
		}
	}
	if def.Result == KindNull {
		return firstArg, nil
	}
	return kindToType(def.Result), nil
}

func (s *DB) validateAggregate(x *sqlast.Func, sc *scope, allowAggr bool) (sqlast.Type, error) {
	if !allowAggr {
		return sqlast.TypeUnknown, errf(ErrSemantic, "aggregate %s is not allowed here", x.Name)
	}
	if !s.usesFunction(x.Name) {
		return sqlast.TypeUnknown, unsupported(x.Name)
	}
	if x.Distinct {
		s.feats.Add(feature.DistinctID) // no support check inside an aggregate: recorded only
	}
	if x.Star {
		if x.Name != "COUNT" {
			return sqlast.TypeUnknown, errf(ErrSemantic, "%s(*) is not valid", x.Name)
		}
		return sqlast.TypeInt, nil
	}
	if len(x.Args) != 1 {
		return sqlast.TypeUnknown, errf(ErrSemantic, "aggregate %s takes one argument", x.Name)
	}
	at, err := s.validateExpr(x.Args[0], sc, false) // aggregates must not nest
	if err != nil {
		return sqlast.TypeUnknown, err
	}
	switch x.Name {
	case "COUNT":
		return sqlast.TypeInt, nil
	case "SUM", "AVG":
		if s.static() {
			if _, ok := unify(at, sqlast.TypeInt); !ok {
				return sqlast.TypeUnknown, errf(ErrSemantic, "%s requires an INTEGER argument", x.Name)
			}
		}
		return sqlast.TypeInt, nil
	default: // MIN, MAX
		return at, nil
	}
}

// uses records that the statement uses feature id and reports whether
// the dialect supports it, have being the dialect's set for its kind.
func (s *DB) uses(have *feature.Set, id feature.ID) bool {
	s.feats.Add(id)
	return have.Has(id)
}

// supportsType reports whether the dialect supports a data type, without
// recording it: a CAST target or an added column's type is not one of
// the statement's features.
func (s *DB) supportsType(t sqlast.Type) bool {
	id, ok := typeFeature(t)
	return ok && s.dialect.Types.Has(id)
}

// usesFunction is uses for a function or aggregate by name.
func (s *DB) usesFunction(name string) bool {
	id, ok := funcFeature(name)
	return ok && s.uses(&s.dialect.Functions, id)
}

// joinFeatureID returns a join type's feature.
func joinFeatureID(j sqlast.JoinType) (feature.ID, bool) {
	switch j {
	case sqlast.JoinComma:
		return feature.JoinCommaID, true
	case sqlast.JoinInner:
		return feature.JoinInnerID, true
	case sqlast.JoinLeft:
		return feature.JoinLeftID, true
	case sqlast.JoinRight:
		return feature.JoinRightID, true
	case sqlast.JoinFull:
		return feature.JoinFullID, true
	case sqlast.JoinCross:
		return feature.JoinCrossID, true
	case sqlast.JoinNatural:
		return feature.JoinNaturalID, true
	default:
		return 0, false
	}
}

// joinFeature is joinFeatureID's name ("" for none).
func joinFeature(j sqlast.JoinType) string {
	if id, ok := joinFeatureID(j); ok {
		return feature.Name(id)
	}
	return ""
}

// binaryFeature returns an operator's feature: feature.BinaryOperators
// lists the spellings in sqlast.BinaryOp order.
func binaryFeature(op sqlast.BinaryOp) feature.ID { return feature.BinaryOperatorIDs[op] }

// typeFeature returns a data type's feature.
func typeFeature(t sqlast.Type) (feature.ID, bool) {
	switch t {
	case sqlast.TypeInt:
		return feature.TypeIntegerID, true
	case sqlast.TypeText:
		return feature.TypeTextID, true
	case sqlast.TypeBool:
		return feature.TypeBooleanID, true
	default:
		return 0, false
	}
}
