package engine

import (
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// ScanFeatures returns the canonical feature names appearing in a
// statement, sorted: the statement keyword, clause keywords, operator
// spellings, expression forms, and function names. The experiment
// harness uses it to cross-execute bug-inducing cases (Figure 6).
func ScanFeatures(stmt sqlast.Stmt) []string {
	var set feature.Set
	ScanFeatureSet(stmt, &set)
	return set.Names()
}

// ScanFeatureSet adds the features appearing in a statement to set; the
// engine uses it to trigger feature-keyed faults.
func ScanFeatureSet(stmt sqlast.Stmt, set *feature.Set) {
	switch st := stmt.(type) {
	case *sqlast.CreateTable:
		set.Add(feature.StmtCreateTableID)
		for _, c := range st.Columns {
			if id, ok := typeFeature(c.Type); ok {
				set.Add(id)
			}
			if c.NotNull {
				set.Add(feature.NotNullColumnID)
			}
			if c.Unique {
				set.Add(feature.UniqueColumnID)
			}
			if c.PrimaryKey {
				set.Add(feature.PrimaryKeyID)
			}
		}
	case *sqlast.CreateIndex:
		set.Add(feature.StmtCreateIndexID)
		if st.Unique {
			set.Add(feature.UniqueIndexID)
		}
		if st.Where != nil {
			set.Add(feature.PartialIndexID)
			scanExprFeatures(st.Where, set)
		}
	case *sqlast.CreateView:
		set.Add(feature.StmtCreateViewID)
		if len(st.Columns) > 0 {
			set.Add(feature.ViewColumnNamesID)
		}
		scanSelectFeatures(st.Select, set)
	case *sqlast.Insert:
		set.Add(feature.StmtInsertID)
		if st.OrIgnore {
			set.Add(feature.InsertOrIgnoreID)
		}
		if len(st.Rows) > 1 {
			set.Add(feature.InsertMultiRowID)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				scanExprFeatures(e, set)
			}
		}
	case *sqlast.Update:
		set.Add(feature.StmtUpdateID)
		for _, a := range st.Sets {
			scanExprFeatures(a.Value, set)
		}
		if st.Where != nil {
			set.Add(feature.ClauseWhereID)
			scanExprFeatures(st.Where, set)
		}
	case *sqlast.Delete:
		set.Add(feature.StmtDeleteID)
		if st.Where != nil {
			set.Add(feature.ClauseWhereID)
			scanExprFeatures(st.Where, set)
		}
	case *sqlast.AlterTable:
		set.Add(feature.StmtAlterTableID)
	case *sqlast.DropTable:
		set.Add(feature.StmtDropTableID)
	case *sqlast.DropView:
		set.Add(feature.StmtDropViewID)
	case *sqlast.DropIndex:
		set.Add(feature.StmtDropIndexID)
	case *sqlast.Reindex:
		set.Add(feature.StmtReindexID)
	case *sqlast.Analyze:
		set.Add(feature.StmtAnalyzeID)
	case *sqlast.Refresh:
		set.Add(feature.StmtRefreshID)
	case *sqlast.Select:
		scanSelectFeatures(st, set)
	}
}

func joinFeature(j sqlast.JoinType) string {
	if id, ok := joinFeatureID(j); ok {
		return feature.Name(id)
	}
	return ""
}

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

func scanSelectFeatures(sel *sqlast.Select, set *feature.Set) {
	set.Add(feature.StmtSelectID)
	if sel.Distinct {
		set.Add(feature.DistinctID)
	}
	for i := range sel.Items {
		scanExprFeatures(sel.Items[i].Expr, set)
	}
	for i, f := range sel.From {
		if i > 0 {
			if jf, ok := joinFeatureID(f.Join); ok {
				set.Add(jf)
			}
		}
		if d, ok := f.Ref.(*sqlast.DerivedTable); ok {
			set.Add(feature.DerivedTableID)
			scanSelectFeatures(d.Select, set)
		}
		if f.On != nil {
			scanExprFeatures(f.On, set)
		}
	}
	if sel.Where != nil {
		set.Add(feature.ClauseWhereID)
		scanExprFeatures(sel.Where, set)
	}
	if len(sel.GroupBy) > 0 {
		set.Add(feature.GroupByID)
		for _, g := range sel.GroupBy {
			scanExprFeatures(g, set)
		}
	}
	if sel.Having != nil {
		set.Add(feature.HavingID)
		scanExprFeatures(sel.Having, set)
	}
	for _, part := range sel.Compound {
		set.Add(setOpFeatureID(part.Op))
		scanSelectFeatures(part.Select, set)
	}
	if len(sel.OrderBy) > 0 {
		set.Add(feature.OrderByID)
		for _, o := range sel.OrderBy {
			scanExprFeatures(o.Expr, set)
		}
	}
	if sel.Limit != nil {
		set.Add(feature.LimitID)
	}
	if sel.Offset != nil {
		set.Add(feature.OffsetID)
	}
}

func scanExprFeatures(e sqlast.Expr, set *feature.Set) {
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Literal:
			if n.Kind == sqlast.LitBool {
				set.Add(feature.TypeBooleanID)
			}
		case *sqlast.Unary:
			if n.Op == sqlast.UBitNot {
				set.Add(feature.OpBitNotID)
			} else if n.Op == sqlast.UNot {
				set.Add(feature.ExprNotID)
			}
		case *sqlast.Binary:
			set.Add(binaryFeature(n.Op))
		case *sqlast.Func:
			if id, ok := funcFeature(n.Name); ok {
				set.Add(id)
			}
			if n.Distinct {
				set.Add(feature.DistinctID)
			}
		case *sqlast.Case:
			set.Add(feature.ExprCaseID)
		case *sqlast.Cast:
			set.Add(feature.ExprCastID)
		case *sqlast.Between:
			set.Add(feature.ExprBetweenID)
		case *sqlast.InList:
			if n.Not {
				set.Add(feature.ExprNotInID)
			} else {
				set.Add(feature.ExprInID)
			}
		case *sqlast.IsNull:
			set.Add(feature.ExprIsNullID)
		case *sqlast.IsBool:
			set.Add(feature.ExprIsBoolID)
		case *sqlast.Like:
			if n.Kind == sqlast.LikeGlob {
				set.Add(feature.ExprGlobID)
			} else {
				set.Add(feature.ExprLikeID)
			}
		case *sqlast.Subquery:
			set.Add(feature.SubqueryID)
			scanSelectFeatures(n.Select, set)
			return false // already descended
		case *sqlast.Exists:
			set.Add(feature.ExprExistsID)
			scanSelectFeatures(n.Select, set)
			return false
		}
		return true
	})
}

// exprDepth computes the nesting depth of an expression tree.
func exprDepth(e sqlast.Expr) int {
	if e == nil {
		return 0
	}
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	switch x := e.(type) {
	case *sqlast.Literal, *sqlast.ColumnRef:
		return 1
	case *sqlast.Unary:
		bump(exprDepth(x.X))
	case *sqlast.Binary:
		bump(exprDepth(x.L))
		bump(exprDepth(x.R))
	case *sqlast.Func:
		for _, a := range x.Args {
			bump(exprDepth(a))
		}
	case *sqlast.Case:
		bump(exprDepth(x.Operand))
		for _, w := range x.Whens {
			bump(exprDepth(w.Cond))
			bump(exprDepth(w.Then))
		}
		bump(exprDepth(x.Else))
	case *sqlast.Cast:
		bump(exprDepth(x.X))
	case *sqlast.Between:
		bump(exprDepth(x.X))
		bump(exprDepth(x.Lo))
		bump(exprDepth(x.Hi))
	case *sqlast.InList:
		bump(exprDepth(x.X))
		for _, e := range x.List {
			bump(exprDepth(e))
		}
	case *sqlast.IsNull:
		bump(exprDepth(x.X))
	case *sqlast.IsBool:
		bump(exprDepth(x.X))
	case *sqlast.Like:
		bump(exprDepth(x.X))
		bump(exprDepth(x.Pattern))
	case *sqlast.Subquery:
		bump(maxSelectDepth(x.Select))
	case *sqlast.Exists:
		bump(maxSelectDepth(x.Select))
	}
	return max + 1
}

func maxSelectDepth(sel *sqlast.Select) int {
	max := 0
	sqlast.WalkSelectExprs(sel, func(e sqlast.Expr) bool {
		if d := exprDepth(e); d > max {
			max = d
		}
		return false // exprDepth already descends
	})
	return max
}

// maxExprDepth returns the deepest expression in a statement.
func maxExprDepth(stmt sqlast.Stmt) int {
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	switch st := stmt.(type) {
	case *sqlast.Select:
		bump(maxSelectDepth(st))
	case *sqlast.CreateView:
		bump(maxSelectDepth(st.Select))
	case *sqlast.CreateIndex:
		bump(exprDepth(st.Where))
	case *sqlast.Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				bump(exprDepth(e))
			}
		}
	case *sqlast.Update:
		for _, a := range st.Sets {
			bump(exprDepth(a.Value))
		}
		bump(exprDepth(st.Where))
	case *sqlast.Delete:
		bump(exprDepth(st.Where))
	}
	return max
}
