package engine

// The reference feature walk: the standalone scanner that fed the fault
// check before validation recorded a statement's features and depth
// itself. It walks the AST alone, with no dialect and no name
// resolution, and the property test in feature_walk_test.go checks the
// validator's record against it on every statement that validates.

import (
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// ReferenceFeatures returns the features a statement uses and its
// deepest expression nesting, by the reference walk.
func ReferenceFeatures(stmt sqlast.Stmt) (feature.Set, int) {
	var set feature.Set
	refStmtFeatures(stmt, &set)
	return set, refMaxDepth(stmt)
}

// ValidatedFeatures validates stmt on db as run does and returns what
// validation recorded: the statement's features and deepest expression
// nesting. The record is meaningful only when err is nil.
func ValidatedFeatures(db *DB, stmt sqlast.Stmt) (feature.Set, int, error) {
	err := db.validateStmt(stmt)
	return db.feats, db.maxDepth, err
}

// CheckFeatureFaults runs the feature-keyed fault check for the statement
// db validated last.
func CheckFeatureFaults(db *DB) error { return db.checkFeatureFaults() }

// refStmtFeatures adds the features appearing in a statement to set.
func refStmtFeatures(stmt sqlast.Stmt, set *feature.Set) {
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
			refExprFeatures(st.Where, set)
		}
	case *sqlast.CreateView:
		set.Add(feature.StmtCreateViewID)
		if len(st.Columns) > 0 {
			set.Add(feature.ViewColumnNamesID)
		}
		refSelectFeatures(st.Select, set)
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
				refExprFeatures(e, set)
			}
		}
	case *sqlast.Update:
		set.Add(feature.StmtUpdateID)
		for _, a := range st.Sets {
			refExprFeatures(a.Value, set)
		}
		if st.Where != nil {
			set.Add(feature.ClauseWhereID)
			refExprFeatures(st.Where, set)
		}
	case *sqlast.Delete:
		set.Add(feature.StmtDeleteID)
		if st.Where != nil {
			set.Add(feature.ClauseWhereID)
			refExprFeatures(st.Where, set)
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
		refSelectFeatures(st, set)
	}
}

func refSelectFeatures(sel *sqlast.Select, set *feature.Set) {
	set.Add(feature.StmtSelectID)
	if sel.Distinct {
		set.Add(feature.DistinctID)
	}
	for i := range sel.Items {
		refExprFeatures(sel.Items[i].Expr, set)
	}
	for i, f := range sel.From {
		if i > 0 {
			if jf, ok := joinFeatureID(f.Join); ok {
				set.Add(jf)
			}
		}
		if d, ok := f.Ref.(*sqlast.DerivedTable); ok {
			set.Add(feature.DerivedTableID)
			refSelectFeatures(d.Select, set)
		}
		if f.On != nil {
			refExprFeatures(f.On, set)
		}
	}
	if sel.Where != nil {
		set.Add(feature.ClauseWhereID)
		refExprFeatures(sel.Where, set)
	}
	if len(sel.GroupBy) > 0 {
		set.Add(feature.GroupByID)
		for _, g := range sel.GroupBy {
			refExprFeatures(g, set)
		}
	}
	if sel.Having != nil {
		set.Add(feature.HavingID)
		refExprFeatures(sel.Having, set)
	}
	for _, part := range sel.Compound {
		set.Add(setOpFeatureID(part.Op))
		refSelectFeatures(part.Select, set)
	}
	if len(sel.OrderBy) > 0 {
		set.Add(feature.OrderByID)
		for _, o := range sel.OrderBy {
			refExprFeatures(o.Expr, set)
		}
	}
	if sel.Limit != nil {
		set.Add(feature.LimitID)
	}
	if sel.Offset != nil {
		set.Add(feature.OffsetID)
	}
}

func refExprFeatures(e sqlast.Expr, set *feature.Set) {
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
			refSelectFeatures(n.Select, set)
			return false // already descended
		case *sqlast.Exists:
			set.Add(feature.ExprExistsID)
			refSelectFeatures(n.Select, set)
			return false
		}
		return true
	})
}

// refExprDepth is the nesting depth of an expression tree.
func refExprDepth(e sqlast.Expr) int {
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
		bump(refExprDepth(x.X))
	case *sqlast.Binary:
		bump(refExprDepth(x.L))
		bump(refExprDepth(x.R))
	case *sqlast.Func:
		for _, a := range x.Args {
			bump(refExprDepth(a))
		}
	case *sqlast.Case:
		bump(refExprDepth(x.Operand))
		for _, w := range x.Whens {
			bump(refExprDepth(w.Cond))
			bump(refExprDepth(w.Then))
		}
		bump(refExprDepth(x.Else))
	case *sqlast.Cast:
		bump(refExprDepth(x.X))
	case *sqlast.Between:
		bump(refExprDepth(x.X))
		bump(refExprDepth(x.Lo))
		bump(refExprDepth(x.Hi))
	case *sqlast.InList:
		bump(refExprDepth(x.X))
		for _, e := range x.List {
			bump(refExprDepth(e))
		}
	case *sqlast.IsNull:
		bump(refExprDepth(x.X))
	case *sqlast.IsBool:
		bump(refExprDepth(x.X))
	case *sqlast.Like:
		bump(refExprDepth(x.X))
		bump(refExprDepth(x.Pattern))
	case *sqlast.Subquery:
		bump(refSelectDepth(x.Select))
	case *sqlast.Exists:
		bump(refSelectDepth(x.Select))
	}
	return max + 1
}

func refSelectDepth(sel *sqlast.Select) int {
	max := 0
	sqlast.WalkSelectExprs(sel, func(e sqlast.Expr) bool {
		if d := refExprDepth(e); d > max {
			max = d
		}
		return false // refExprDepth already descends
	})
	return max
}

// refMaxDepth returns the deepest expression in a statement.
func refMaxDepth(stmt sqlast.Stmt) int {
	max := 0
	bump := func(d int) {
		if d > max {
			max = d
		}
	}
	switch st := stmt.(type) {
	case *sqlast.Select:
		bump(refSelectDepth(st))
	case *sqlast.CreateView:
		bump(refSelectDepth(st.Select))
	case *sqlast.CreateIndex:
		bump(refExprDepth(st.Where))
	case *sqlast.Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				bump(refExprDepth(e))
			}
		}
	case *sqlast.Update:
		for _, a := range st.Sets {
			bump(refExprDepth(a.Value))
		}
		bump(refExprDepth(st.Where))
	case *sqlast.Delete:
		bump(refExprDepth(st.Where))
	}
	return max
}
