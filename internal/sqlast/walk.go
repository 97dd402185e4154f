package sqlast

// WalkExpr calls fn for e and every sub-expression of e, pre-order.
// If fn returns false the children of the current node are skipped.
// Subqueries are descended into (their WHERE/ON/projection expressions).
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil {
		return
	}
	if !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Literal, *ColumnRef:
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Func:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Case:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *Cast:
		WalkExpr(x.X, fn)
	case *Between:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InList:
		WalkExpr(x.X, fn)
		for _, e := range x.List {
			WalkExpr(e, fn)
		}
	case *IsNull:
		WalkExpr(x.X, fn)
	case *IsBool:
		WalkExpr(x.X, fn)
	case *Like:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *Subquery:
		WalkSelectExprs(x.Select, fn)
	case *Exists:
		WalkSelectExprs(x.Select, fn)
	}
}

// WalkSelectExprs walks every expression appearing in a SELECT, including
// nested derived tables and subqueries.
func WalkSelectExprs(s *Select, fn func(Expr) bool) {
	if s == nil {
		return
	}
	for i := range s.Items {
		WalkExpr(s.Items[i].Expr, fn)
	}
	for _, f := range s.From {
		if d, ok := f.Ref.(*DerivedTable); ok {
			WalkSelectExprs(d.Select, fn)
		}
		WalkExpr(f.On, fn)
	}
	WalkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		WalkExpr(g, fn)
	}
	WalkExpr(s.Having, fn)
	for _, part := range s.Compound {
		WalkSelectExprs(part.Select, fn)
	}
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, fn)
	}
}

// CloneExpr returns a deep copy of e.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal:
		c := *x
		return &c
	case *ColumnRef:
		c := *x
		return &c
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &Func{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *Case:
		whens := make([]When, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = When{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)}
		}
		return &Case{Operand: CloneExpr(x.Operand), Whens: whens, Else: CloneExpr(x.Else)}
	case *Cast:
		return &Cast{X: CloneExpr(x.X), To: x.To}
	case *Between:
		return &Between{X: CloneExpr(x.X), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Not: x.Not}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, e := range x.List {
			list[i] = CloneExpr(e)
		}
		return &InList{X: CloneExpr(x.X), List: list, Not: x.Not}
	case *IsNull:
		return &IsNull{X: CloneExpr(x.X), Not: x.Not}
	case *IsBool:
		return &IsBool{X: CloneExpr(x.X), Val: x.Val, Not: x.Not}
	case *Like:
		return &Like{X: CloneExpr(x.X), Pattern: CloneExpr(x.Pattern), Kind: x.Kind, Not: x.Not}
	case *Subquery:
		return &Subquery{Select: CloneSelect(x.Select)}
	case *Exists:
		return &Exists{Select: CloneSelect(x.Select), Not: x.Not}
	default:
		return e
	}
}

// CloneSelect returns a deep copy of s.
func CloneSelect(s *Select) *Select {
	if s == nil {
		return nil
	}
	c := &Select{Distinct: s.Distinct}
	c.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		c.Items[i] = SelectItem{Star: it.Star, Expr: CloneExpr(it.Expr), Alias: it.Alias}
	}
	c.From = make([]FromItem, len(s.From))
	for i, f := range s.From {
		var ref TableRef
		switch r := f.Ref.(type) {
		case *TableName:
			cp := *r
			ref = &cp
		case *DerivedTable:
			ref = &DerivedTable{Select: CloneSelect(r.Select), Alias: r.Alias}
		}
		c.From[i] = FromItem{Ref: ref, Join: f.Join, On: CloneExpr(f.On)}
	}
	c.Where = CloneExpr(s.Where)
	c.GroupBy = make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		c.GroupBy[i] = CloneExpr(g)
	}
	if len(s.GroupBy) == 0 {
		c.GroupBy = nil
	}
	c.Having = CloneExpr(s.Having)
	for _, part := range s.Compound {
		c.Compound = append(c.Compound, CompoundPart{Op: part.Op, Select: CloneSelect(part.Select)})
	}
	if len(s.OrderBy) > 0 {
		c.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			c.OrderBy[i] = OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc}
		}
	}
	if s.Limit != nil {
		v := *s.Limit
		c.Limit = &v
	}
	if s.Offset != nil {
		v := *s.Offset
		c.Offset = &v
	}
	return c
}

// CloneStmt returns a deep copy of st.
func CloneStmt(st Stmt) Stmt {
	switch x := st.(type) {
	case *Select:
		return CloneSelect(x)
	case *CreateTable:
		c := *x
		c.Columns = append([]ColumnDef(nil), x.Columns...)
		return &c
	case *CreateIndex:
		c := *x
		c.Columns = append([]string(nil), x.Columns...)
		c.Where = CloneExpr(x.Where)
		return &c
	case *CreateView:
		c := *x
		c.Columns = append([]string(nil), x.Columns...)
		c.Select = CloneSelect(x.Select)
		return &c
	case *Insert:
		c := *x
		c.Columns = append([]string(nil), x.Columns...)
		c.Rows = make([][]Expr, len(x.Rows))
		for i, row := range x.Rows {
			c.Rows[i] = make([]Expr, len(row))
			for j, e := range row {
				c.Rows[i][j] = CloneExpr(e)
			}
		}
		return &c
	case *Update:
		c := *x
		c.Sets = make([]Assignment, len(x.Sets))
		for i, a := range x.Sets {
			c.Sets[i] = Assignment{Column: a.Column, Value: CloneExpr(a.Value)}
		}
		c.Where = CloneExpr(x.Where)
		return &c
	case *Delete:
		c := *x
		c.Where = CloneExpr(x.Where)
		return &c
	case *AlterTable:
		c := *x
		if x.AddColumn != nil {
			col := *x.AddColumn
			c.AddColumn = &col
		}
		return &c
	case *DropTable:
		c := *x
		return &c
	case *DropView:
		c := *x
		return &c
	case *DropIndex:
		c := *x
		return &c
	case *Reindex:
		c := *x
		return &c
	case *Analyze:
		c := *x
		return &c
	case *Refresh:
		c := *x
		return &c
	default:
		return st
	}
}
