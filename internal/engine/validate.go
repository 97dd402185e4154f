package engine

import (
	"strings"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// scope is a name-resolution environment: the relations visible to an
// expression, with a link to the enclosing query's scope for correlated
// subqueries.
type scope struct {
	rels  []scopeRel
	outer *scope
}

type scopeRel struct {
	alias string
	cols  []Column
}

// newScope is a scope over rels in the statement scratch.
func (s *DB) newScope(outer *scope, rels []scopeRel) *scope {
	sc := &s.st.scopes.alloc(1)[0]
	sc.outer, sc.rels = outer, rels
	return sc
}

// tableScope is the scope of a statement over one table.
func (s *DB) tableScope(t *Table) *scope {
	rels := s.st.srels.alloc(1)
	rels[0] = scopeRel{alias: t.Name, cols: t.Columns}
	return s.newScope(nil, rels)
}

// resolve finds a column's type. Unqualified names must be unambiguous.
func (sc *scope) resolve(table, col string) (sqlast.Type, *Error) {
	for s := sc; s != nil; s = s.outer {
		var found *Column
		matches := 0
		for i := range s.rels {
			rel := &s.rels[i]
			if table != "" && !strings.EqualFold(rel.alias, table) {
				continue
			}
			for j := range rel.cols {
				if strings.EqualFold(rel.cols[j].Name, col) {
					found = &rel.cols[j]
					matches++
				}
			}
		}
		if matches > 1 {
			return sqlast.TypeUnknown, errf(ErrSemantic, "ambiguous column reference %q", col)
		}
		if matches == 1 {
			return found.Type, nil
		}
	}
	if table != "" {
		return sqlast.TypeUnknown, errf(ErrSemantic, "no such column %s.%s", table, col)
	}
	return sqlast.TypeUnknown, errf(ErrSemantic, "no such column %s", col)
}

// unify returns the common type of a and b, if they have one: Unknown
// unifies with anything (it arises from NULL literals and polymorphic
// functions).
func unify(a, b sqlast.Type) (sqlast.Type, bool) {
	if a == sqlast.TypeUnknown {
		return b, true
	}
	if b == sqlast.TypeUnknown || a == b {
		return a, true
	}
	return sqlast.TypeUnknown, false
}

func (s *DB) static() bool { return s.dialect.TypeSystem == dialect.Static }

// validateStmt checks dialect feature support, resolves names, and (for
// statically typed dialects) type-checks the statement. On the way it
// records the features the statement uses and its deepest expression
// nesting in s.feats and s.maxDepth, which the fault check reads: each
// support check goes through uses, and depth counts the open
// validateExpr calls. The record is complete only when validation
// passes.
func (s *DB) validateStmt(stmt sqlast.Stmt) error {
	s.feats = feature.Set{}
	s.depth, s.maxDepth = 0, 0
	switch st := stmt.(type) {
	case *sqlast.Select:
		if !s.uses(&s.dialect.Statements, feature.StmtSelectID) {
			return unsupported(feature.StmtSelect)
		}
		_, err := s.validateSelect(st, nil)
		return err
	case *sqlast.CreateTable:
		return s.validateCreateTable(st)
	case *sqlast.CreateIndex:
		return s.validateCreateIndex(st)
	case *sqlast.CreateView:
		return s.validateCreateView(st)
	case *sqlast.Insert:
		return s.validateInsert(st)
	case *sqlast.Update:
		return s.validateUpdate(st)
	case *sqlast.Delete:
		return s.validateDelete(st)
	case *sqlast.AlterTable:
		if !s.uses(&s.dialect.Statements, feature.StmtAlterTableID) {
			return unsupported(feature.StmtAlterTable)
		}
		if st.AddColumn != nil && !s.supportsType(st.AddColumn.Type) {
			return unsupported(st.AddColumn.Type.String())
		}
		return nil
	case *sqlast.DropTable:
		if !s.uses(&s.dialect.Statements, feature.StmtDropTableID) {
			return unsupported(feature.StmtDropTable)
		}
		return nil
	case *sqlast.DropView:
		if !s.uses(&s.dialect.Statements, feature.StmtDropViewID) {
			return unsupported(feature.StmtDropView)
		}
		return nil
	case *sqlast.DropIndex:
		if !s.uses(&s.dialect.Statements, feature.StmtDropIndexID) {
			return unsupported(feature.StmtDropIndex)
		}
		return nil
	case *sqlast.Reindex:
		if !s.uses(&s.dialect.Statements, feature.StmtReindexID) {
			return unsupported(feature.StmtReindex)
		}
		return nil
	case *sqlast.Analyze:
		if !s.uses(&s.dialect.Statements, feature.StmtAnalyzeID) {
			return unsupported(feature.StmtAnalyze)
		}
		return nil
	case *sqlast.Refresh:
		if !s.uses(&s.dialect.Statements, feature.StmtRefreshID) {
			return unsupported(feature.StmtRefresh)
		}
		return nil
	default:
		return errf(ErrSemantic, "unhandled statement kind")
	}
}

func (s *DB) validateCreateTable(st *sqlast.CreateTable) error {
	if !s.uses(&s.dialect.Statements, feature.StmtCreateTableID) {
		return unsupported(feature.StmtCreateTable)
	}
	if len(st.Columns) == 0 {
		return errf(ErrSemantic, "table %s has no columns", st.Name)
	}
	seen := map[string]bool{}
	for _, c := range st.Columns {
		if id, ok := typeFeature(c.Type); !ok || !s.uses(&s.dialect.Types, id) {
			return unsupported(c.Type.String())
		}
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return errf(ErrSemantic, "duplicate column name %q", c.Name)
		}
		seen[lc] = true
		if c.NotNull && !s.uses(&s.dialect.Clauses, feature.NotNullColumnID) {
			return unsupported(feature.NotNullColumn)
		}
		if c.Unique && !s.uses(&s.dialect.Clauses, feature.UniqueColumnID) {
			return unsupported(feature.UniqueColumn)
		}
		if c.PrimaryKey && !s.uses(&s.dialect.Clauses, feature.PrimaryKeyID) {
			return unsupported(feature.PrimaryKey)
		}
	}
	return nil
}

func (s *DB) validateCreateIndex(st *sqlast.CreateIndex) error {
	if !s.uses(&s.dialect.Statements, feature.StmtCreateIndexID) {
		return unsupported(feature.StmtCreateIndex)
	}
	if st.Unique && !s.uses(&s.dialect.Clauses, feature.UniqueIndexID) {
		return unsupported(feature.UniqueIndex)
	}
	if st.Where != nil && !s.uses(&s.dialect.Clauses, feature.PartialIndexID) {
		return unsupported(feature.PartialIndex)
	}
	if len(st.Columns) > 1 && !s.dialect.Clauses.Has(feature.CompositeIndexID) {
		return unsupported(feature.CompositeIndex)
	}
	if max := s.dialect.MaxIndexColumns; max > 0 && len(st.Columns) > max {
		return errf(ErrSemantic, "index %q has %d columns, dialect allows at most %d",
			st.Name, len(st.Columns), max)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	seen := map[string]bool{}
	for _, c := range st.Columns {
		if t.ColumnIndex(c) < 0 {
			return errf(ErrSemantic, "no such column %q in table %q", c, st.Table)
		}
		lc := strings.ToLower(c)
		if seen[lc] {
			return errf(ErrSemantic, "duplicate column %q in index %q", c, st.Name)
		}
		seen[lc] = true
	}
	if st.Where != nil {
		typ, err := s.validateExpr(st.Where, s.tableScope(t), false)
		if err != nil {
			return err
		}
		if s.static() {
			if _, ok := unify(typ, sqlast.TypeBool); !ok {
				return errf(ErrSemantic, "partial index predicate must be boolean")
			}
		}
	}
	return nil
}

func (s *DB) validateCreateView(st *sqlast.CreateView) error {
	if !s.uses(&s.dialect.Statements, feature.StmtCreateViewID) {
		return unsupported(feature.StmtCreateView)
	}
	if len(st.Columns) > 0 && !s.uses(&s.dialect.Clauses, feature.ViewColumnNamesID) {
		return unsupported(feature.ViewColumnNames)
	}
	cols, err := s.validateSelect(st.Select, nil)
	if err != nil {
		return err
	}
	if len(st.Columns) > 0 && len(st.Columns) != len(cols) {
		return errf(ErrSemantic, "view %s: column list length mismatch", st.Name)
	}
	return nil
}

func (s *DB) validateInsert(st *sqlast.Insert) error {
	if !s.uses(&s.dialect.Statements, feature.StmtInsertID) {
		return unsupported(feature.StmtInsert)
	}
	if st.OrIgnore && !s.uses(&s.dialect.Clauses, feature.InsertOrIgnoreID) {
		return unsupported(feature.InsertOrIgnore)
	}
	if len(st.Rows) > 1 && !s.uses(&s.dialect.Clauses, feature.InsertMultiRowID) {
		return unsupported(feature.InsertMultiRow)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	targets, err := insertTargets(t, st.Columns)
	if err != nil {
		return err
	}
	empty := s.newScope(nil, nil)
	for _, row := range st.Rows {
		if len(row) != len(targets) {
			return errf(ErrSemantic, "INSERT value count %d does not match column count %d", len(row), len(targets))
		}
		for i, e := range row {
			typ, err := s.validateExpr(e, empty, false)
			if err != nil {
				return err
			}
			if s.static() {
				if _, ok := unify(typ, t.Columns[targets[i]].Type); !ok {
					return errf(ErrSemantic, "INSERT: type mismatch for column %q", t.Columns[targets[i]].Name)
				}
			}
		}
	}
	return nil
}

// insertTargets maps an INSERT column list to column positions.
func insertTargets(t *Table, cols []string) ([]int, *Error) {
	if len(cols) == 0 {
		out := make([]int, len(t.Columns))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		idx := t.ColumnIndex(c)
		if idx < 0 {
			return nil, errf(ErrSemantic, "no such column %q in table %q", c, t.Name)
		}
		out[i] = idx
	}
	return out, nil
}

func (s *DB) validateUpdate(st *sqlast.Update) error {
	if !s.uses(&s.dialect.Statements, feature.StmtUpdateID) {
		return unsupported(feature.StmtUpdate)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	sc := s.tableScope(t)
	for _, a := range st.Sets {
		idx := t.ColumnIndex(a.Column)
		if idx < 0 {
			return errf(ErrSemantic, "no such column %q in table %q", a.Column, t.Name)
		}
		typ, err := s.validateExpr(a.Value, sc, false)
		if err != nil {
			return err
		}
		if s.static() {
			if _, ok := unify(typ, t.Columns[idx].Type); !ok {
				return errf(ErrSemantic, "UPDATE: type mismatch for column %q", a.Column)
			}
		}
	}
	if st.Where != nil {
		s.feats.Add(feature.ClauseWhereID) // a DML WHERE has no support check: recorded only
	}
	return s.validateBoolClause(st.Where, sc)
}

func (s *DB) validateDelete(st *sqlast.Delete) error {
	if !s.uses(&s.dialect.Statements, feature.StmtDeleteID) {
		return unsupported(feature.StmtDelete)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	sc := s.tableScope(t)
	if st.Where != nil {
		s.feats.Add(feature.ClauseWhereID) // a DML WHERE has no support check: recorded only
	}
	return s.validateBoolClause(st.Where, sc)
}

func (s *DB) validateBoolClause(e sqlast.Expr, sc *scope) error {
	if e == nil {
		return nil
	}
	typ, err := s.validateExpr(e, sc, false)
	if err != nil {
		return err
	}
	if s.static() {
		if _, ok := unify(typ, sqlast.TypeBool); !ok {
			return errf(ErrSemantic, "predicate must be boolean")
		}
	}
	return nil
}

// validateSelect resolves and checks a SELECT, returning its output
// columns. Its scopes and the columns live in the statement scratch: a
// caller that keeps the columns copies them.
func (s *DB) validateSelect(sel *sqlast.Select, outer *scope) ([]Column, error) {
	// Nested SELECTs (views, derived tables, subqueries, compound arms)
	// need no statement-level support check, but the statement uses
	// SELECT all the same.
	s.feats.Add(feature.StmtSelectID)
	if len(sel.Compound) > 0 {
		return s.validateCompound(sel, outer)
	}
	if sel.Distinct && !s.uses(&s.dialect.Clauses, feature.DistinctID) {
		return nil, unsupported(feature.Distinct)
	}
	sc := s.newScope(outer, s.st.srels.alloc(len(sel.From))[:0])
	for i, f := range sel.From {
		if i > 0 {
			if jf, ok := joinFeatureID(f.Join); ok && !s.uses(&s.dialect.Clauses, jf) {
				return nil, unsupported(feature.Name(jf))
			}
		}
		var rel scopeRel
		switch r := f.Ref.(type) {
		case *sqlast.TableName:
			cols, err := s.relationColumns(r.Name)
			if err != nil {
				return nil, err
			}
			rel = scopeRel{alias: r.RefName(), cols: cols}
		case *sqlast.DerivedTable:
			if !s.uses(&s.dialect.Clauses, feature.DerivedTableID) {
				return nil, unsupported(feature.DerivedTable)
			}
			cols, err := s.validateSelect(r.Select, outer)
			if err != nil {
				return nil, err
			}
			rel = scopeRel{alias: r.Alias, cols: cols}
		}
		la := strings.ToLower(rel.alias)
		for j := range sc.rels {
			if strings.ToLower(sc.rels[j].alias) == la {
				return nil, errf(ErrSemantic, "duplicate table alias %q", rel.alias)
			}
		}
		sc.rels = append(sc.rels, rel) // within the capacity of len(sel.From)
		if f.On != nil {
			if err := s.validateBoolClause(f.On, sc); err != nil {
				return nil, err
			}
		}
	}
	if sel.Where != nil {
		if !s.uses(&s.dialect.Clauses, feature.ClauseWhereID) {
			return nil, unsupported(feature.ClauseWhere)
		}
		if err := s.validateBoolClause(sel.Where, sc); err != nil {
			return nil, err
		}
	}
	if len(sel.GroupBy) > 0 {
		if !s.uses(&s.dialect.Clauses, feature.GroupByID) {
			return nil, unsupported(feature.GroupBy)
		}
		for _, g := range sel.GroupBy {
			if _, err := s.validateExpr(g, sc, false); err != nil {
				return nil, err
			}
		}
	}
	if sel.Having != nil {
		if !s.uses(&s.dialect.Clauses, feature.HavingID) {
			return nil, unsupported(feature.Having)
		}
		if len(sel.GroupBy) == 0 {
			return nil, errf(ErrSemantic, "HAVING requires GROUP BY")
		}
		typ, err := s.validateExpr(sel.Having, sc, true) // aggregates allowed
		if err != nil {
			return nil, err
		}
		if s.static() {
			if _, ok := unify(typ, sqlast.TypeBool); !ok {
				return nil, errf(ErrSemantic, "HAVING predicate must be boolean")
			}
		}
	}
	if len(sel.OrderBy) > 0 {
		if !s.uses(&s.dialect.Clauses, feature.OrderByID) {
			return nil, unsupported(feature.OrderBy)
		}
		for _, o := range sel.OrderBy {
			if _, err := s.validateExpr(o.Expr, sc, true); err != nil {
				return nil, err
			}
		}
	}
	if sel.Limit != nil && !s.uses(&s.dialect.Clauses, feature.LimitID) {
		return nil, unsupported(feature.Limit)
	}
	if sel.Offset != nil && !s.uses(&s.dialect.Clauses, feature.OffsetID) {
		return nil, unsupported(feature.Offset)
	}

	width := 0
	for i := range sel.Items {
		if !sel.Items[i].Star {
			width++
			continue
		}
		for _, rel := range sc.rels {
			width += len(rel.cols)
		}
	}
	out := s.st.cols.alloc(width)[:0]
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			if len(sc.rels) == 0 {
				return nil, errf(ErrSemantic, "SELECT * requires a FROM clause")
			}
			for _, rel := range sc.rels {
				out = append(out, rel.cols...)
			}
			continue
		}
		typ, err := s.validateExpr(item.Expr, sc, true)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = autoColName(len(out) + 1)
			}
		}
		out = append(out, Column{Name: name, Type: typ})
	}
	if len(out) == 0 {
		return nil, errf(ErrSemantic, "SELECT list is empty")
	}
	return out, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// relationColumns returns the output columns of a table or view (a
// view's in the statement scratch).
func (s *DB) relationColumns(name string) ([]Column, *Error) {
	if t := s.store.table(name); t != nil {
		return t.Columns, nil
	}
	if v := s.store.view(name); v != nil {
		cols := s.st.cols.alloc(len(v.Columns))
		for i := range v.Columns {
			cols[i] = Column{Name: v.Columns[i], Type: v.Types[i]}
		}
		return cols, nil
	}
	return nil, errf(ErrSemantic, "no such table or view %q", name)
}

// hasAggregate reports whether an expression contains an aggregate call
// outside of subqueries.
func hasAggregate(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Subquery, *sqlast.Exists:
			return false // aggregates inside subqueries are theirs
		case *sqlast.Func:
			if isAggregate(n) {
				found = true
			}
		}
		return true
	})
	return found
}

// isAggregate reports whether a call is an aggregate. MIN/MAX with two or
// more arguments are scalar functions (SQLite-style).
func isAggregate(f *sqlast.Func) bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG":
		return true
	case "MIN", "MAX":
		return f.Star || len(f.Args) == 1
	default:
		return false
	}
}
