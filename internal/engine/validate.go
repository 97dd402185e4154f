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

// typeFamily collapses Unknown-compatible typing: Unknown unifies with
// anything (it arises from NULL literals and polymorphic functions).
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
// statically typed dialects) type-checks the statement.
func (s *DB) validateStmt(stmt sqlast.Stmt) error {
	switch st := stmt.(type) {
	case *sqlast.Select:
		if !s.dialect.Statements.Has(feature.StmtSelectID) {
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
		if !s.dialect.Statements.Has(feature.StmtAlterTableID) {
			return unsupported(feature.StmtAlterTable)
		}
		if st.AddColumn != nil && !s.supportsType(st.AddColumn.Type) {
			return unsupported(st.AddColumn.Type.String())
		}
		return nil
	case *sqlast.DropTable:
		if !s.dialect.Statements.Has(feature.StmtDropTableID) {
			return unsupported(feature.StmtDropTable)
		}
		return nil
	case *sqlast.DropView:
		if !s.dialect.Statements.Has(feature.StmtDropViewID) {
			return unsupported(feature.StmtDropView)
		}
		return nil
	case *sqlast.DropIndex:
		if !s.dialect.Statements.Has(feature.StmtDropIndexID) {
			return unsupported(feature.StmtDropIndex)
		}
		return nil
	case *sqlast.Reindex:
		if !s.dialect.Statements.Has(feature.StmtReindexID) {
			return unsupported(feature.StmtReindex)
		}
		return nil
	case *sqlast.Analyze:
		if !s.dialect.Statements.Has(feature.StmtAnalyzeID) {
			return unsupported(feature.StmtAnalyze)
		}
		return nil
	case *sqlast.Refresh:
		if !s.dialect.Statements.Has(feature.StmtRefreshID) {
			return unsupported(feature.StmtRefresh)
		}
		return nil
	default:
		return errf(ErrSemantic, "unhandled statement kind")
	}
}

func (s *DB) validateCreateTable(st *sqlast.CreateTable) error {
	if !s.dialect.Statements.Has(feature.StmtCreateTableID) {
		return unsupported(feature.StmtCreateTable)
	}
	if len(st.Columns) == 0 {
		return errf(ErrSemantic, "table %s has no columns", st.Name)
	}
	seen := map[string]bool{}
	for _, c := range st.Columns {
		if !s.supportsType(c.Type) {
			return unsupported(c.Type.String())
		}
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return errf(ErrSemantic, "duplicate column name %q", c.Name)
		}
		seen[lc] = true
		if c.NotNull && !s.dialect.Clauses.Has(feature.NotNullColumnID) {
			return unsupported(feature.NotNullColumn)
		}
		if c.Unique && !s.dialect.Clauses.Has(feature.UniqueColumnID) {
			return unsupported(feature.UniqueColumn)
		}
		if c.PrimaryKey && !s.dialect.Clauses.Has(feature.PrimaryKeyID) {
			return unsupported(feature.PrimaryKey)
		}
	}
	return nil
}

func (s *DB) validateCreateIndex(st *sqlast.CreateIndex) error {
	if !s.dialect.Statements.Has(feature.StmtCreateIndexID) {
		return unsupported(feature.StmtCreateIndex)
	}
	if st.Unique && !s.dialect.Clauses.Has(feature.UniqueIndexID) {
		return unsupported(feature.UniqueIndex)
	}
	if st.Where != nil && !s.dialect.Clauses.Has(feature.PartialIndexID) {
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
		sc := &scope{rels: []scopeRel{{alias: t.Name, cols: t.Columns}}}
		typ, err := s.validateExpr(st.Where, sc, false)
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
	if !s.dialect.Statements.Has(feature.StmtCreateViewID) {
		return unsupported(feature.StmtCreateView)
	}
	if len(st.Columns) > 0 && !s.dialect.Clauses.Has(feature.ViewColumnNamesID) {
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
	if !s.dialect.Statements.Has(feature.StmtInsertID) {
		return unsupported(feature.StmtInsert)
	}
	if st.OrIgnore && !s.dialect.Clauses.Has(feature.InsertOrIgnoreID) {
		return unsupported(feature.InsertOrIgnore)
	}
	if len(st.Rows) > 1 && !s.dialect.Clauses.Has(feature.InsertMultiRowID) {
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
	for _, row := range st.Rows {
		if len(row) != len(targets) {
			return errf(ErrSemantic, "INSERT value count %d does not match column count %d", len(row), len(targets))
		}
		for i, e := range row {
			typ, err := s.validateExpr(e, &scope{}, false)
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
	if !s.dialect.Statements.Has(feature.StmtUpdateID) {
		return unsupported(feature.StmtUpdate)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	sc := &scope{rels: []scopeRel{{alias: t.Name, cols: t.Columns}}}
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
	return s.validateBoolClause(st.Where, sc)
}

func (s *DB) validateDelete(st *sqlast.Delete) error {
	if !s.dialect.Statements.Has(feature.StmtDeleteID) {
		return unsupported(feature.StmtDelete)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	sc := &scope{rels: []scopeRel{{alias: t.Name, cols: t.Columns}}}
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
// columns.
func (s *DB) validateSelect(sel *sqlast.Select, outer *scope) ([]Column, error) {
	if len(sel.Compound) > 0 {
		return s.validateCompound(sel, outer)
	}
	if sel.Distinct && !s.dialect.Clauses.Has(feature.DistinctID) {
		return nil, unsupported(feature.Distinct)
	}
	sc := &scope{outer: outer}
	seenAlias := map[string]bool{}
	for i, f := range sel.From {
		if i > 0 {
			if jf, ok := joinFeatureID(f.Join); ok && !s.dialect.Clauses.Has(jf) {
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
			if !s.dialect.Clauses.Has(feature.DerivedTableID) {
				return nil, unsupported(feature.DerivedTable)
			}
			cols, err := s.validateSelect(r.Select, outer)
			if err != nil {
				return nil, err
			}
			rel = scopeRel{alias: r.Alias, cols: cols}
		}
		la := strings.ToLower(rel.alias)
		if seenAlias[la] {
			return nil, errf(ErrSemantic, "duplicate table alias %q", rel.alias)
		}
		seenAlias[la] = true
		sc.rels = append(sc.rels, rel)
		if f.On != nil {
			if err := s.validateBoolClause(f.On, sc); err != nil {
				return nil, err
			}
			if hasAggregate(f.On) {
				return nil, errf(ErrSemantic, "aggregates are not allowed in ON")
			}
		}
	}
	if sel.Where != nil {
		if !s.dialect.Clauses.Has(feature.ClauseWhereID) {
			return nil, unsupported(feature.ClauseWhere)
		}
		if err := s.validateBoolClause(sel.Where, sc); err != nil {
			return nil, err
		}
		if hasAggregate(sel.Where) {
			return nil, errf(ErrSemantic, "aggregates are not allowed in WHERE")
		}
	}
	if len(sel.GroupBy) > 0 {
		if !s.dialect.Clauses.Has(feature.GroupByID) {
			return nil, unsupported(feature.GroupBy)
		}
		for _, g := range sel.GroupBy {
			if _, err := s.validateExpr(g, sc, false); err != nil {
				return nil, err
			}
		}
	}
	if sel.Having != nil {
		if !s.dialect.Clauses.Has(feature.HavingID) {
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
		if !s.dialect.Clauses.Has(feature.OrderByID) {
			return nil, unsupported(feature.OrderBy)
		}
		for _, o := range sel.OrderBy {
			if _, err := s.validateExpr(o.Expr, sc, true); err != nil {
				return nil, err
			}
		}
	}
	if sel.Limit != nil && !s.dialect.Clauses.Has(feature.LimitID) {
		return nil, unsupported(feature.Limit)
	}
	if sel.Offset != nil && !s.dialect.Clauses.Has(feature.OffsetID) {
		return nil, unsupported(feature.Offset)
	}

	var out []Column
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
				name = "col" + itoa(len(out)+1)
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

// relationColumns returns the output columns of a table or view.
func (s *DB) relationColumns(name string) ([]Column, *Error) {
	if t := s.store.table(name); t != nil {
		return t.Columns, nil
	}
	if v := s.store.view(name); v != nil {
		cols := make([]Column, len(v.Columns))
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
