package sqlast

import "bytes"

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmtNode()
	// SQL renders the statement as deterministic SQL text (no trailing ';').
	SQL() string
	writeSQL(w *bytes.Buffer)
}

// ColumnDef defines one column in CREATE TABLE / ALTER TABLE ADD COLUMN.
type ColumnDef struct {
	Name       string
	Type       Type
	NotNull    bool
	Unique     bool
	PrimaryKey bool // rendered as a table-level PRIMARY KEY (name) constraint
}

// SQL renders the column definition without the PRIMARY KEY constraint
// (which is table-level).
func (c *ColumnDef) SQL() string { return render(c) }

func (c *ColumnDef) writeSQL(w *bytes.Buffer) {
	w.WriteString(c.Name)
	w.WriteByte(' ')
	w.WriteString(c.Type.String())
	if c.NotNull {
		w.WriteString(" NOT NULL")
	}
	if c.Unique {
		w.WriteString(" UNIQUE")
	}
}

// CreateTable is CREATE TABLE name (cols..., [PRIMARY KEY (...)]).
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	IfNotExists bool
}

func (c *CreateTable) stmtNode() {}

// SQL renders the CREATE TABLE statement.
func (c *CreateTable) SQL() string { return render(c) }

func (c *CreateTable) writeSQL(w *bytes.Buffer) {
	w.WriteString("CREATE TABLE ")
	if c.IfNotExists {
		w.WriteString("IF NOT EXISTS ")
	}
	w.WriteString(c.Name)
	w.WriteString(" (")
	var pk []string
	for i := range c.Columns {
		if i > 0 {
			w.WriteString(", ")
		}
		c.Columns[i].writeSQL(w)
		if c.Columns[i].PrimaryKey {
			pk = append(pk, c.Columns[i].Name)
		}
	}
	if len(pk) > 0 {
		w.WriteString(", PRIMARY KEY (")
		writeNames(w, pk)
		w.WriteByte(')')
	}
	w.WriteByte(')')
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols) [WHERE pred].
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Where   Expr // partial index predicate, nil if absent
}

func (c *CreateIndex) stmtNode() {}

// SQL renders the CREATE INDEX statement.
func (c *CreateIndex) SQL() string { return render(c) }

func (c *CreateIndex) writeSQL(w *bytes.Buffer) {
	w.WriteString("CREATE ")
	if c.Unique {
		w.WriteString("UNIQUE ")
	}
	w.WriteString("INDEX ")
	w.WriteString(c.Name)
	w.WriteString(" ON ")
	w.WriteString(c.Table)
	w.WriteString(" (")
	writeNames(w, c.Columns)
	w.WriteByte(')')
	if c.Where != nil {
		w.WriteString(" WHERE ")
		c.Where.writeSQL(w)
	}
}

// CreateView is CREATE VIEW name [(cols)] AS select.
type CreateView struct {
	Name    string
	Columns []string // optional explicit column names
	Select  *Select
}

func (c *CreateView) stmtNode() {}

// SQL renders the CREATE VIEW statement.
func (c *CreateView) SQL() string { return render(c) }

func (c *CreateView) writeSQL(w *bytes.Buffer) {
	w.WriteString("CREATE VIEW ")
	w.WriteString(c.Name)
	if len(c.Columns) > 0 {
		w.WriteString(" (")
		writeNames(w, c.Columns)
		w.WriteByte(')')
	}
	w.WriteString(" AS ")
	c.Select.writeSQL(w)
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table    string
	Columns  []string
	Rows     [][]Expr
	OrIgnore bool // INSERT OR IGNORE (SQLite-family conflict handling)
}

func (i *Insert) stmtNode() {}

// SQL renders the INSERT statement.
func (i *Insert) SQL() string { return render(i) }

func (i *Insert) writeSQL(w *bytes.Buffer) {
	w.WriteString("INSERT ")
	if i.OrIgnore {
		w.WriteString("OR IGNORE ")
	}
	w.WriteString("INTO ")
	w.WriteString(i.Table)
	if len(i.Columns) > 0 {
		w.WriteString(" (")
		writeNames(w, i.Columns)
		w.WriteByte(')')
	}
	w.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			w.WriteString(", ")
		}
		w.WriteByte('(')
		writeList(w, row)
		w.WriteByte(')')
	}
}

// Assignment is one SET col = expr clause of UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET ... [WHERE pred].
type Update struct {
	Table string
	Sets  []Assignment
	Where Expr
}

func (u *Update) stmtNode() {}

// SQL renders the UPDATE statement.
func (u *Update) SQL() string { return render(u) }

func (u *Update) writeSQL(w *bytes.Buffer) {
	w.WriteString("UPDATE ")
	w.WriteString(u.Table)
	w.WriteString(" SET ")
	for i, a := range u.Sets {
		if i > 0 {
			w.WriteString(", ")
		}
		w.WriteString(a.Column)
		w.WriteString(" = ")
		a.Value.writeSQL(w)
	}
	if u.Where != nil {
		w.WriteString(" WHERE ")
		u.Where.writeSQL(w)
	}
}

// Delete is DELETE FROM table [WHERE pred].
type Delete struct {
	Table string
	Where Expr
}

func (d *Delete) stmtNode() {}

// SQL renders the DELETE statement.
func (d *Delete) SQL() string { return render(d) }

func (d *Delete) writeSQL(w *bytes.Buffer) {
	w.WriteString("DELETE FROM ")
	w.WriteString(d.Table)
	if d.Where != nil {
		w.WriteString(" WHERE ")
		d.Where.writeSQL(w)
	}
}

// AlterTable is ALTER TABLE t ADD COLUMN def | DROP COLUMN name.
type AlterTable struct {
	Table      string
	AddColumn  *ColumnDef // exactly one of AddColumn/DropColumn is set
	DropColumn string
}

func (a *AlterTable) stmtNode() {}

// SQL renders the ALTER TABLE statement.
func (a *AlterTable) SQL() string { return render(a) }

func (a *AlterTable) writeSQL(w *bytes.Buffer) {
	w.WriteString("ALTER TABLE ")
	w.WriteString(a.Table)
	if a.AddColumn != nil {
		w.WriteString(" ADD COLUMN ")
		a.AddColumn.writeSQL(w)
		return
	}
	w.WriteString(" DROP COLUMN ")
	w.WriteString(a.DropColumn)
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

func (d *DropTable) stmtNode() {}

// SQL renders the DROP TABLE statement.
func (d *DropTable) SQL() string { return render(d) }

func (d *DropTable) writeSQL(w *bytes.Buffer) {
	w.WriteString("DROP TABLE ")
	w.WriteString(d.Name)
}

// DropView is DROP VIEW name.
type DropView struct {
	Name string
}

func (d *DropView) stmtNode() {}

// SQL renders the DROP VIEW statement.
func (d *DropView) SQL() string { return render(d) }

func (d *DropView) writeSQL(w *bytes.Buffer) {
	w.WriteString("DROP VIEW ")
	w.WriteString(d.Name)
}

// DropIndex is DROP INDEX name: tears down the index's ordered store.
type DropIndex struct {
	Name string
}

func (d *DropIndex) stmtNode() {}

// SQL renders the DROP INDEX statement.
func (d *DropIndex) SQL() string { return render(d) }

func (d *DropIndex) writeSQL(w *bytes.Buffer) {
	w.WriteString("DROP INDEX ")
	w.WriteString(d.Name)
}

// Reindex is REINDEX [name]: rebuilds one index (or, with no name, every
// index) from its table's visible rows — the natural repair for stale
// index entries.
type Reindex struct {
	Name string // optional; empty rebuilds all indexes
}

func (r *Reindex) stmtNode() {}

// SQL renders the REINDEX statement.
func (r *Reindex) SQL() string { return render(r) }

func (r *Reindex) writeSQL(w *bytes.Buffer) {
	w.WriteString("REINDEX")
	if r.Name != "" {
		w.WriteByte(' ')
		w.WriteString(r.Name)
	}
}

// Analyze is ANALYZE [table]: collects planner statistics.
type Analyze struct {
	Table string // optional
}

func (a *Analyze) stmtNode() {}

// SQL renders the ANALYZE statement.
func (a *Analyze) SQL() string { return render(a) }

func (a *Analyze) writeSQL(w *bytes.Buffer) {
	w.WriteString("ANALYZE")
	if a.Table != "" {
		w.WriteByte(' ')
		w.WriteString(a.Table)
	}
}

// Refresh is REFRESH TABLE name — the CrateDB-style statement that makes
// inserted data visible to subsequent queries (paper §6, "Manual effort").
type Refresh struct {
	Table string
}

func (r *Refresh) stmtNode() {}

// SQL renders the REFRESH TABLE statement.
func (r *Refresh) SQL() string { return render(r) }

func (r *Refresh) writeSQL(w *bytes.Buffer) {
	w.WriteString("REFRESH TABLE ")
	w.WriteString(r.Table)
}

// SelectItem is one projection of a SELECT: either * or expr [AS alias].
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// SQL renders the projection item.
func (s *SelectItem) SQL() string { return render(s) }

func (s *SelectItem) writeSQL(w *bytes.Buffer) {
	if s.Star {
		w.WriteByte('*')
		return
	}
	s.Expr.writeSQL(w)
	if s.Alias != "" {
		w.WriteString(" AS ")
		w.WriteString(s.Alias)
	}
}

// JoinType enumerates join clauses. JoinNone marks the first FROM item
// (no join keyword).
type JoinType int

// Join types (paper Appendix A.1: six types of join are supported).
const (
	JoinNone  JoinType = iota
	JoinComma          // FROM a, b
	JoinInner
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
	JoinNatural // NATURAL JOIN (inner, shared columns)
)

// String returns the SQL spelling of the join keyword.
func (j JoinType) String() string {
	switch j {
	case JoinComma:
		return ","
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	case JoinNatural:
		return "NATURAL JOIN"
	default:
		return ""
	}
}

// TableRef is a table source in FROM: a named table/view or a derived table.
type TableRef interface {
	tableRefNode()
	// SQL renders the table reference.
	SQL() string
	writeSQL(w *bytes.Buffer)
	// RefName returns the name the source is addressable by (alias or name).
	RefName() string
}

// TableName references a table or view by name with an optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (t *TableName) tableRefNode() {}

// SQL renders the table reference.
func (t *TableName) SQL() string { return render(t) }

func (t *TableName) writeSQL(w *bytes.Buffer) {
	w.WriteString(t.Name)
	if t.Alias != "" {
		w.WriteString(" AS ")
		w.WriteString(t.Alias)
	}
}

// RefName returns the alias if present, else the table name.
func (t *TableName) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// DerivedTable is a subquery in FROM: (SELECT ...) AS alias.
type DerivedTable struct {
	Select *Select
	Alias  string
}

func (d *DerivedTable) tableRefNode() {}

// SQL renders the derived table.
func (d *DerivedTable) SQL() string { return render(d) }

func (d *DerivedTable) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	d.Select.writeSQL(w)
	w.WriteString(") AS ")
	w.WriteString(d.Alias)
}

// RefName returns the mandatory alias.
func (d *DerivedTable) RefName() string { return d.Alias }

// FromItem is one element of the FROM clause. The first item has
// Join == JoinNone; subsequent items carry their join type and ON clause.
type FromItem struct {
	Ref  TableRef
	Join JoinType
	On   Expr // nil for comma/cross/natural joins
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetOp is a compound-query operator.
type SetOp int

// Set operators. Non-ALL operators use set semantics (duplicates
// removed); UNION ALL keeps the multiset.
const (
	SetNone SetOp = iota
	SetUnion
	SetUnionAll
	SetIntersect
	SetExcept
)

// String returns the SQL spelling of the set operator.
func (op SetOp) String() string {
	switch op {
	case SetUnion:
		return "UNION"
	case SetUnionAll:
		return "UNION ALL"
	case SetIntersect:
		return "INTERSECT"
	case SetExcept:
		return "EXCEPT"
	default:
		return ""
	}
}

// CompoundPart is one arm of a compound query: OP SELECT ...
type CompoundPart struct {
	Op     SetOp
	Select *Select
}

// Select is a SELECT statement (also usable as a subquery). ORDER BY,
// LIMIT, and OFFSET apply to the whole compound query when Compound is
// non-empty.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []FromItem // empty means SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	Compound []CompoundPart
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

func (s *Select) stmtNode() {}
func (s *Select) exprNode() {} // a bare Select never appears as Expr; Subquery wraps it

// SQL renders the SELECT statement.
func (s *Select) SQL() string { return render(s) }

func (s *Select) writeSQL(w *bytes.Buffer) {
	w.WriteString("SELECT ")
	if s.Distinct {
		w.WriteString("DISTINCT ")
	}
	for i := range s.Items {
		if i > 0 {
			w.WriteString(", ")
		}
		s.Items[i].writeSQL(w)
	}
	if len(s.From) > 0 {
		w.WriteString(" FROM ")
		for i, f := range s.From {
			if i == 0 {
				f.Ref.writeSQL(w)
				continue
			}
			if f.Join == JoinComma {
				w.WriteString(", ")
			} else {
				w.WriteByte(' ')
				w.WriteString(f.Join.String())
				w.WriteByte(' ')
			}
			f.Ref.writeSQL(w)
			if f.On != nil {
				w.WriteString(" ON ")
				f.On.writeSQL(w)
			}
		}
	}
	if s.Where != nil {
		w.WriteString(" WHERE ")
		s.Where.writeSQL(w)
	}
	if len(s.GroupBy) > 0 {
		w.WriteString(" GROUP BY ")
		writeList(w, s.GroupBy)
	}
	if s.Having != nil {
		w.WriteString(" HAVING ")
		s.Having.writeSQL(w)
	}
	for _, part := range s.Compound {
		w.WriteByte(' ')
		w.WriteString(part.Op.String())
		w.WriteByte(' ')
		part.Select.writeSQL(w)
	}
	if len(s.OrderBy) > 0 {
		w.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				w.WriteString(", ")
			}
			o.Expr.writeSQL(w)
			if o.Desc {
				w.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		w.WriteString(" LIMIT ")
		writeInt(w, *s.Limit)
	}
	if s.Offset != nil {
		w.WriteString(" OFFSET ")
		writeInt(w, *s.Offset)
	}
}
