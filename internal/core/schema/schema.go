// Package schema implements SQLancer++'s internal schema model (paper
// §3, Figure 3). The generator never queries the DBMS's metadata
// catalogs — those interfaces are DBMS-specific (paper challenge C2).
// Instead, it simulates the DDL it issues: a statement's effect is
// applied to the model only after the DBMS confirms successful
// execution.
package schema

import (
	"fmt"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// Column is one column of a modeled relation.
type Column struct {
	Name       string
	Type       sqlast.Type
	NotNull    bool
	Unique     bool
	PrimaryKey bool
}

// Relation is a modeled table or view.
type Relation struct {
	Name    string
	Columns []Column
	IsView  bool
	// RowEstimate counts confirmed inserted rows (tables only).
	RowEstimate int
}

// Column returns a column by name, or nil.
func (r *Relation) Column(name string) *Column {
	for i := range r.Columns {
		if strings.EqualFold(r.Columns[i].Name, name) {
			return &r.Columns[i]
		}
	}
	return nil
}

// Index is a modeled index.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Partial bool
}

// Model is the internal schema state.
type Model struct {
	relations []*Relation
	indexes   []*Index
	nextTable int
	nextView  int
	nextIndex int
}

// New returns an empty model (paper: initially O = {}).
func New() *Model { return &Model{} }

// Relations returns all modeled relations in creation order.
func (m *Model) Relations() []*Relation { return m.relations }

// Tables returns modeled base tables.
func (m *Model) Tables() []*Relation {
	var out []*Relation
	for _, r := range m.relations {
		if !r.IsView {
			out = append(out, r)
		}
	}
	return out
}

// NumTables returns the number of modeled base tables.
func (m *Model) NumTables() int {
	n := 0
	for _, r := range m.relations {
		if !r.IsView {
			n++
		}
	}
	return n
}

// Table returns the base table at position i (from 0, in creation
// order) among the modeled base tables, the i-th element of Tables
// without building the list; i must be below NumTables.
func (m *Model) Table(i int) *Relation {
	for _, r := range m.relations {
		if r.IsView {
			continue
		}
		if i == 0 {
			return r
		}
		i--
	}
	panic("schema: table index out of range")
}

// Views returns modeled views.
func (m *Model) Views() []*Relation {
	var out []*Relation
	for _, r := range m.relations {
		if r.IsView {
			out = append(out, r)
		}
	}
	return out
}

// Indexes returns modeled indexes.
func (m *Model) Indexes() []*Index { return m.indexes }

// Relation returns a relation by name, or nil.
func (m *Model) Relation(name string) *Relation {
	for _, r := range m.relations {
		if strings.EqualFold(r.Name, name) {
			return r
		}
	}
	return nil
}

// FreeTableName returns a table name not present in the model (paper
// Listing 1's getFreeIndexName equivalent).
func (m *Model) FreeTableName() string {
	for {
		name := fmt.Sprintf("t%d", m.nextTable)
		m.nextTable++
		if m.Relation(name) == nil {
			return name
		}
	}
}

// FreeViewName returns an unused view name.
func (m *Model) FreeViewName() string {
	for {
		name := fmt.Sprintf("v%d", m.nextView)
		m.nextView++
		if m.Relation(name) == nil {
			return name
		}
	}
}

// FreeIndexName returns an unused index name.
func (m *Model) FreeIndexName() string {
	for {
		name := fmt.Sprintf("i%d", m.nextIndex)
		m.nextIndex++
		found := false
		for _, ix := range m.indexes {
			if strings.EqualFold(ix.Name, name) {
				found = true
				break
			}
		}
		if !found {
			return name
		}
	}
}

// FreeColumnName returns an unused column name for a relation.
func (m *Model) FreeColumnName(r *Relation) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("c%d", i)
		if r.Column(name) == nil {
			return name
		}
	}
}

// Apply simulates a *successfully executed* statement's effect on the
// schema (Figure 3: the object is added only after the DBMS confirms).
// View creation must go through ApplyView, because output column types
// are known to the generator, not derivable from the statement alone.
func (m *Model) Apply(stmt sqlast.Stmt) {
	switch st := stmt.(type) {
	case *sqlast.CreateTable:
		cols := make([]Column, len(st.Columns))
		for i, c := range st.Columns {
			cols[i] = Column{
				Name:       c.Name,
				Type:       c.Type,
				NotNull:    c.NotNull || c.PrimaryKey,
				Unique:     c.Unique,
				PrimaryKey: c.PrimaryKey,
			}
		}
		m.relations = append(m.relations, &Relation{Name: st.Name, Columns: cols})
	case *sqlast.CreateIndex:
		m.indexes = append(m.indexes, &Index{
			Name:    st.Name,
			Table:   st.Table,
			Columns: append([]string(nil), st.Columns...),
			Unique:  st.Unique,
			Partial: st.Where != nil,
		})
	case *sqlast.Insert:
		if r := m.Relation(st.Table); r != nil {
			r.RowEstimate += len(st.Rows)
		}
	case *sqlast.Delete:
		if r := m.Relation(st.Table); r != nil && st.Where == nil {
			r.RowEstimate = 0
		}
	case *sqlast.AlterTable:
		r := m.Relation(st.Table)
		if r == nil {
			return
		}
		if st.AddColumn != nil {
			r.Columns = append(r.Columns, Column{
				Name:    st.AddColumn.Name,
				Type:    st.AddColumn.Type,
				NotNull: st.AddColumn.NotNull,
				Unique:  st.AddColumn.Unique,
			})
			return
		}
		for i := range r.Columns {
			if strings.EqualFold(r.Columns[i].Name, st.DropColumn) {
				r.Columns = append(r.Columns[:i], r.Columns[i+1:]...)
				return
			}
		}
	case *sqlast.DropTable:
		m.drop(st.Name)
		var kept []*Index
		for _, ix := range m.indexes {
			if !strings.EqualFold(ix.Table, st.Name) {
				kept = append(kept, ix)
			}
		}
		m.indexes = kept
	case *sqlast.DropView:
		m.drop(st.Name)
	case *sqlast.DropIndex:
		for i, ix := range m.indexes {
			if strings.EqualFold(ix.Name, st.Name) {
				m.indexes = append(m.indexes[:i], m.indexes[i+1:]...)
				return
			}
		}
	}
}

// ApplyView records a successfully created view with its output columns.
func (m *Model) ApplyView(name string, cols []Column) {
	m.relations = append(m.relations, &Relation{Name: name, Columns: cols, IsView: true})
}

func (m *Model) drop(name string) {
	for i, r := range m.relations {
		if strings.EqualFold(r.Name, name) {
			m.relations = append(m.relations[:i], m.relations[i+1:]...)
			return
		}
	}
}
