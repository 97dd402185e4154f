package schema

import (
	"testing"

	"sqlancerpp/internal/sqlast"
)

// TestSchemaModelFigure3 reproduces the paper's Figure 3 scenario:
//
//	① CREATE TABLE t0 (c0 INT, PRIMARY KEY (c0));      -- ok
//	② CREATE VIEW v0 (c0) AS SELECT t0.c0 + 1 FROM t0;  -- ok
//	③ ALTER TABLE t0 DROP COLUMN c0;                    -- fails, no update
//	④ ALTER TABLE t0 ADD COLUMN c1 BOOLEAN;             -- ok
func TestSchemaModelFigure3(t *testing.T) {
	m := New()

	// ① — applied only after confirmed success.
	ct := &sqlast.CreateTable{Name: "t0", Columns: []sqlast.ColumnDef{
		{Name: "c0", Type: sqlast.TypeInt, PrimaryKey: true},
	}}
	m.Apply(ct)
	if r := m.Relation("t0"); r == nil || len(r.Columns) != 1 || !r.Columns[0].PrimaryKey {
		t.Fatal("① table not modeled")
	}

	// ② — the generator knows the view's output columns.
	m.ApplyView("v0", []Column{{Name: "c0", Type: sqlast.TypeInt}})
	if v := m.Relation("v0"); v == nil || !v.IsView {
		t.Fatal("② view not modeled")
	}

	// ③ — the DROP COLUMN failed on the DBMS, so Apply is never called;
	// the model still has c0.
	if m.Relation("t0").Column("c0") == nil {
		t.Fatal("③ model must be unchanged after a failed statement")
	}

	// ④ — ADD COLUMN succeeds.
	m.Apply(&sqlast.AlterTable{Table: "t0", AddColumn: &sqlast.ColumnDef{
		Name: "c1", Type: sqlast.TypeBool,
	}})
	r := m.Relation("t0")
	if len(r.Columns) != 2 || r.Column("c1") == nil || r.Column("c1").Type != sqlast.TypeBool {
		t.Fatal("④ added column not modeled")
	}
	if len(m.Tables()) != 1 || len(m.Views()) != 1 {
		t.Fatalf("relation partition wrong: %d tables, %d views",
			len(m.Tables()), len(m.Views()))
	}
}

func TestFreeNames(t *testing.T) {
	m := New()
	n1 := m.FreeTableName()
	m.Apply(&sqlast.CreateTable{Name: n1, Columns: []sqlast.ColumnDef{{Name: "c0", Type: sqlast.TypeInt}}})
	n2 := m.FreeTableName()
	if n1 == n2 {
		t.Fatalf("FreeTableName repeated %q", n1)
	}
	if m.FreeViewName() == "" || m.FreeIndexName() == "" {
		t.Fatal("free names must be non-empty")
	}
	r := m.Relation(n1)
	c1 := m.FreeColumnName(r)
	if r.Column(c1) != nil {
		t.Fatal("free column name already exists")
	}
}

func TestApplyLifecycle(t *testing.T) {
	m := New()
	m.Apply(&sqlast.CreateTable{Name: "t", Columns: []sqlast.ColumnDef{
		{Name: "a", Type: sqlast.TypeInt},
		{Name: "b", Type: sqlast.TypeText},
	}})
	m.Apply(&sqlast.Insert{Table: "t", Rows: [][]sqlast.Expr{{sqlast.IntLit(1)}, {sqlast.IntLit(2)}}})
	if m.Relation("t").RowEstimate != 2 {
		t.Fatal("insert row estimate not tracked")
	}
	m.Apply(&sqlast.CreateIndex{Name: "i", Table: "t", Columns: []string{"a"}, Unique: true})
	if len(m.Indexes()) != 1 || !m.Indexes()[0].Unique {
		t.Fatal("index not modeled")
	}
	m.Apply(&sqlast.AlterTable{Table: "t", DropColumn: "b"})
	if m.Relation("t").Column("b") != nil {
		t.Fatal("dropped column still modeled")
	}
	m.Apply(&sqlast.Delete{Table: "t"}) // unconditional delete
	if m.Relation("t").RowEstimate != 0 {
		t.Fatal("unconditional delete must reset the row estimate")
	}
	m.Apply(&sqlast.DropTable{Name: "t"})
	if m.Relation("t") != nil || len(m.Indexes()) != 0 {
		t.Fatal("dropped table (and its indexes) still modeled")
	}
}

func TestCaseInsensitiveLookup(t *testing.T) {
	m := New()
	m.Apply(&sqlast.CreateTable{Name: "Orders", Columns: []sqlast.ColumnDef{{Name: "ID", Type: sqlast.TypeInt}}})
	if m.Relation("orders") == nil || m.Relation("ORDERS") == nil {
		t.Fatal("relation lookup must be case-insensitive")
	}
	if m.Relation("Orders").Column("id") == nil {
		t.Fatal("column lookup must be case-insensitive")
	}
}

// TestTableIndexesTables: NumTables and Table(i) read the base tables
// in Tables' order, skipping views wherever they sit.
func TestTableIndexesTables(t *testing.T) {
	m := New()
	col := []sqlast.ColumnDef{{Name: "c0", Type: sqlast.TypeInt}}
	m.ApplyView("v0", []Column{{Name: "x0", Type: sqlast.TypeInt}})
	m.Apply(&sqlast.CreateTable{Name: "t0", Columns: col})
	m.ApplyView("v1", []Column{{Name: "x0", Type: sqlast.TypeInt}})
	m.Apply(&sqlast.CreateTable{Name: "t1", Columns: col})
	tables := m.Tables()
	if m.NumTables() != len(tables) || len(tables) != 2 {
		t.Fatalf("NumTables = %d, Tables has %d, want 2", m.NumTables(), len(tables))
	}
	for i, want := range tables {
		if got := m.Table(i); got != want {
			t.Errorf("Table(%d) = %s, want %s", i, got.Name, want.Name)
		}
	}
}
