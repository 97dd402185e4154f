package sqlast

import (
	"math"
	"testing"
)

func TestExprRendering(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Null(), "NULL"},
		{IntLit(-3), "-3"},
		{IntLit(math.MinInt64), "-9223372036854775808"},
		{TextLit("it's"), "'it''s'"},
		{BoolLit(true), "TRUE"},
		{&ColumnRef{Table: "t", Column: "c"}, "t.c"},
		{&ColumnRef{Column: "c"}, "c"},
		{&Unary{Op: UMinus, X: IntLit(-2000)}, "(- -2000)"},
		{&Unary{Op: UNot, X: BoolLit(false)}, "(NOT FALSE)"},
		{&Unary{Op: UBitNot, X: IntLit(1)}, "(~ 1)"},
		{&Binary{Op: OpNullSafeEq, L: IntLit(1), R: Null()}, "(1 <=> NULL)"},
		{&Binary{Op: OpIsDistinct, L: IntLit(1), R: IntLit(2)}, "(1 IS DISTINCT FROM 2)"},
		{&Func{Name: "COUNT", Star: true}, "COUNT(*)"},
		{&Func{Name: "COUNT", Distinct: true, Args: []Expr{IntLit(1)}}, "COUNT(DISTINCT 1)"},
		{&Func{Name: "PI"}, "PI()"},
		{&Case{Whens: []When{{Cond: BoolLit(true), Then: IntLit(1)}}, Else: IntLit(2)},
			"(CASE WHEN TRUE THEN 1 ELSE 2 END)"},
		{&Case{Operand: IntLit(3), Whens: []When{{Cond: IntLit(3), Then: TextLit("x")}}},
			"(CASE 3 WHEN 3 THEN 'x' END)"},
		{&Cast{X: IntLit(1), To: TypeText}, "CAST(1 AS TEXT)"},
		{&Between{X: IntLit(2), Lo: IntLit(1), Hi: IntLit(3), Not: true},
			"(2 NOT BETWEEN 1 AND 3)"},
		{&InList{X: IntLit(1), List: []Expr{IntLit(2), Null()}}, "(1 IN (2, NULL))"},
		{&IsNull{X: IntLit(1), Not: true}, "(1 IS NOT NULL)"},
		{&IsBool{X: BoolLit(true), Val: false, Not: true}, "(TRUE IS NOT FALSE)"},
		{&Like{X: TextLit("a"), Pattern: TextLit("%"), Kind: LikeGlob, Not: true},
			"('a' NOT GLOB '%')"},
	}
	for _, c := range cases {
		if got := c.e.SQL(); got != c.want {
			t.Errorf("SQL() = %q, want %q", got, c.want)
		}
	}
}

func TestTypeNames(t *testing.T) {
	if TypeInt.String() != "INTEGER" || TypeText.String() != "TEXT" ||
		TypeBool.String() != "BOOLEAN" || TypeUnknown.String() != "UNKNOWN" {
		t.Fatal("type spellings broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := &Select{
		Items: []SelectItem{{Expr: &Binary{Op: OpAdd, L: IntLit(1), R: IntLit(2)}}},
		From: []FromItem{
			{Ref: &TableName{Name: "t"}},
			{Ref: &DerivedTable{
				Select: &Select{Items: []SelectItem{{Star: true}},
					From: []FromItem{{Ref: &TableName{Name: "u"}}}},
				Alias: "d",
			}, Join: JoinLeft, On: BoolLit(true)},
		},
		Where: &IsNull{X: &ColumnRef{Column: "c"}},
	}
	before := orig.SQL()
	cl := CloneSelect(orig)
	if cl.SQL() != before {
		t.Fatal("clone must render identically")
	}
	// Mutate the clone everywhere reachable.
	cl.Items[0].Expr.(*Binary).L = IntLit(99)
	cl.From[0].Ref.(*TableName).Name = "zzz"
	cl.From[1].On = BoolLit(false)
	cl.Where = nil
	if orig.SQL() != before {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestCloneStmtKinds(t *testing.T) {
	stmts := []Stmt{
		&CreateTable{Name: "t", Columns: []ColumnDef{{Name: "c", Type: TypeInt}}},
		&CreateIndex{Name: "i", Table: "t", Columns: []string{"c"}, Where: BoolLit(true)},
		&CreateView{Name: "v", Select: &Select{Items: []SelectItem{{Expr: IntLit(1)}}}},
		&Insert{Table: "t", Columns: []string{"c"}, Rows: [][]Expr{{IntLit(1)}}},
		&Update{Table: "t", Sets: []Assignment{{Column: "c", Value: IntLit(2)}}, Where: BoolLit(true)},
		&Delete{Table: "t", Where: BoolLit(false)},
		&AlterTable{Table: "t", AddColumn: &ColumnDef{Name: "d", Type: TypeText}},
		&DropTable{Name: "t"},
		&DropView{Name: "v"},
		&Analyze{Table: "t"},
		&Refresh{Table: "t"},
	}
	for _, st := range stmts {
		cl := CloneStmt(st)
		if cl.SQL() != st.SQL() {
			t.Errorf("clone of %T renders differently", st)
		}
		if cl == st {
			t.Errorf("clone of %T is the same pointer", st)
		}
	}
}

func TestWalkExprVisitsEverything(t *testing.T) {
	e := &Binary{
		Op: OpAnd,
		L: &InList{X: &ColumnRef{Column: "a"},
			List: []Expr{IntLit(1), &Func{Name: "ABS", Args: []Expr{IntLit(-1)}}}},
		R: &Exists{Select: &Select{
			Items: []SelectItem{{Expr: IntLit(5)}},
			From:  []FromItem{{Ref: &TableName{Name: "t"}}},
			Where: &IsNull{X: &ColumnRef{Column: "b"}},
		}},
	}
	count := 0
	WalkExpr(e, func(Expr) bool { count++; return true })
	// Binary, InList, ColumnRef a, IntLit 1, Func, IntLit -1, Exists,
	// IntLit 5 (projection), IsNull, ColumnRef b.
	if count != 10 {
		t.Fatalf("visited %d nodes, want 10", count)
	}
	// Pruning stops descent.
	count = 0
	WalkExpr(e, func(x Expr) bool {
		count++
		_, isIn := x.(*InList)
		return !isIn
	})
	if count != 6 { // Binary, InList, Exists, IntLit 5, IsNull, ColumnRef b
		t.Fatalf("pruned walk visited %d nodes, want 6", count)
	}
}

func TestSelectRenderingClauses(t *testing.T) {
	lim := int64(5)
	off := int64(2)
	sel := &Select{
		Distinct: true,
		Items:    []SelectItem{{Expr: &ColumnRef{Column: "a"}, Alias: "x"}},
		From: []FromItem{
			{Ref: &TableName{Name: "t", Alias: "p"}},
			{Ref: &TableName{Name: "u"}, Join: JoinComma},
			{Ref: &TableName{Name: "w"}, Join: JoinNatural},
		},
		Where:   BoolLit(true),
		GroupBy: []Expr{&ColumnRef{Column: "a"}},
		Having:  BoolLit(false),
		OrderBy: []OrderItem{{Expr: &ColumnRef{Column: "a"}, Desc: true}},
		Limit:   &lim,
		Offset:  &off,
	}
	want := "SELECT DISTINCT a AS x FROM t AS p, u NATURAL JOIN w WHERE TRUE " +
		"GROUP BY a HAVING FALSE ORDER BY a DESC LIMIT 5 OFFSET 2"
	if got := sel.SQL(); got != want {
		t.Fatalf("got  %q\nwant %q", got, want)
	}
}
