package feature

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite table.go from feature.go")

// idLists are the exported name lists that get an ID list in table.go,
// keyed by list name, with the ID list's name.
var idLists = []struct {
	name, idName string
	list         []string
}{
	{"Statements", "StatementIDs", Statements},
	{"Joins", "JoinIDs", Joins},
	{"Clauses", "ClauseIDs", Clauses},
	{"SetOps", "SetOpIDs", SetOps},
	{"BinaryOperators", "BinaryOperatorIDs", BinaryOperators},
	{"UnaryOperators", "UnaryOperatorIDs", UnaryOperators},
	{"ExprForms", "ExprFormIDs", ExprForms},
	{"ComparisonOperators", "ComparisonOperatorIDs", ComparisonOperators},
	{"Functions", "FunctionIDs", Functions},
	{"ExtraFunctions", "ExtraFunctionIDs", ExtraFunctions},
	{"Aggregates", "AggregateIDs", Aggregates},
}

// typeNames are the data types of FuncArg composites, in name order.
var typeNames = []string{TypeBoolean, TypeInteger, TypeText}

// namedConsts parses feature.go's string constants, in source order.
func namedConsts(t *testing.T) [][2]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "feature.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [][2]string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, sp := range gd.Specs {
			vs := sp.(*ast.ValueSpec)
			for i, n := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, [2]string{n.Name, v})
			}
		}
	}
	return out
}

// tableNames returns every feature name, sorted: the named constants,
// the lists, each scalar function's FuncArg composites and the index
// widths.
func tableNames(consts [][2]string) []string {
	seen := map[string]bool{}
	add := func(n string) { seen[n] = true }
	for _, c := range consts {
		add(c[1])
	}
	for _, l := range idLists {
		for _, n := range l.list {
			add(n)
		}
	}
	for _, fn := range scalarFunctions() {
		for pos := 1; pos <= MaxFuncArgPos; pos++ {
			for _, typ := range typeNames {
				add(FuncArg(fn, pos, typ))
			}
		}
	}
	for n := 1; n <= MaxIndexWidth; n++ {
		add(IndexWidth(n))
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func scalarFunctions() []string {
	return append(append([]string{}, Functions...), ExtraFunctions...)
}

// renderTable renders table.go.
func renderTable(t *testing.T) []byte {
	consts := namedConsts(t)
	all := tableNames(consts)
	index := map[string]int{}
	for i, n := range all {
		index[n] = i
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by \"go test ./internal/feature -run TestTableFile -update\"; DO NOT EDIT.\n\n")
	b.WriteString("package feature\n\n")
	b.WriteString("// NumIDs is the number of features in the table.\n")
	fmt.Fprintf(&b, "const NumIDs = %d\n\n", len(all))
	b.WriteString("// IDs of the named features: XID is the ID of the constant X.\n")
	b.WriteString("const (\n")
	for _, c := range consts {
		fmt.Fprintf(&b, "\t%sID ID = %d // %q\n", c[0], index[c[1]], c[1])
	}
	b.WriteString(")\n\n")
	b.WriteString("// IDs of the functions: FnX is the ID of function X.\n")
	b.WriteString("const (\n")
	fns := append(scalarFunctions(), Aggregates...)
	sort.Strings(fns)
	for _, fn := range fns {
		fmt.Fprintf(&b, "\tFn%s ID = %d\n", fn, index[fn])
	}
	b.WriteString(")\n\n")
	for _, l := range idLists {
		fmt.Fprintf(&b, "// %s is %s by ID, in the same order.\n", l.idName, l.name)
		fmt.Fprintf(&b, "var %s = []ID{", l.idName)
		for i, n := range l.list {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Itoa(index[n]))
		}
		b.WriteString("}\n\n")
	}
	b.WriteString("// names is the table: every feature name, in byte order.\n")
	b.WriteString("var names = [NumIDs]string{\n")
	for _, n := range all {
		fmt.Fprintf(&b, "\t%q,\n", n)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestTableFile checks that table.go is generated from feature.go's
// names; run with -update to regenerate it.
func TestTableFile(t *testing.T) {
	want := renderTable(t)
	if *update {
		if err := os.WriteFile("table.go", want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("table.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("table.go is stale: run go test ./internal/feature -run TestTableFile -update")
	}
}

// TestTableOrder checks the layout the ID arithmetic relies on: names in
// strictly increasing byte order, each scalar function followed by its
// FuncArg block and CREATE INDEX by its widths.
func TestTableOrder(t *testing.T) {
	for i := 1; i < NumIDs; i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("table out of order at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
	for _, fn := range scalarFunctions() {
		id := MustLookup(fn)
		for pos := 1; pos <= MaxFuncArgPos; pos++ {
			for _, typ := range typeNames {
				got := Name(FuncArgID(id, pos, MustLookup(typ)))
				if want := FuncArg(fn, pos, typ); got != want {
					t.Errorf("FuncArgID(%s, %d, %s) names %q", fn, pos, typ, got)
				}
			}
		}
	}
	for n := 1; n <= MaxIndexWidth; n++ {
		if got := Name(IndexWidthID(n)); got != IndexWidth(n) {
			t.Errorf("IndexWidthID(%d) names %q", n, got)
		}
	}
	if !strings.HasPrefix(Name(StmtCreateIndexID+1), StmtCreateIndex+"#") {
		t.Error("CREATE INDEX is not followed by its widths")
	}
}
