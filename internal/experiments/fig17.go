package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/feature"
)

// Fig1Row is one tool of the LOC comparison (paper Figure 1).
type Fig1Row struct {
	Tool       string
	PerDBMSLOC int
	Source     string
}

// Fig1 reproduces the motivation figure: the per-DBMS lines of code that
// existing testing tools require, against this platform's per-dialect
// adapter cost. The four published numbers are the paper's; the last two
// rows are measured from this repository.
func Fig1() ([]Fig1Row, string, error) {
	rows := []Fig1Row{
		{"SQLancer", 3665, "paper Figure 1 (median of 22 generators)"},
		{"Squirrel", 7909, "paper Figure 1"},
		{"SQLsmith", 268, "paper Figure 1"},
		{"EET", 574, "paper Figure 1"},
	}
	adapterLOC, engineLOC, err := measureLOC()
	if err != nil {
		return rows, "", err
	}
	rows = append(rows,
		Fig1Row{"SQLancer++ (this repo, per-dialect adapter)", adapterLOC,
			"measured: internal/dialect/dialects.go ÷ registered dialects"},
		Fig1Row{"hand-written generator equivalent (this repo)", engineLOC,
			"measured: internal/baseline + internal/core/gen"},
	)
	t := &table{header: []string{"Tool", "per-DBMS LOC", "source"}}
	for _, r := range rows {
		t.add(r.Tool, itoa(r.PerDBMSLOC), r.Source)
	}
	return rows, t.render(
		"Figure 1 — per-DBMS implementation effort (LOC)\n" +
			"(paper: adapting SQLancer's PostgreSQL generator to CrateDB still changed 1,296 LOC;\n" +
			" SQLancer++ needs ~16 LOC per DBMS)"), nil
}

// repoRoot locates the repository from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("experiments: cannot locate source path")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countLOC counts non-blank, non-comment-only lines of a file.
func countLOC(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n, nil
}

func measureLOC() (adapterPerDBMS, generatorTotal int, err error) {
	root, err := repoRoot()
	if err != nil {
		return 0, 0, err
	}
	dialects, err := countLOC(filepath.Join(root, "internal", "dialect", "dialects.go"))
	if err != nil {
		return 0, 0, err
	}
	adapterPerDBMS = dialects / len(dialect.Names())
	for _, dir := range []string{
		filepath.Join(root, "internal", "baseline"),
		filepath.Join(root, "internal", "core", "gen"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, 0, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") ||
				strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			n, err := countLOC(filepath.Join(dir, e.Name()))
			if err != nil {
				return 0, 0, err
			}
			generatorTotal += n
		}
	}
	return adapterPerDBMS, generatorTotal, nil
}

// Fig7Result holds the Venn-region counts of scalar functions and
// operators shared between the adaptive grammar and the SQLite and
// PostgreSQL baseline generators (paper Figure 7).
type Fig7Result struct {
	FuncRegions map[string]int
	OpRegions   map[string]int
	Rendered    string
}

// Fig7 computes the feature-overlap study. The universal grammar is the
// adaptive generator's feature set; the baseline generators additionally
// know their dialect's specific functions (and only its operators).
func Fig7() *Fig7Result {
	universalFn := map[string]bool{}
	for _, f := range feature.Functions {
		universalFn[f] = true
	}
	sqliteFn := map[string]bool{}
	pgFn := map[string]bool{}
	aggr := map[string]bool{}
	for _, a := range feature.Aggregates {
		aggr[a] = true
	}
	for _, f := range dialect.MustGet("sqlite").FunctionList() {
		if !aggr[f] {
			sqliteFn[f] = true
		}
	}
	for _, f := range dialect.MustGet("postgresql").FunctionList() {
		if !aggr[f] {
			pgFn[f] = true
		}
	}

	universalOp := map[string]bool{}
	for _, o := range feature.BinaryOperators {
		universalOp[o] = true
	}
	universalOp["~"] = true
	for _, o := range feature.ExprForms {
		universalOp[o] = true
	}
	sqliteOp := opSet("sqlite")
	pgOp := opSet("postgresql")

	res := &Fig7Result{
		FuncRegions: venn(universalFn, sqliteFn, pgFn),
		OpRegions:   venn(universalOp, sqliteOp, pgOp),
	}
	var sb strings.Builder
	sb.WriteString("Figure 7 — feature overlap: SQLancer++ grammar vs SQLite/PostgreSQL baseline generators\n")
	sb.WriteString("(regions: A=SQLancer++, B=SQLite gen, C=PostgreSQL gen)\n")
	sb.WriteString("scalar functions: ")
	sb.WriteString(renderRegions(res.FuncRegions))
	sb.WriteString("\noperators:        ")
	sb.WriteString(renderRegions(res.OpRegions))
	sb.WriteByte('\n')
	res.Rendered = sb.String()
	return res
}

func opSet(name string) map[string]bool {
	out := map[string]bool{}
	for _, o := range dialect.MustGet(name).OperatorList() {
		out[o] = true
	}
	return out
}

// venn computes the seven region sizes of three sets.
func venn(a, b, c map[string]bool) map[string]int {
	regions := map[string]int{}
	all := map[string]bool{}
	for _, s := range []map[string]bool{a, b, c} {
		for k := range s {
			all[k] = true
		}
	}
	for k := range all {
		key := ""
		if a[k] {
			key += "A"
		}
		if b[k] {
			key += "B"
		}
		if c[k] {
			key += "C"
		}
		regions[key]++
	}
	return regions
}

func renderRegions(r map[string]int) string {
	order := []string{"A", "B", "C", "AB", "AC", "BC", "ABC"}
	var parts []string
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r[k]))
	}
	return strings.Join(parts, " ")
}

// Table6Row is one feature-type count of the grammar (paper Table 6).
type Table6Row struct {
	FeatureType string
	Count       int
	Examples    string
}

// Table6 counts the adaptive grammar's features by type.
func Table6() ([]Table6Row, string) {
	rows := []Table6Row{
		{"Statement (core)", 6, "CREATE TABLE, CREATE INDEX, CREATE VIEW, INSERT, ANALYZE, SELECT"},
		{"Statement (extensions)", len(feature.Statements) - 6, "UPDATE, DELETE, ALTER TABLE, REFRESH TABLE"},
		{"Clause & keyword", len(feature.Clauses), "RIGHT JOIN, SUBQUERY, DISTINCT"},
		{"Function", len(feature.Functions), "NULLIF, SIN, REPLACE"},
		{"Operator", feature.AllOperatorCount(), "+, =, AND, CASE-WHEN"},
		{"Aggregate", len(feature.Aggregates), "COUNT, SUM"},
		{"Data type", 3, "INTEGER, TEXT, BOOLEAN"},
	}
	t := &table{header: []string{"Feature type", "Number", "Examples"}}
	for _, r := range rows {
		t.add(r.FeatureType, itoa(r.Count), r.Examples)
	}
	return rows, t.render(
		"Table 6 — SQL features of the adaptive grammar\n" +
			"(paper: 6 statements, 10 clauses, 58 functions, 47 operators, 3 data types)")
}

// Table1Row is one tool of the qualitative comparison (paper Table 1).
type Table1Row struct {
	Tool        string
	CrashBugs   bool
	LogicBugs   bool
	NonCSystems bool
	Manual      string
}

// Table1 renders the qualitative tool comparison.
func Table1() ([]Table1Row, string) {
	rows := []Table1Row{
		{"AFL", true, false, false, "low"},
		{"Griffin", true, false, false, "low"},
		{"WingFuzz", true, false, false, "low"},
		{"SQLRight", true, true, false, "high"},
		{"SQLsmith", true, false, true, "high"},
		{"EET", true, true, true, "high"},
		{"SQLancer", true, true, true, "high"},
		{"SQLancer++ (this work)", true, true, true, "low"},
	}
	t := &table{header: []string{"Tool", "Crash", "Logic", "Non-C systems", "Manual effort"}}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		t.add(r.Tool, yn(r.CrashBugs), yn(r.LogicBugs), yn(r.NonCSystems), r.Manual)
	}
	return rows, t.render("Table 1 — DBMS testing approaches (qualitative; from the paper)")
}
