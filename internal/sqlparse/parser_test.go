package sqlparse_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// roundtrip parses SQL and expects rendering to reproduce want (or the
// input when want is empty).
func roundtrip(t *testing.T, sql, want string) {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	if want == "" {
		want = sql
	}
	if got := st.SQL(); got != want {
		t.Fatalf("roundtrip %q\n  got  %q\n  want %q", sql, got, want)
	}
}

// statementFixtures are fixed-point inputs: rendering reproduces the
// input exactly.
var statementFixtures = []string{
	"CREATE TABLE t0 (c0 INTEGER NOT NULL, c1 TEXT UNIQUE, PRIMARY KEY (c0))",
	"CREATE TABLE IF NOT EXISTS t1 (c0 BOOLEAN)",
	"CREATE UNIQUE INDEX i0 ON t0 (c0, c1) WHERE (c0 > 1)",
	"CREATE VIEW v0 (x) AS SELECT c0 FROM t0",
	"INSERT INTO t0 (c0) VALUES (1), (2)",
	"INSERT OR IGNORE INTO t0 (c0) VALUES (3)",
	"UPDATE t0 SET c0 = 1, c1 = 'x' WHERE (c0 = 2)",
	"DELETE FROM t0 WHERE (c0 IS NULL)",
	"ALTER TABLE t0 ADD COLUMN c2 BOOLEAN",
	"ALTER TABLE t0 DROP COLUMN c2",
	"DROP TABLE t0",
	"DROP VIEW v0",
	"ANALYZE",
	"ANALYZE t0",
	"REFRESH TABLE t0",
	"SELECT * FROM t0",
	"SELECT DISTINCT c0 AS x FROM t0 ORDER BY c0 DESC LIMIT 3 OFFSET 1",
	"SELECT t0.c0 FROM t0 INNER JOIN t1 ON (t0.c0 = t1.c0)",
	"SELECT * FROM t0 LEFT JOIN t1 ON TRUE",
	"SELECT * FROM t0 RIGHT JOIN t1 ON TRUE",
	"SELECT * FROM t0 FULL JOIN t1 ON TRUE",
	"SELECT * FROM t0 CROSS JOIN t1",
	"SELECT * FROM t0 NATURAL JOIN t1",
	"SELECT * FROM t0, t1",
	"SELECT * FROM (SELECT c0 FROM t0) AS sub0",
	"SELECT COUNT(*) FROM t0 GROUP BY c0 HAVING (COUNT(*) > 1)",
	"SELECT COUNT(DISTINCT c0) FROM t0",
	"SELECT c0 FROM t0 UNION SELECT c0 FROM t1",
	"SELECT c0 FROM t0 UNION ALL SELECT c0 FROM t1 ORDER BY c0 LIMIT 2",
	"SELECT c0 FROM t0 INTERSECT SELECT c0 FROM t1 EXCEPT SELECT c0 FROM t0",
	"CREATE VIEW v1 AS SELECT c0 FROM t0 UNION SELECT c0 FROM t1",
}

func TestParseStatements(t *testing.T) {
	for _, sql := range statementFixtures {
		roundtrip(t, sql, "")
	}
}

// statementVariants are inputs that normalize to a canonical rendering.
var statementVariants = []struct{ sql, want string }{
	{"SELECT 1;", "SELECT 1"},
	{"select c0 from t0 where c0 = 1 -- trailing comment",
		"SELECT c0 FROM t0 WHERE (c0 = 1)"},
	{"SELECT * FROM t0 AS x", "SELECT * FROM t0 AS x"},
	{"SELECT * FROM t0 x", "SELECT * FROM t0 AS x"},
	{"SELECT c0 x FROM t0", "SELECT c0 AS x FROM t0"},
	{"SELECT * FROM t0 LEFT OUTER JOIN t1 ON TRUE",
		"SELECT * FROM t0 LEFT JOIN t1 ON TRUE"},
	{"CREATE TABLE t (c INT)", "CREATE TABLE t (c INTEGER)"},
	{"CREATE TABLE t (c VARCHAR)", "CREATE TABLE t (c TEXT)"},
	{"CREATE TABLE t (c BOOL)", "CREATE TABLE t (c BOOLEAN)"},
	{"CREATE TABLE t (c INTEGER PRIMARY KEY)",
		"CREATE TABLE t (c INTEGER, PRIMARY KEY (c))"},
}

func TestParseStatementVariants(t *testing.T) {
	for _, v := range statementVariants {
		roundtrip(t, v.sql, v.want)
	}
}

// exprFixtures maps expressions to their canonical rendering.
var exprFixtures = map[string]string{
	"1 + 2 * 3":                     "(1 + (2 * 3))",
	"(1 + 2) * 3":                   "((1 + 2) * 3)",
	"1 < 2 AND 3 >= 2":              "((1 < 2) AND (3 >= 2))",
	"NOT a = b":                     "(NOT (a = b))",
	"a OR b AND c":                  "(a OR (b AND c))",
	"a XOR b":                       "(a XOR b)",
	"x BETWEEN 1 AND 2 + 3":         "(x BETWEEN 1 AND (2 + 3))",
	"x NOT BETWEEN 1 AND 2":         "(x NOT BETWEEN 1 AND 2)",
	"x IN (1, 2)":                   "(x IN (1, 2))",
	"x NOT IN (1)":                  "(x NOT IN (1))",
	"x IS NULL":                     "(x IS NULL)",
	"x IS NOT NULL":                 "(x IS NOT NULL)",
	"x IS TRUE":                     "(x IS TRUE)",
	"x IS NOT FALSE":                "(x IS NOT FALSE)",
	"x IS DISTINCT FROM y":          "(x IS DISTINCT FROM y)",
	"x IS NOT DISTINCT FROM y":      "(x IS NOT DISTINCT FROM y)",
	"x LIKE 'a%'":                   "(x LIKE 'a%')",
	"x NOT GLOB '*'":                "(x NOT GLOB '*')",
	"a <=> b":                       "(a <=> b)",
	"a == b":                        "(a = b)",
	"'it''s'":                       "'it''s'",
	"- - 2000":                      "2000", // folded into one literal
	"-9223372036854775808":          "-9223372036854775808",
	"- -9223372036854775807":        "9223372036854775807",
	"~ 5":                           "(~ 5)",
	"'a' || 'b' || 'c'":             "(('a' || 'b') || 'c')",
	"CAST(x AS TEXT)":               "CAST(x AS TEXT)",
	"CASE WHEN a THEN 1 ELSE 2 END": "(CASE WHEN a THEN 1 ELSE 2 END)",
	"CASE x WHEN 1 THEN 'a' END":    "(CASE x WHEN 1 THEN 'a' END)",
	"EXISTS (SELECT 1)":             "(EXISTS (SELECT 1))",
	"NOT EXISTS (SELECT 1)":         "(NOT EXISTS (SELECT 1))",
	"(SELECT MAX(c) FROM t)":        "(SELECT MAX(c) FROM t)",
	"NULLIF(a, b)":                  "NULLIF(a, b)",
	"t.c":                           "t.c",
	"1 & 2 | 3 << 4":                "(((1 & 2) | 3) << 4)",
	"a < b < c":                     "((a < b) < c)", // left-assoc chain
}

func TestParseExpressions(t *testing.T) {
	for sql, want := range exprFixtures {
		e, err := sqlparse.ParseExpr(sql)
		if err != nil {
			t.Errorf("parse expr %q: %v", sql, err)
			continue
		}
		if got := e.SQL(); got != want {
			t.Errorf("expr %q → %q, want %q", sql, got, want)
		}
	}
}

// errorFixtures are inputs the parser rejects, each with its full
// error: the message and the byte offset it names.
var errorFixtures = []struct{ sql, err string }{
	{"", `syntax error at offset 0: unexpected statement start ""`},
	{"SELEC 1", `syntax error at offset 0: unexpected statement start "SELEC"`},
	{"SELECT", `syntax error at offset 6: unexpected token "" in expression`},
	{"SELECT 1 FROM", `syntax error at offset 13: expected identifier, found ""`},
	{"SELECT * FROM t0 WHERE", `syntax error at offset 22: unexpected token "" in expression`},
	{"SELECT (1", `syntax error at offset 9: expected ")", found ""`},
	{"CREATE TABLE t", `syntax error at offset 14: expected "(", found ""`},
	{"CREATE TABLE t ()", `syntax error at offset 16: expected identifier, found ")"`},
	{"CREATE TABLE t (PRIMARY KEY (c))", `syntax error at offset 32: CREATE TABLE requires at least one column`},
	{"CREATE TABLE t (c0 FLOAT)", `syntax error at offset 19: expected type name, found "FLOAT"`},
	{"INSERT INTO t VALUES", `syntax error at offset 20: expected "(", found ""`},
	{"UPDATE t SET", `syntax error at offset 12: expected identifier, found ""`},
	{"SELECT 1 2", `syntax error at offset 9: unexpected trailing input "2"`},
	// An error at a lexer-error token reports the lexer's message.
	{"SELECT 'unterminated", `syntax error at offset 7: unterminated string literal`},
	// A derived table needs an alias.
	{"SELECT * FROM (SELECT 1)", `syntax error at offset 24: derived table requires an alias`},
	// CASE needs a WHEN; END is read as the missing operand.
	{"SELECT CASE END", `syntax error at offset 12: unexpected token "END" in expression`},
	{"DELETE t", `syntax error at offset 7: expected FROM, found "t"`},
	{"CREATE UNIQUE TABLE t (c INTEGER)", `syntax error at offset 14: UNIQUE is not valid before TABLE`},
	{"SELECT 1 $ 2", `syntax error at offset 9: unexpected character '$'`},
	// int64 overflow, and a magnitude below math.MinInt64.
	{"SELECT 9223372036854775808", `syntax error at offset 7: invalid integer "9223372036854775808"`},
	{"SELECT -9223372036854775809", `syntax error at offset 8: invalid integer "9223372036854775809"`},
	// Only AND, OR and XOR continue after a prefix NOT's operand, so a
	// comparison cannot follow NOT EXISTS (while it can follow EXISTS).
	{"SELECT NOT EXISTS (SELECT 1) = 1", `syntax error at offset 29: unexpected trailing input "="`},
}

func TestParseErrors(t *testing.T) {
	for _, c := range errorFixtures {
		st, err := sqlparse.Parse(c.sql)
		if err == nil {
			t.Errorf("parse %q: expected error", c.sql)
			continue
		}
		if st != nil {
			t.Errorf("parse %q: returned a statement with its error", c.sql)
		}
		if err.Error() != c.err {
			t.Errorf("parse %q: error\n  got  %s\n  want %s", c.sql, err, c.err)
		}
	}
	if _, err := sqlparse.Parse("SELECT EXISTS (SELECT 1) = 1"); err != nil {
		t.Errorf("EXISTS compared with a value: %v", err)
	}
}

// TestGeneratorOutputRoundtrips is the workhorse property test: every
// statement the adaptive generator can produce must parse back to
// identical SQL (the engine consumes text, so any asymmetry between
// renderer and parser breaks the platform). That covers the queries the
// oracles derive from each generated case too — TLP's partitions,
// TLPComposed's UNION ALL compound, TLPAggregate's AGG(x), NoREC's
// COUNT(*) and IS TRUE projections, PlanDiff's query — taken from the
// text each oracle actually sent to an engine. Every statement must also
// parse to the same tree with its keywords in mixed case.
func TestGeneratorOutputRoundtrips(t *testing.T) {
	derived := map[oracle.Name]int{}
	for seed := int64(0); seed < 4; seed++ {
		g := gen.New(gen.Config{Seed: seed, StartDepth: 3, MaxDepth: 3, RiskyProb: 0.2})
		db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
		for i := 0; i < 40; i++ {
			st := g.GenSetup()
			if st.OnSuccess != nil {
				st.OnSuccess()
			}
			checkRoundtrip(t, st.SQL)
			_ = db.Exec(st.SQL) // only the round trip is under test here
		}
		for i := 0; i < 2500; i++ {
			var sql string
			if i%3 == 0 {
				oc := g.GenOracleCase()
				if oc == nil {
					continue
				}
				if i%15 == 0 {
					checkOracleRoundtrips(t, db, oc, i, derived)
				}
				sel := oc.Base
				sel.Where = oc.Pred
				sql = sel.SQL()
			} else {
				sql = g.GenQuery().SQL
			}
			checkRoundtrip(t, sql)
		}
	}
	// Each oracle must have derived queries past its base (or, for
	// PlanDiff, past its baseline) often enough to mean something.
	for _, name := range oracle.DefaultNames() {
		if derived[name] < 100 {
			t.Errorf("%s derived only %d queries", name, derived[name])
		}
	}
}

// TestGeneratorOutputParsesToSameTree: the reducer shrinks the trees the
// parser builds from a bug's recorded text, not the generator's, so every
// setup statement, smoke or compound query, and oracle carrier query (the
// base query with the predicate as WHERE) must parse back to the very
// tree the generator built. TestGeneratorOutputRoundtrips compares
// rendered text; this compares structure, with nil and empty slices
// equal (a zero-argument call such as PI() may hold either).
func TestGeneratorOutputParsesToSameTree(t *testing.T) {
	compared := 0
	check := func(sql string, want sqlast.Stmt) {
		t.Helper()
		got, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if !sameTree(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%q parses to a different tree than the generator built", sql)
		}
		compared++
	}
	for seed := int64(0); seed < 8; seed++ {
		g := gen.New(gen.Config{Seed: seed, StartDepth: 3, MaxDepth: 3, RiskyProb: 0.2})
		db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
		for i := 0; i < 40; i++ {
			st := g.GenSetup()
			check(st.SQL, st.Stmt)
			if db.Exec(st.SQL) == nil && st.OnSuccess != nil {
				st.OnSuccess()
			}
		}
		for i := 0; i < 1500; i++ {
			if i%3 != 0 {
				st := g.GenQuery()
				if i%6 == 1 {
					if cq := g.GenCompoundQuery(); cq != nil {
						st = cq
					}
				}
				check(st.SQL, st.Stmt)
				continue
			}
			oc := g.GenOracleCase()
			if oc == nil {
				continue
			}
			carrier := *oc.Base
			carrier.Where = oc.Pred
			check(carrier.SQL(), &carrier)
		}
	}
	t.Logf("%d statements parse to the generator's tree", compared)

	one, _ := sqlparse.Parse("SELECT 1 FROM t")
	two, _ := sqlparse.Parse("SELECT 2 FROM t")
	if sameTree(reflect.ValueOf(one), reflect.ValueOf(two)) {
		t.Fatal("sameTree equates different trees")
	}
}

// sameTree reports whether a and b are deeply equal, treating nil and
// empty slices as equal. Unlike reflect.DeepEqual it reads unexported
// fields by kind, and it compares funcs by nil-ness only.
func sameTree(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if !sameTree(a.MapIndex(k), b.MapIndex(k)) {
				return false
			}
		}
		return true
	case reflect.Func, reflect.Chan:
		return a.IsNil() == b.IsNil()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float() || math.IsNaN(a.Float()) && math.IsNaN(b.Float())
	case reflect.String:
		return a.String() == b.String()
	default:
		panic("sameTree: unhandled kind " + a.Kind().String())
	}
}

// checkOracleRoundtrips runs every registered oracle on one generated
// case and round-trips each query it executed; it counts the queries
// after the first per oracle.
func checkOracleRoundtrips(t *testing.T, db *engine.DB, oc *gen.OracleCase, seq int, derived map[oracle.Name]int) {
	t.Helper()
	for _, name := range oracle.DefaultNames() {
		orc, _ := oracle.Get(name)
		c := &oracle.Case{Base: oc.Base, Pred: oc.Pred, Seq: seq}
		if !orc.Applicable(db, c) {
			continue
		}
		res := orc.Check(db, c)
		for _, q := range res.Queries {
			checkRoundtrip(t, q)
		}
		derived[name] += max(len(res.Queries)-1, 0)
	}
}

// checkRoundtrip requires sql to render back to itself, and its
// mixed-case-keyword spelling to render to sql as well.
func checkRoundtrip(t *testing.T, sql string) {
	t.Helper()
	checkParsesTo(t, sql, sql)
	checkParsesTo(t, mixKeywordCase(sql), sql)
}

// mixKeywordCase rewrites every keyword of sql in alternating letter
// case (SELECT → sElEcT), leaving identifiers and literals alone.
func mixKeywordCase(sql string) string {
	b := []byte(sql)
	lex := sqlparse.NewLexer(sql)
	for tok := lex.Next(); tok.Kind != sqlparse.TokEOF && tok.Kind != sqlparse.TokError; tok = lex.Next() {
		if tok.Kind != sqlparse.TokKeyword {
			continue
		}
		for i := tok.Pos; i < tok.Pos+len(tok.Text); i += 2 {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func checkParsesTo(t *testing.T, src, want string) {
	t.Helper()
	st, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("generated SQL does not parse: %v\n  %s", err, src)
	}
	if got := st.SQL(); got != want {
		// Show a trimmed diff position.
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 20
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("roundtrip mismatch near %q:\n  in:  %s\n  out: %s",
			want[lo:min(i+20, len(want))], src, got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestMinInt64RoundTrips pins the one literal whose rendering once failed
// to parse: math.MinInt64 has no positive int64 magnitude, so its minus
// and digits must be read as one signed literal.
func TestMinInt64RoundTrips(t *testing.T) {
	lit := sqlast.IntLit(math.MinInt64)
	e, err := sqlparse.ParseExpr(lit.SQL())
	if err != nil {
		t.Fatalf("parse %s: %v", lit.SQL(), err)
	}
	if got, ok := e.(*sqlast.Literal); !ok || got.Kind != sqlast.LitInt || got.Int != math.MinInt64 {
		t.Fatalf("parse %s = %#v, want IntLit(math.MinInt64)", lit.SQL(), e)
	}
	sel := &sqlast.Select{
		Items: []sqlast.SelectItem{{Expr: lit}},
		Where: &sqlast.Binary{Op: sqlast.OpLt, L: lit, R: &sqlast.Unary{Op: sqlast.UMinus, X: &sqlast.ColumnRef{Column: "c0"}}},
	}
	checkRoundtrip(t, sel.SQL())
}

func TestLexerTokens(t *testing.T) {
	lex := sqlparse.NewLexer("SELECT c0, 'a''b' <= 42 <=>")
	var kinds []sqlparse.TokKind
	var texts []string
	for {
		tok := lex.Next()
		if tok.Kind == sqlparse.TokEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "c0", ",", "a'b", "<=", "42", "<=>"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens %v, want %v", texts, want)
	}
	if kinds[0] != sqlparse.TokKeyword || kinds[1] != sqlparse.TokIdent ||
		kinds[3] != sqlparse.TokString || kinds[5] != sqlparse.TokInt {
		t.Fatalf("token kinds wrong: %v", kinds)
	}
}
