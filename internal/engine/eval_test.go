package engine

import (
	"strings"
	"testing"

	"sqlancerpp/internal/dialect"
)

// queryOne runs a single-row, single-column query and returns the value.
func queryOne(t *testing.T, db *DB, sql string) Value {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("query %q: want 1×1 result, got %v", sql, res.RenderRows())
	}
	return res.Rows[0][0]
}

func expectValue(t *testing.T, db *DB, expr, want string) {
	t.Helper()
	got := queryOne(t, db, "SELECT "+expr).Render()
	if got != want {
		t.Errorf("SELECT %s = %s, want %s", expr, got, want)
	}
}

func TestEvalArithmetic(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"1 + 2":       "3",
		"5 - 8":       "-3",
		"4 * 3":       "12",
		"7 / 2":       "3",
		"7 % 3":       "1",
		"1 / 0":       "NULL", // dynamic dialect: NULL
		"5 & 3":       "1",
		"5 | 2":       "7",
		"5 ^ 1":       "4",
		"1 << 4":      "16",
		"16 >> 2":     "4",
		"1 << 200":    "0", // out-of-range shift
		"- 5":         "-5",
		"~ 0":         "-1",
		"NULL + 1":    "NULL",
		"'3x' + 1":    "4", // text coerces via leading integer
		"TRUE + TRUE": "2",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
}

func TestEvalDivZeroStatic(t *testing.T) {
	db := openClean(t, "postgresql")
	mustExec(t, db, "CREATE TABLE t (c INTEGER)")
	mustExec(t, db, "INSERT INTO t (c) VALUES (0)")
	if err := db.Exec("SELECT 1 / c FROM t"); err == nil {
		t.Fatal("static dialect must raise division-by-zero")
	} else if ClassOf(err) != ErrRuntime {
		t.Fatalf("want runtime error, got %v", err)
	}
}

func TestEvalComparisons(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"1 = 1":                          "TRUE",
		"1 = 2":                          "FALSE",
		"1 != 2":                         "TRUE",
		"1 <> 1":                         "FALSE",
		"1 < 2":                          "TRUE",
		"2 <= 2":                         "TRUE",
		"3 > 2":                          "TRUE",
		"1 >= 2":                         "FALSE",
		"NULL = NULL":                    "NULL",
		"NULL = 1":                       "NULL",
		"1 IS DISTINCT FROM NULL":        "TRUE",
		"NULL IS DISTINCT FROM NULL":     "FALSE",
		"NULL IS NOT DISTINCT FROM NULL": "TRUE",
		"1 < 'a'":                        "TRUE", // numeric class orders first
		"'b' > 'a'":                      "TRUE",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
	// <=> is MySQL-family.
	my := openClean(t, "mysql")
	expectValue(t, my, "NULL <=> NULL", "TRUE")
	expectValue(t, my, "NULL <=> 1", "FALSE")
	expectValue(t, my, "2 <=> 2", "TRUE")
}

func TestEvalLogicalAndNullHandling(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"TRUE AND NULL":    "NULL",
		"FALSE AND NULL":   "FALSE",
		"TRUE OR NULL":     "TRUE",
		"FALSE OR NULL":    "NULL",
		"NOT NULL":         "NULL",
		"NULL IS NULL":     "TRUE",
		"1 IS NOT NULL":    "TRUE",
		"NULL IS TRUE":     "FALSE",
		"TRUE IS TRUE":     "TRUE",
		"FALSE IS FALSE":   "TRUE",
		"NULL IS NOT TRUE": "TRUE",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
	my := openClean(t, "mysql")
	expectValue(t, my, "TRUE XOR FALSE", "TRUE")
	expectValue(t, my, "TRUE XOR NULL", "NULL")
}

func TestEvalBetweenInLike(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"2 BETWEEN 1 AND 3":     "TRUE",
		"1 BETWEEN 1 AND 3":     "TRUE", // inclusive bounds
		"3 BETWEEN 1 AND 3":     "TRUE",
		"0 NOT BETWEEN 1 AND 3": "TRUE",
		"NULL BETWEEN 1 AND 3":  "NULL",
		"2 IN (1, 2, 3)":        "TRUE",
		"5 IN (1, 2, 3)":        "FALSE",
		"5 IN (1, NULL)":        "NULL",
		"5 NOT IN (1, NULL)":    "NULL",
		"1 NOT IN (2, 3)":       "TRUE",
		"'abc' LIKE 'a%'":       "TRUE",
		"'abc' LIKE 'A_C'":      "TRUE", // LIKE is case-insensitive
		"'abc' LIKE 'x%'":       "FALSE",
		"'abc' NOT LIKE 'x%'":   "TRUE",
		"NULL LIKE '%'":         "NULL",
		"'abc' GLOB 'a*'":       "TRUE",
		"'abc' GLOB 'A*'":       "FALSE", // GLOB is case-sensitive
		"'abc' GLOB '?b?'":      "TRUE",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
}

func TestEvalCase(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"CASE WHEN TRUE THEN 1 ELSE 2 END":           "1",
		"CASE WHEN FALSE THEN 1 ELSE 2 END":          "2",
		"CASE WHEN NULL THEN 1 ELSE 2 END":           "2", // NULL is not TRUE
		"CASE WHEN FALSE THEN 1 END":                 "NULL",
		"CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END": "'b'",
		"CASE NULL WHEN NULL THEN 'x' ELSE 'y' END":  "'y'", // NULL matches nothing
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
}

func TestEvalCast(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"CAST('42' AS INTEGER)":   "42",
		"CAST('42x' AS INTEGER)":  "42", // dynamic: leading-integer
		"CAST(7 AS TEXT)":         "'7'",
		"CAST(TRUE AS INTEGER)":   "1",
		"CAST('true' AS BOOLEAN)": "TRUE",
		"CAST(NULL AS INTEGER)":   "NULL",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
	pg := openClean(t, "postgresql")
	if err := pg.Exec("SELECT CAST('42x' AS INTEGER)"); err == nil {
		t.Fatal("static dialect must reject CAST('42x' AS INTEGER)")
	} else if ClassOf(err) != ErrRuntime {
		t.Fatalf("want runtime error, got %v", err)
	}
	expectValue(t, pg, "CAST('42' AS INTEGER)", "42")
}

func TestEvalStringFunctions(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"LENGTH('abc')":             "3",
		"LOWER('AbC')":              "'abc'",
		"UPPER('AbC')":              "'ABC'",
		"TRIM('  x ')":              "'x'",
		"LTRIM('  x')":              "'x'",
		"RTRIM('x  ')":              "'x'",
		"REPLACE('aXbX', 'X', 'y')": "'ayby'",
		"REPLACE('ab', '', 'y')":    "'ab'", // empty needle is identity
		"SUBSTR('hello', 2, 3)":     "'ell'",
		"SUBSTR('hello', 2)":        "'ello'",
		"SUBSTR('hi', 9)":           "''",
		"INSTR('hello', 'll')":      "3",
		"INSTR('hello', 'z')":       "0",
		"HEX('AB')":                 "'4142'",
		"QUOTE('a''b')":             "''a''b''",
		"NULLIF(1, 1)":              "NULL",
		"NULLIF(1, 2)":              "1",
		"NULLIF(NULL, 1)":           "NULL",
		"COALESCE(NULL, NULL, 3)":   "3",
		"COALESCE(NULL, NULL)":      "NULL",
		"IFNULL(NULL, 5)":           "5",
		"IIF(TRUE, 1, 2)":           "1",
		"IIF(FALSE, 1, 2)":          "2",
		"TYPEOF('x')":               "'text'",
		"TYPEOF(NULL)":              "'null'",
		"UNICODE('A')":              "65",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
}

func TestEvalNumericFunctions(t *testing.T) {
	db := openClean(t, "sqlite")
	cases := map[string]string{
		"ABS(-5)":      "5",
		"SIGN(-9)":     "-1",
		"SIGN(0)":      "0",
		"MOD(7, 3)":    "1",
		"MOD(7, 0)":    "NULL", // dynamic
		"SQRT(16)":     "4",
		"SQRT(-1)":     "NULL", // dynamic
		"POWER(2, 10)": "1024",
		"SIN(0)":       "0",
		"COS(0)":       "1000", // fixed-point ×1000
		"ASIN(1000)":   "1571", // asin(1.0)·1000 ≈ π/2·1000
		"ASIN(2000)":   "NULL", // out of fixed-point domain (dynamic: NULL)
		"PI()":         "3142",
		"LN(1)":        "0",
		"LOG10(100)":   "2000",
		"MIN(3, 1, 2)": "1", // scalar MIN
		"MAX(3, 1, 2)": "3",
		"MIN(3, NULL)": "NULL",
	}
	for expr, want := range cases {
		expectValue(t, db, expr, want)
	}
	// Domain errors on static dialects (the paper's ASIN(2) example).
	pg := openClean(t, "postgresql")
	if err := pg.Exec("SELECT ASIN(2000)"); err == nil {
		t.Fatal("ASIN(2000) must fail on a static dialect")
	}
	expectValue(t, pg, "ASIN(1000)", "1571")
}

func TestEvalScalarSubqueryAndExists(t *testing.T) {
	db := openClean(t, "sqlite")
	mustExec(t, db, "CREATE TABLE t (c INTEGER)")
	mustExec(t, db, "INSERT INTO t (c) VALUES (5), (7)")
	expectValue(t, db, "(SELECT MAX(c) FROM t)", "7")
	expectValue(t, db, "EXISTS (SELECT * FROM t)", "TRUE")
	expectValue(t, db, "EXISTS (SELECT * FROM t WHERE c > 10)", "FALSE")
	expectValue(t, db, "NOT EXISTS (SELECT * FROM t WHERE c > 10)", "TRUE")
	expectValue(t, db, "(SELECT c FROM t WHERE c > 100)", "NULL")
	if err := db.Exec("SELECT (SELECT c FROM t)"); err == nil {
		t.Fatal("multi-row scalar subquery must error")
	}
}

func TestEvalEveryRegisteredFunction(t *testing.T) {
	// Each function must evaluate without panicking for NULL arguments
	// and for benign values (dynamic dialect so coercion always applies).
	// A synthetic dialect enables the full registry.
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "all-functions-test"
	for _, name := range FuncNames() {
		d.Functions.Add(LookupFunc(name).Feature)
	}
	db := Open(d, WithoutFaults())
	for _, name := range FuncNames() {
		def := LookupFunc(name)
		n := def.MinArgs
		args := make([]string, n)
		for i := range args {
			args[i] = "NULL"
		}
		sql := "SELECT " + name + "(" + strings.Join(args, ", ") + ")"
		if n == 0 {
			sql = "SELECT " + name + "()"
		}
		if _, err := db.Query(sql); err != nil {
			t.Errorf("%s with NULL args: %v", name, err)
		}
		for i := range args {
			args[i] = "1"
		}
		sql = "SELECT " + name + "(" + strings.Join(args, ", ") + ")"
		if n == 0 {
			sql = "SELECT " + name + "()"
		}
		if _, err := db.Query(sql); err != nil {
			t.Errorf("%s with 1-args: %v", name, err)
		}
	}
}

func TestEvalConcat(t *testing.T) {
	db := openClean(t, "sqlite")
	expectValue(t, db, "'a' || 'b'", "'ab'")
	expectValue(t, db, "1 || 2", "'12'")
	expectValue(t, db, "NULL || 'x'", "NULL")
}

func TestUnsupportedFunctionPerDialect(t *testing.T) {
	// GCD is absent from the SQLite profile; the engine must reject it as
	// an unsupported feature (not a missing function).
	db := openClean(t, "sqlite")
	err := db.Exec("SELECT GCD(4, 6)")
	if err == nil || ClassOf(err) != ErrUnsupported {
		t.Fatalf("want unsupported GCD on sqlite, got %v", err)
	}
	pg := openClean(t, "postgresql")
	expectValue(t, pg, "GCD(4, 6)", "2")
	if _, err := dialect.Get("postgresql"); err != nil {
		t.Fatal(err)
	}
}
