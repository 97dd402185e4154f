package engine

import (
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// faultedDB builds a DB whose dialect carries exactly the given faults.
func faultedDB(t *testing.T, base string, fs ...faults.Fault) *DB {
	t.Helper()
	d := dialect.MustGet(base).Clone()
	d.Name = base + "-faulted-test"
	d.Faults = faults.NewSet(fs)
	return Open(d)
}

// tlpCounts runs the base query and the three TLP partitions for pred
// and returns (base rows, partition union rows).
func tlpCounts(t *testing.T, db *DB, base, pred string) (int, int) {
	t.Helper()
	b := mustQuery(t, db, base)
	p1 := mustQuery(t, db, base+" WHERE "+pred)
	p2 := mustQuery(t, db, base+" WHERE NOT ("+pred+")")
	p3 := mustQuery(t, db, base+" WHERE ("+pred+") IS NULL")
	return len(b.Rows), len(p1.Rows) + len(p2.Rows) + len(p3.Rows)
}

func seedRows(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, s TEXT)")
	mustExec(t, db, "INSERT INTO t (a, s) VALUES (1, 'x'), (2, NULL), (NULL, 'y')")
}

func TestFaultCmpNullTrue(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.CmpNullTrue, Class: faults.Logic, Param: "="})
	seedRows(t, db)
	// a = 1 is NULL for the NULL row: the fault keeps it, so the
	// partitions overcount.
	base, union := tlpCounts(t, db, "SELECT * FROM t", "a = 1")
	if union <= base {
		t.Fatalf("CmpNullTrue not visible: base %d, union %d", base, union)
	}
	// TriggeredFaults is per statement: re-run the affected partition.
	mustQuery(t, db, "SELECT * FROM t WHERE a = 1")
	if got := db.TriggeredFaults(); len(got) == 0 {
		t.Fatal("fault not recorded as triggered")
	}
	// The fault only applies at the filter root: projections are clean.
	res := mustQuery(t, db, "SELECT a = 1 FROM t WHERE a IS NULL")
	if !res.Rows[0][0].IsNull() {
		t.Fatal("projection path must stay clean")
	}
}

func TestFaultCmpNullEqTrue(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.CmpNullEqTrue, Class: faults.Logic, Param: "="})
	seedRows(t, db)
	res := mustQuery(t, db, "SELECT * FROM t WHERE NULL = NULL")
	if len(res.Rows) != 3 {
		t.Fatalf("NULL = NULL should (wrongly) keep all rows, got %d", len(res.Rows))
	}
	// Comparisons with only one NULL side stay NULL.
	res = mustQuery(t, db, "SELECT * FROM t WHERE 1 = NULL")
	if len(res.Rows) != 0 {
		t.Fatal("single-NULL comparison must not be affected")
	}
}

func TestFaultCmpMixedText(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.CmpMixedText, Class: faults.Logic, Param: "<"})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (5)")
	// Reference: 5 < '3' is TRUE (numeric class first). Faulty textual
	// comparison: '5' < '3' is FALSE.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a < '3'")
	if len(res.Rows) != 0 {
		t.Fatal("mixed comparison should (wrongly) compare textually")
	}
	if len(db.TriggeredFaults()) == 0 {
		t.Fatal("fault not recorded")
	}
}

func TestFaultFuncCmpNumeric(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.FuncCmpNumeric, Class: faults.Logic, Param: "REPLACE"})
	mustExec(t, db, "CREATE TABLE t0 (c0 TEXT, PRIMARY KEY (c0))")
	mustExec(t, db, "INSERT INTO t0 (c0) VALUES ('01')")
	// Paper Listing 2's shape: '01' = '1' is textually FALSE but
	// numerically TRUE; both the predicate and its negation now match.
	q1 := mustQuery(t, db, "SELECT * FROM t0 WHERE t0.c0 = REPLACE('1', ' ', '0')")
	q2 := mustQuery(t, db, "SELECT * FROM t0 WHERE NOT t0.c0 = REPLACE('1', ' ', '0')")
	if len(q1.Rows)+len(q2.Rows) != 2 {
		t.Fatalf("REPLACE fault: want row in both partitions, got %d+%d",
			len(q1.Rows), len(q2.Rows))
	}
}

func TestFaultFuncWrongVal(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.FuncWrongVal, Class: faults.Logic, Param: "ABS"})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (5)")
	// ABS(5) perturbs to 6 under a filter-root comparison.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = ABS(5)")
	if len(res.Rows) != 0 {
		t.Fatal("perturbed ABS should break the equality")
	}
	// Clean in projections.
	res = mustQuery(t, db, "SELECT ABS(5) FROM t")
	if res.Rows[0][0].I != 5 {
		t.Fatal("projection ABS must stay clean")
	}
}

func TestFaultJoinOnToWhere(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.JoinOnToWhere, Class: faults.Logic, Param: "LEFT JOIN"})
	mustExec(t, db, "CREATE TABLE l (a INTEGER)")
	mustExec(t, db, "CREATE TABLE r (b INTEGER)")
	mustExec(t, db, "INSERT INTO l (a) VALUES (1), (2)")
	mustExec(t, db, "INSERT INTO r (b) VALUES (2)")
	// Without WHERE the join is correct: 2 rows (one NULL-extended).
	res := mustQuery(t, db, "SELECT * FROM l LEFT JOIN r ON l.a = r.b")
	if len(res.Rows) != 2 {
		t.Fatalf("un-flattened join wrong: %v", res.RenderRows())
	}
	// With WHERE present the flattener degrades it to an inner join.
	res = mustQuery(t, db, "SELECT * FROM l LEFT JOIN r ON l.a = r.b WHERE TRUE")
	if len(res.Rows) != 1 {
		t.Fatalf("flattener fault should drop the NULL-extended row: %v", res.RenderRows())
	}
}

func TestFaultNotElim(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.NotElim, Class: faults.Logic, Param: "<"})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (2)")
	// NOT (a < 2) should keep a = 2; the wrong complement (a > 2) drops it.
	res := mustQuery(t, db, "SELECT * FROM t WHERE NOT a < 2")
	if len(res.Rows) != 0 {
		t.Fatal("NotElim fault should drop the equal row")
	}
}

func TestFaultNotInNullTrue(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.NotInNullTrue, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (5)")
	// 5 NOT IN (1, NULL) is NULL; the fault turns it TRUE.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a NOT IN (1, NULL)")
	if len(res.Rows) != 1 {
		t.Fatal("NOT IN fault should keep the row")
	}
	// Plain IN stays clean.
	res = mustQuery(t, db, "SELECT * FROM t WHERE a IN (1, NULL)")
	if len(res.Rows) != 0 {
		t.Fatal("IN must stay clean")
	}
}

func TestFaultBetweenExclusive(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.BetweenExclusive, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1), (2), (3)")
	res := mustQuery(t, db, "SELECT * FROM t WHERE a BETWEEN 1 AND 3")
	if len(res.Rows) != 1 {
		t.Fatalf("exclusive BETWEEN should keep only the middle row, got %d", len(res.Rows))
	}
}

func TestFaultLikeUnderscore(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.LikeUnderscore, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (s TEXT)")
	mustExec(t, db, "INSERT INTO t (s) VALUES ('ab')")
	res := mustQuery(t, db, "SELECT * FROM t WHERE s LIKE 'a_'")
	if len(res.Rows) != 0 {
		t.Fatal("broken underscore should fail to match")
	}
	res = mustQuery(t, db, "SELECT * FROM t WHERE s LIKE 'a%'")
	if len(res.Rows) != 1 {
		t.Fatal("% wildcard must stay clean")
	}
}

func TestFaultCaseNullTrue(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.CaseNullTrue, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	// The WHEN condition is NULL; the faulty CASE takes that branch.
	res := mustQuery(t, db,
		"SELECT * FROM t WHERE CASE WHEN NULL THEN TRUE ELSE FALSE END")
	if len(res.Rows) != 1 {
		t.Fatal("CASE fault should take the NULL branch")
	}
}

func TestFaultDistinctFromNull(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.DistinctFromNull, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	res := mustQuery(t, db, "SELECT * FROM t WHERE NULL IS DISTINCT FROM NULL")
	if len(res.Rows) != 1 {
		t.Fatal("IS DISTINCT FROM fault should treat two NULLs as distinct")
	}
}

func TestFaultPartialIndexScan(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.PartialIndexScan, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 10), (1, 0)")
	mustExec(t, db, "CREATE INDEX i ON t (a) WHERE b > 5")
	// The equality filter on the partial index's leading column reads
	// only the index, dropping the uncovered row.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("partial-index fault should drop uncovered rows, got %d", len(res.Rows))
	}
}

func TestFaultCrashAndInternal(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "c1", Kind: faults.CrashOnFeature, Class: faults.Crash, Param: "XOR"},
		faults.Fault{ID: "e1", Kind: faults.InternalErrorOnFeature, Class: faults.Error, Param: "HEX"},
	)
	// XOR is unsupported on sqlite, so use a dialect that has it.
	db2 := faultedDB(t, "mysql",
		faults.Fault{ID: "c1", Kind: faults.CrashOnFeature, Class: faults.Crash, Param: "XOR"})
	err := db2.Exec("SELECT TRUE XOR FALSE")
	if !IsCrash(err) {
		t.Fatalf("want crash on XOR, got %v", err)
	}
	err = db.Exec("SELECT HEX('a')")
	if !IsInternal(err) {
		t.Fatalf("want internal error on HEX, got %v", err)
	}
	// Crash fires only for statements that pass validation.
	db3 := faultedDB(t, "sqlite",
		faults.Fault{ID: "c2", Kind: faults.CrashOnFeature, Class: faults.Crash, Param: "GCD"})
	err = db3.Exec("SELECT GCD(1, 2)") // GCD unsupported on sqlite
	if IsCrash(err) {
		t.Fatal("unsupported-feature statements must not reach the crash fault")
	}
}

func TestFaultCrashOnDeepExpr(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "d1", Kind: faults.CrashOnDeepExpr, Class: faults.Crash})
	mustExec(t, db, "SELECT 1 + 1")
	err := db.Exec("SELECT ((((((1 + 1) + 1) + 1) + 1) + 1) + 1) + 1")
	if !IsCrash(err) {
		t.Fatalf("want crash on deep expression, got %v", err)
	}
}

func TestFaultPerf(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "p1", Kind: faults.PerfOnFeature, Class: faults.Perf, Param: "IN"})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	mustExec(t, db, "SELECT * FROM t WHERE a IN (1, 2)")
	if db.LastCost() < 1_000_000 {
		t.Fatalf("perf fault should inflate cost, got %d", db.LastCost())
	}
	mustExec(t, db, "SELECT * FROM t WHERE a = 1")
	if db.LastCost() >= 1_000_000 {
		t.Fatal("cost must reset for unaffected statements")
	}
}

// TestFaultTriggerPrecision: the ground-truth trigger fires only when the
// faulty result actually differs from the reference result.
func TestFaultTriggerPrecision(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.CmpNullTrue, Class: faults.Logic, Param: "="})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	// No NULLs involved: the comparison is clean, no trigger.
	mustExec(t, db, "SELECT * FROM t WHERE a = 1")
	if len(db.TriggeredFaults()) != 0 {
		t.Fatal("fault must not trigger for non-NULL comparisons")
	}
	mustExec(t, db, "SELECT * FROM t WHERE a = NULL")
	if len(db.TriggeredFaults()) != 1 {
		t.Fatal("fault must trigger for NULL comparisons")
	}
}

// TestFaultCatalogueShape checks the catalogue totals against the
// documented half-scale Table 2 distribution.
func TestFaultCatalogueShape(t *testing.T) {
	total, logic := 0, 0
	perDialect := map[string]int{}
	for _, name := range dialect.PaperDBMSs {
		fs := faults.ForDialect(name)
		perDialect[name] = len(fs)
		for _, f := range fs {
			total++
			if f.Class == faults.Logic {
				logic++
			}
		}
	}
	if total != 128 {
		t.Errorf("catalogue total = %d, want 128", total)
	}
	if logic != 96 {
		t.Errorf("logic faults = %d, want 96", logic)
	}
	// Shape: Umbra > MonetDB > Dolt ≈ CrateDB > the rest (paper Table 2).
	if !(perDialect["umbra"] > perDialect["monetdb"] &&
		perDialect["monetdb"] > perDialect["dolt"] &&
		perDialect["dolt"] >= perDialect["cratedb"] &&
		perDialect["cratedb"] > perDialect["firebird"]) {
		t.Errorf("catalogue shape broken: %v", perDialect)
	}
	if len(faults.ForDialect("postgresql")) != 0 {
		t.Error("postgresql must be a clean reference system")
	}
}
