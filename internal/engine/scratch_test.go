package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/sqlparse"
)

// TestScratchStackContract pins the stack's rules: a slice handed out
// has exactly the capacity asked for, release clears what it frees, and
// reset drops the chunks past the retention cap.
func TestScratchStackContract(t *testing.T) {
	var st stack[Value]
	if st.chunks != nil {
		t.Fatal("a zero stack holds chunks")
	}
	a := st.alloc(3)
	if len(a) != 3 || cap(a) != 3 {
		t.Fatalf("alloc(3): len %d cap %d", len(a), cap(a))
	}
	a[0], a[1], a[2] = Int(1), Int(2), Int(3)
	p := st.pos()
	b := st.alloc(2)
	b[0] = Text("x")
	// An append past the handed-out capacity must not write into b.
	a = append(a, Int(4))
	if b[0].S != "x" || b[1] != (Value{}) {
		t.Fatalf("append to a wrote into its neighbour: %v", b)
	}
	st.release(p)
	if c := st.alloc(2); c[0] != (Value{}) || c[1] != (Value{}) {
		t.Fatalf("released elements not cleared: %v", c)
	}

	// A statement far larger than the cap leaves at most the cap behind.
	for i := 0; i < 100; i++ {
		st.alloc(1000)
	}
	st.reset()
	kept := 0
	for _, c := range st.chunks {
		kept += len(c) * int(unsafe.Sizeof(Value{}))
	}
	if kept > scratchRetainBytes {
		t.Fatalf("reset kept %d bytes of chunks, cap %d", kept, scratchRetainBytes)
	}
	if st.cur != 0 || st.off != 0 {
		t.Fatalf("reset left the top at %d/%d", st.cur, st.off)
	}
}

// TestOpenAllocatesNoScratch: an instance that runs nothing has no
// scratch chunks.
func TestOpenAllocatesNoScratch(t *testing.T) {
	db := Open(dialect.MustGet("sqlite"))
	if db.st.vals.chunks != nil || db.st.lists.chunks != nil || db.st.sets.sets != nil {
		t.Fatal("Open allocated scratch")
	}
}

// snapshot deep-copies a result, so a later change to any of its bytes
// shows.
func snapshot(r *Result) *Result {
	out := &Result{Columns: append([]string(nil), r.Columns...)}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, append([]Value(nil), row...))
	}
	return out
}

// scratchFixture is two small tables, an index and a view over a
// derived table.
func scratchFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(dialect.MustGet("sqlite"), WithoutFaults(), WithParseCache(sqlparse.NewCache(64)))
	mustExec(t, db, "CREATE TABLE t0 (a INTEGER, b TEXT)")
	mustExec(t, db, "CREATE TABLE t1 (c INTEGER, d TEXT)")
	mustExec(t, db, "CREATE INDEX i1 ON t1 (c)")
	for i := 0; i < 12; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t0 (a, b) VALUES (%d, 'b%d')", i, i%3))
		mustExec(t, db, fmt.Sprintf("INSERT INTO t1 (c, d) VALUES (%d, 'd%d')", i%5, i))
	}
	return db
}

// scratchQueries cover every result shape execution builds: scalar and
// EXISTS subqueries (correlated), derived tables, a view, a join,
// grouping, DISTINCT, ORDER BY and a compound.
var scratchQueries = []string{
	"SELECT a, (SELECT MAX(c) FROM t1 WHERE t1.c <= t0.a), EXISTS (SELECT 1 FROM t1 WHERE t1.c = t0.a) FROM t0",
	"SELECT x.a, x.b, (SELECT COUNT(*) FROM (SELECT c FROM t1 WHERE t1.c > x.a) AS z) FROM (SELECT a, b FROM t0 WHERE a > 1) AS x",
	"SELECT * FROM (SELECT c, d FROM t1) AS y WHERE y.c IN (1, 2, 3) ORDER BY y.d",
	"SELECT t0.b, t1.d FROM t0 JOIN t1 ON t0.a = t1.c WHERE NOT EXISTS (SELECT 1 FROM t1 AS u WHERE u.c > t0.a + 3)",
	"SELECT b, COUNT(*), SUM(a) FROM t0 GROUP BY b ORDER BY b",
	"SELECT DISTINCT b, UPPER(b) FROM t0",
	"SELECT a FROM t0 WHERE a < 4 UNION SELECT c FROM t1 ORDER BY a",
	"SELECT a FROM t0 INTERSECT SELECT c FROM t1",
}

// TestResultsOutliveLaterStatements: a Result returned by Query stays
// byte-for-byte unchanged while later statements run on the same DB,
// however they use the statement scratch; several results of one query
// held at once, one per plan as the PlanDiff oracle holds them, stay
// unchanged too.
func TestResultsOutliveLaterStatements(t *testing.T) {
	db := scratchFixture(t)
	var held, want []*Result
	for _, q := range scratchQueries {
		r := mustQuery(t, db, q)
		held, want = append(held, r), append(want, snapshot(r))
	}
	sel := parseSelectStmt(t, scratchQueries[3])
	for _, spec := range EnumeratePlans(db, sel) {
		db.SetPlanSpec(spec)
		r := mustQuery(t, db, scratchQueries[3])
		held, want = append(held, r), append(want, snapshot(r))
	}
	db.SetPlanSpec(PlanSpec{})
	for round := 0; round < 3; round++ {
		for _, q := range scratchQueries {
			mustQuery(t, db, q)
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t0 (a, b) VALUES (%d, 'new')", 100+round))
		mustExec(t, db, "UPDATE t1 SET d = 'upd' WHERE c = 2")
	}
	for i := range held {
		if !reflect.DeepEqual(snapshot(held[i]), want[i]) {
			t.Errorf("result %d changed after later statements:\n got %v\nwant %v", i, held[i], want[i])
		}
	}
}

// TestViewOverDerivedTableKeepsColumns: a view's columns are copied out
// of validation's scratch, so later statements do not rename them.
func TestViewOverDerivedTableKeepsColumns(t *testing.T) {
	db := scratchFixture(t)
	mustExec(t, db, "CREATE VIEW v AS SELECT x.a, x.b, x.a + 1 FROM (SELECT a, b FROM t0) AS x")
	wantCols := []string{"a", "b", "col3"}
	for _, q := range scratchQueries {
		mustQuery(t, db, q)
	}
	mustExec(t, db, "CREATE VIEW w AS SELECT c AS p, d AS q, 7 AS r FROM t1")
	if got := db.store.view("v").Columns; !reflect.DeepEqual(got, wantCols) {
		t.Fatalf("view columns = %v, want %v", got, wantCols)
	}
	if got := mustQuery(t, db, "SELECT * FROM v WHERE a = 2").Columns; !reflect.DeepEqual(got, wantCols) {
		t.Fatalf("SELECT * FROM v columns = %v, want %v", got, wantCols)
	}
}

// correlatedAllocs is the allocations of one run of the
// BenchmarkCorrelatedJoinSubquery query over n outer rows, and the
// number of chunks the scratch's result stack holds after it.
func correlatedAllocs(t *testing.T, n int) (float64, int) {
	t.Helper()
	db := Open(dialect.MustGet("sqlite"), WithoutFaults())
	mustExec(t, db, "CREATE TABLE t0 (c0 INTEGER, c1 TEXT)")
	mustExec(t, db, "CREATE TABLE t1 (c0 INTEGER, c1 TEXT)")
	mustExec(t, db, "CREATE TABLE t2 (c0 INTEGER, c1 INTEGER)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 'x%d')", i%3, i%5))
		mustExec(t, db, fmt.Sprintf("INSERT INTO t2 VALUES (%d, %d)", i%5, i))
	}
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t0 VALUES (%d, 'r%d')", i%4, i))
	}
	const q = "SELECT t0.c1, (SELECT COUNT(*) FROM t1 JOIN t2 ON t1.c0 = t2.c0 " +
		"WHERE t2.c1 > t0.c0) FROM t0 WHERE EXISTS (SELECT 1 FROM t1 LEFT JOIN t2 " +
		"ON t1.c0 = t2.c0 WHERE t1.c0 = t0.c0)"
	mustQuery(t, db, q)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, len(db.st.results.chunks)
}

// TestCorrelatedSubqueryAllocsPerOuterRow guards the subquery consumers'
// mark and release: a correlated subquery reruns per outer row in the
// statement scratch, so an extra outer row costs at most the output row
// it adds, not a materialized subquery result, and each run's result is
// released before the next (the scratch does not grow with the rows).
func TestCorrelatedSubqueryAllocsPerOuterRow(t *testing.T) {
	small, smallChunks := correlatedAllocs(t, 10)
	large, largeChunks := correlatedAllocs(t, 40)
	if per := (large - small) / 30; per > 8 {
		t.Fatalf("%.1f allocations per extra outer row (%.0f at 10 rows, %.0f at 40)", per, small, large)
	}
	if largeChunks != smallChunks {
		t.Fatalf("subquery results pile up: %d result chunks at 10 outer rows, %d at 40", smallChunks, largeChunks)
	}
}

// scratchTops reads every typed stack's top and chunk count.
func scratchTops(sc *stmtScratch) map[string][3]int64 {
	out := map[string][3]int64{}
	v := reflect.ValueOf(sc).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !strings.HasPrefix(f.Type().Name(), "stack[") {
			continue
		}
		out[v.Type().Field(i).Name] = [3]int64{f.FieldByName("cur").Int(), f.FieldByName("off").Int(), int64(f.FieldByName("chunks").Len())}
	}
	return out
}

// TestScratchReleaseCoversEveryStack: release to an empty mark and
// reset bring every typed stack back to the bottom, for statements
// that between them use every stack.
func TestScratchReleaseCoversEveryStack(t *testing.T) {
	db := scratchFixture(t)
	mustExec(t, db, "CREATE VIEW v AS SELECT x.a, x.b FROM (SELECT a, b FROM t0) AS x")
	stmts := append([]string{
		"SELECT * FROM t0 NATURAL JOIN (SELECT c AS a, d FROM t1) AS n",
		"SELECT t0.a, t1.d FROM t0 FULL JOIN t1 ON t0.a = t1.c",
		"SELECT * FROM v WHERE a > 3",
		"UPDATE t1 SET d = 'u' WHERE c = (SELECT MIN(a) FROM t0)",
	}, scratchQueries...)
	for _, q := range stmts {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		db.st.reset()
		m := db.st.mark()
		if err := db.validateStmt(stmt); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, err := db.execStmt(stmt, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		db.st.release(m)
		for name, top := range scratchTops(&db.st) {
			if top[0] != 0 || top[1] != 0 {
				t.Errorf("%s: release left stack %s at %d/%d", q, name, top[0], top[1])
			}
		}
	}
	for name, top := range scratchTops(&db.st) {
		if top[2] == 0 {
			t.Errorf("no statement used stack %s: add one that does", name)
		}
	}
	db.st.sets.take()
	db.st.reset()
	if db.st.sets.depth != 0 {
		t.Errorf("reset left %d key sets lent", db.st.sets.depth)
	}
}

// TestQueryScratchAllocatesNothing: once a query is parsed, cached and
// the scratch has grown to fit it, QueryScratch of a SELECT allocates
// nothing for its result, whatever shape the result has: correlated
// subqueries, derived tables, a join, grouping, DISTINCT, ORDER BY and
// the set operations. The one allowance is what a function computes:
// UPPER builds one new string per row of t0 (12 rows), under Query too;
// the DISTINCT over it keeps its keys in the scratch.
func TestQueryScratchAllocatesNothing(t *testing.T) {
	db := scratchFixture(t)
	for i, q := range scratchQueries {
		want := 0.0
		if i == 5 { // SELECT DISTINCT b, UPPER(b) FROM t0
			want = 12
		}
		db.QueryScratch(q) // parse, cache and grow the scratch
		if n := testing.AllocsPerRun(50, func() {
			if _, err := db.QueryScratch(q); err != nil {
				t.Fatal(err)
			}
		}); n != want {
			t.Errorf("%s: %.1f allocations per QueryScratch, want %.0f", q, n, want)
		}
	}
}

// TestKeySetMatchesMap: a key set numbers keys in first-insertion order
// and answers membership like a map, through growth and reuse, for
// empty, short and long keys.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ss setStack
	for round := 0; round < 4; round++ {
		ss.reset()
		ks := ss.take()
		ref := map[string]int{}
		for i := 0; i < 3000; i++ {
			key := []byte(strings.Repeat("k", rng.Intn(3)) + strconv.Itoa(rng.Intn(100*(round+1))))
			if rng.Intn(2) == 0 {
				if got, want := ks.has(key), ref[string(key)] > 0; got != want {
					t.Fatalf("round %d: has(%q) = %v, want %v", round, key, got, want)
				}
				continue
			}
			n, added := ks.add(key)
			want, seen := ref[string(key)]
			if !seen {
				want = len(ref)
				ref[string(key)] = want + 1
			} else {
				want--
			}
			if n != want || added == seen {
				t.Fatalf("round %d: add(%q) = %d, %v; want %d, %v", round, key, n, added, want, !seen)
			}
		}
		if ks.len() != len(ref) {
			t.Fatalf("round %d: %d keys, want %d", round, ks.len(), len(ref))
		}
	}
}
