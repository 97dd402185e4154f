package engine

// Join-arena and allocation tests for the execute path. The arena hands
// out combined join rows from chunks that start at jrowChunkMin slots
// and double up to jrowChunkMax; these tests pin that growth, prove no
// handed-out row aliases another across chunk boundaries, check join
// results against hand-computed multisets at sizes that cross every
// chunk regime, and guard that an uninstrumented join allocates per
// emitted row, never per candidate pair.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
)

// TestJoinArenaChunkGrowth drives the arena directly: chunks double from
// jrowChunkMin to the jrowChunkMax cap, a row wider than the next chunk
// still gets a chunk that fits it, and every handed-out row keeps its
// own capacity-bounded slots after later rows are written.
func TestJoinArenaChunkGrowth(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		var a jrowArena
		vals := make([][]Value, 3000)
		for i := range vals {
			vals[i] = []Value{Int(int64(i))}
		}
		var rows []jrow
		var chunks []int
		lrow := make(jrow, width-1)
		for i := range vals {
			for j := range lrow {
				lrow[j] = vals[(i+j+1)%len(vals)]
			}
			before := len(a.buf)
			r := a.row(lrow, vals[i])
			if before < width {
				chunks = append(chunks, len(a.buf)+width)
			}
			if len(r) != width || cap(r) != width {
				t.Fatalf("width %d row %d: len %d cap %d", width, i, len(r), cap(r))
			}
			rows = append(rows, r)
		}
		want := jrowChunkMin
		for ci, c := range chunks {
			if c != want {
				t.Fatalf("width %d: chunk %d has %d slots, want %d (chunks %v)", width, ci, c, want, chunks)
			}
			want = min(2*want, jrowChunkMax)
		}
		if chunks[len(chunks)-1] != jrowChunkMax {
			t.Fatalf("width %d: %d rows never reached the %d-slot cap: %v", width, len(rows), jrowChunkMax, chunks)
		}
		seen := map[*[]Value]int{}
		for i, r := range rows {
			if p := &r[0]; seen[p] != 0 {
				t.Fatalf("width %d: row %d aliases row %d", width, i, seen[p]-1)
			} else {
				seen[p] = i + 1
			}
			for j := 0; j < width-1; j++ {
				if got := r[j][0].I; got != int64((i+j+1)%len(vals)) {
					t.Fatalf("width %d: row %d slot %d = %d after later writes", width, i, j, got)
				}
			}
			if got := r[width-1][0].I; got != int64(i) {
				t.Fatalf("width %d: row %d last slot = %d", width, i, got)
			}
		}
	}

	// A combined row wider than the next chunk still gets one chunk that
	// holds all of it.
	var a jrowArena
	wide := make(jrow, jrowChunkMin+4)
	if r := a.row(wide, nil); len(r) != jrowChunkMin+5 || cap(r) != jrowChunkMin+5 {
		t.Fatalf("wide row: len %d cap %d, want %d", len(r), cap(r), jrowChunkMin+5)
	}
}

// arenaFixture builds three 20-row tables t0, t1, t2 (id = 0..19, k =
// id mod 7 / 5+id mod 5 / id mod 3) and returns the k columns so tests
// can compute expected join multisets by hand.
func arenaFixture(t *testing.T) (*DB, [3][]int) {
	t.Helper()
	db := openClean(t, "sqlite")
	var ks [3][]int
	keyOf := [3]func(int) int{
		func(i int) int { return i % 7 },
		func(i int) int { return 4 + i%5 },
		func(i int) int { return i % 3 },
	}
	for ti := range ks {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE t%d (id INTEGER, k INTEGER)", ti))
		var vals []string
		for i := 0; i < 20; i++ {
			k := keyOf[ti](i)
			ks[ti] = append(ks[ti], k)
			vals = append(vals, fmt.Sprintf("(%d, %d)", i, k))
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t%d (id, k) VALUES %s", ti, strings.Join(vals, ", ")))
	}
	return db, ks
}

// checkMultiset compares a query's rendered rows with an expected
// multiset, order-insensitively, and checks that no two result rows share
// backing storage.
func checkMultiset(t *testing.T, db *DB, sql string, want []string) {
	t.Helper()
	res := mustQuery(t, db, sql)
	got := res.RenderRows()
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", sql, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sorted row %d = %q, want %q", sql, i, got[i], want[i])
		}
	}
	seen := map[*Value]bool{}
	for i, r := range res.Rows {
		if len(r) == 0 {
			continue
		}
		if seen[&r[0]] || cap(r) != len(r) {
			t.Fatalf("%s: result row %d aliases another row (cap %d)", sql, i, cap(r))
		}
		seen[&r[0]] = true
	}
}

// TestJoinArenaDifferential checks join results whose combined rows span
// every arena regime — the first chunk, the doubling, and many chunks at
// the cap — against hand-computed multisets. The 3-relation cross join
// emits 400 two-slot rows at the first step and 8000 three-slot rows
// (24,000 slots) at the second; a row that aliased another would
// overwrite its relation slots and corrupt the id triples.
func TestJoinArenaDifferential(t *testing.T) {
	db, ks := arenaFixture(t)
	const n = 20

	var cross []string
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				cross = append(cross, fmt.Sprintf("%d|%d|%d", i, j, k))
			}
		}
	}
	checkMultiset(t, db, "SELECT t0.id, t1.id, t2.id FROM t0, t1, t2", cross)
	checkMultiset(t, db, "SELECT t0.id, t1.id, t2.id FROM t0 CROSS JOIN t1 CROSS JOIN t2", cross)

	// Outer joins after a cross join: t0.k ranges over 0..6 and t1.k over
	// 4..8, so both sides have unmatched rows, and the RIGHT/FULL
	// NULL-extension covers two relations.
	var left, right, full []string
	for i := 0; i < n; i++ {
		for x := 0; x < n; x++ {
			any := false
			for j := 0; j < n; j++ {
				if ks[0][x] == ks[1][j] {
					any = true
					row := fmt.Sprintf("%d|%d|%d", i, x, j)
					left, right, full = append(left, row), append(right, row), append(full, row)
				}
			}
			if !any {
				row := fmt.Sprintf("%d|%d|NULL", i, x)
				left, full = append(left, row), append(full, row)
			}
		}
	}
	for j := 0; j < n; j++ {
		matched := false
		for x := 0; x < n; x++ {
			matched = matched || ks[0][x] == ks[1][j]
		}
		if !matched {
			row := fmt.Sprintf("NULL|NULL|%d", j)
			right, full = append(right, row), append(full, row)
		}
	}
	if len(full) == len(left) || len(full) == len(right) {
		t.Fatal("fixture must leave unmatched rows on both sides")
	}
	checkMultiset(t, db, "SELECT a.id, b.id, t1.id FROM t2 AS a CROSS JOIN t0 AS b LEFT JOIN t1 ON b.k = t1.k", left)
	checkMultiset(t, db, "SELECT a.id, b.id, t1.id FROM t2 AS a CROSS JOIN t0 AS b RIGHT JOIN t1 ON b.k = t1.k", right)
	checkMultiset(t, db, "SELECT a.id, b.id, t1.id FROM t2 AS a CROSS JOIN t0 AS b FULL JOIN t1 ON b.k = t1.k", full)

	// A correlated subquery whose body is a join reruns that join once
	// per outer row, each time with a fresh arena.
	var corr, exists []string
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if ks[1][j] == ks[0][i] && ks[2][k] == ks[0][i]%3 {
					cnt++
				}
			}
		}
		corr = append(corr, fmt.Sprintf("%d|%d", i, cnt))
		if cnt > 0 {
			exists = append(exists, fmt.Sprint(i))
		}
	}
	checkMultiset(t, db,
		"SELECT t0.id, (SELECT COUNT(*) FROM t1 JOIN t2 ON t2.k = t0.k % 3 WHERE t1.k = t0.k) FROM t0", corr)
	checkMultiset(t, db,
		"SELECT t0.id FROM t0 WHERE EXISTS (SELECT 1 FROM t1 JOIN t2 ON t2.k = t0.k % 3 WHERE t1.k = t0.k)", exists)

	// An outer join inside the correlated body: every outer row sees the
	// unmatched t1 rows NULL-extended.
	var corrLeft []string
	for i := 0; i < n; i++ {
		cnt := 0
		for j := 0; j < n; j++ {
			any := false
			for x := 0; x < n; x++ {
				if ks[0][x] == ks[1][j] && ks[0][x] > ks[0][i] {
					any = true
					cnt++
				}
			}
			if !any {
				cnt++
			}
		}
		corrLeft = append(corrLeft, fmt.Sprintf("%d|%d", i, cnt))
	}
	checkMultiset(t, db,
		"SELECT o.id, (SELECT COUNT(*) FROM t1 LEFT JOIN t0 ON t0.k = t1.k AND t0.k > o.k) FROM t0 AS o", corrLeft)
}

// joinAllocs measures allocations of one inner join of two n-row tables
// whose ON condition matches exactly five pairs, so the candidate-pair
// count grows with n*n while the output stays fixed.
func joinAllocs(t *testing.T, n int, opts ...Option) float64 {
	t.Helper()
	db := Open(dialect.MustGet("sqlite"), append([]Option{WithoutFaults()}, opts...)...)
	mustExec(t, db, "CREATE TABLE a (k INTEGER, v TEXT)")
	mustExec(t, db, "CREATE TABLE b (k INTEGER, w TEXT)")
	for i := 0; i < n; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO a (k, v) VALUES (%d, 'a%d')", i, i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO b (k, w) VALUES (%d, 'b%d')", i+n-5, i))
	}
	const q = "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k AND b.k >= 0"
	if got := len(mustQuery(t, db, q).Rows); got != 5 {
		t.Fatalf("n=%d: join emitted %d rows, want 5", n, got)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJoinAllocsIndependentOfCandidatePairs guards the execute path's
// allocation contract: with no coverage recorder attached, a join's
// allocations depend on what it emits, not on how many candidate pairs it
// evaluates (100 vs 1600 here).
func TestJoinAllocsIndependentOfCandidatePairs(t *testing.T) {
	small, large := joinAllocs(t, 10), joinAllocs(t, 40)
	if large > small {
		t.Fatalf("join allocs grow with candidate pairs: %.0f at 10x10, %.0f at 40x40", small, large)
	}
}

// covWorkload exercises every coverage key the execute path assembles
// from a feature name — join kinds and their match branches, scalar
// functions with and without NULL arguments, casts, aggregates, and set
// operations — plus the fixed-string points around them.
var covWorkload = []string{
	"CREATE TABLE l (a INTEGER, s TEXT)",
	"CREATE TABLE r (a INTEGER, t TEXT)",
	"CREATE INDEX ir ON r (a)",
	"INSERT INTO l (a, s) VALUES (1, 'x'), (2, NULL), (3, 'z'), (NULL, 'x')",
	"INSERT INTO r (a, t) VALUES (2, 'p'), (3, 'q'), (4, NULL)",
	"SELECT * FROM l INNER JOIN r ON l.a = r.a",
	"SELECT * FROM l INNER JOIN r ON l.a + 0 = r.a",
	"SELECT * FROM l LEFT JOIN r ON l.a = r.a",
	"SELECT * FROM l RIGHT JOIN r ON l.a = r.a",
	"SELECT * FROM l FULL JOIN r ON l.a = r.a",
	"SELECT * FROM l CROSS JOIN r",
	"SELECT * FROM l, r",
	"SELECT * FROM l NATURAL JOIN r",
	"SELECT ABS(a), UPPER(s), LENGTH(s), COALESCE(s, 'n') FROM l",
	"SELECT CAST(a AS TEXT), CAST(s AS INTEGER), CAST(a AS BOOLEAN) FROM l",
	"SELECT COUNT(*), COUNT(DISTINCT a), SUM(a), MIN(s), MAX(a), AVG(a) FROM l",
	"SELECT COUNT(a) FROM l WHERE a > 10",
	"SELECT a FROM l UNION SELECT a FROM r",
	"SELECT a FROM l UNION ALL SELECT a FROM r",
	"SELECT a FROM l INTERSECT SELECT a FROM r",
	"SELECT a FROM l EXCEPT SELECT a FROM r ORDER BY a",
	"SELECT DISTINCT a FROM l ORDER BY a",
	"SELECT DISTINCT s FROM l",
	"SELECT l.a, (SELECT COUNT(*) FROM r JOIN l AS m ON m.a = r.a WHERE r.a >= l.a) FROM l",
}

// coverageSets runs covWorkload under a recorder and returns its hit
// points and hit branch sides.
func coverageSets(t *testing.T) (points, branches []string) {
	t.Helper()
	rec := coverage.NewRecorder()
	db := Open(dialect.MustGet("sqlite"), WithoutFaults(), WithCoverage(rec))
	for _, sql := range covWorkload {
		if _, err := db.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return rec.HitPoints(), rec.HitBranches()
}

// TestCoverageKeysWhenRecording pins the exact point and branch-side set
// a coverage-on run of covWorkload records (the set the execute path
// recorded when every key was concatenated unconditionally), so building
// keys only while recording cannot drop or rename one.
func TestCoverageKeysWhenRecording(t *testing.T) {
	points, branches := coverageSets(t)
	check := func(kind string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s set changed:\n got  %q\n want %q", kind, got, want)
		}
	}
	check("point", points, wantCovPoints)
	check("branch", branches, wantCovBranches)
}

// wantCovPoints and wantCovBranches are the sets covWorkload recorded
// when the execute path concatenated every coverage key unconditionally.
var wantCovPoints = []string{
	"eval.aggregate.AVG",
	"eval.aggregate.COUNT",
	"eval.aggregate.MAX",
	"eval.aggregate.MIN",
	"eval.aggregate.SUM",
	"eval.binary.+",
	"eval.binary.=",
	"eval.binary.>",
	"eval.binary.>=",
	"eval.cast.BOOLEAN",
	"eval.cast.INTEGER",
	"eval.cast.TEXT",
	"eval.func.ABS",
	"eval.func.COALESCE",
	"eval.func.LENGTH",
	"eval.func.UPPER",
	"exec.compound",
	"exec.createindex",
	"exec.createtable",
	"exec.distinct",
	"exec.groupby",
	"exec.insert",
	"exec.join.COMMA JOIN",
	"exec.join.CROSS JOIN",
	"exec.join.FULL JOIN",
	"exec.join.INNER JOIN",
	"exec.join.LEFT JOIN",
	"exec.join.NATURAL JOIN",
	"exec.join.RIGHT JOIN",
	"exec.join.probe",
	"exec.orderby",
	"exec.scan.table",
	"exec.select",
	"exec.setop.EXCEPT",
	"exec.setop.INTERSECT",
	"exec.setop.UNION",
	"exec.setop.UNION ALL",
	"filter.eval",
	"parse.ok",
}

var wantCovBranches = []string{
	"agg.distinct.AVG:not-taken",
	"agg.distinct.COUNT:not-taken",
	"agg.distinct.COUNT:taken",
	"agg.distinct.MAX:not-taken",
	"agg.distinct.MIN:not-taken",
	"agg.distinct.SUM:not-taken",
	"agg.empty:not-taken",
	"agg.empty:taken",
	"cmp.null.=:not-taken",
	"cmp.null.=:taken",
	"cmp.null.>:not-taken",
	"cmp.null.>:taken",
	"cmp.null.>=:not-taken",
	"cmp.null.>=:taken",
	"constraint.violation:not-taken",
	"distinct.dup:not-taken",
	"distinct.dup:taken",
	"filter.keep:not-taken",
	"filter.keep:taken",
	"func.null.ABS:not-taken",
	"func.null.ABS:taken",
	"func.null.COALESCE:not-taken",
	"func.null.COALESCE:taken",
	"func.null.LENGTH:not-taken",
	"func.null.LENGTH:taken",
	"func.null.UPPER:not-taken",
	"func.null.UPPER:taken",
	"insert.pending:not-taken",
	"join.match.FULL JOIN:not-taken",
	"join.match.FULL JOIN:taken",
	"join.match.INNER JOIN:not-taken",
	"join.match.INNER JOIN:taken",
	"join.match.LEFT JOIN:not-taken",
	"join.match.LEFT JOIN:taken",
	"join.match.NATURAL JOIN:taken",
	"join.match.RIGHT JOIN:not-taken",
	"join.match.RIGHT JOIN:taken",
	"where.present:not-taken",
	"where.present:taken",
}
