package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sqlancerpp/internal/engine"
)

// refRowCounts is the map-backed row multiset the oracles used before
// rowSet: index maps a row's text to its slot in counts. It is kept as
// the reference rowSet's diff must match.
type refRowCounts struct {
	index  map[string]int
	counts []int
}

func refMultiset(results ...*engine.Result) *refRowCounts {
	m := &refRowCounts{index: map[string]int{}}
	for _, res := range results {
		for i := range res.Rows {
			row := string(res.AppendRow(nil, i))
			if j, ok := m.index[row]; ok {
				m.counts[j]++
				continue
			}
			m.index[row] = len(m.counts)
			m.counts = append(m.counts, 1)
		}
	}
	return m
}

func (m *refRowCounts) count(row string) int {
	if j, ok := m.index[row]; ok {
		return m.counts[j]
	}
	return 0
}

// refDiffMultisets is the reference diff: the first row, in sorted
// order of the distinct rows of either side, whose counts differ.
func refDiffMultisets(a, b *refRowCounts) string {
	keys := make([]string, 0, len(a.index)+len(b.index))
	for k := range a.index {
		keys = append(keys, k)
	}
	for k := range b.index {
		if _, ok := a.index[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if na, nb := a.count(k), b.count(k); na != nb {
			return fmt.Sprintf("row %q: %d vs %d", k, na, nb)
		}
	}
	return ""
}

// randResult is a result of up to 12 rows of width w drawn from a small
// value pool, so rows repeat within and across results. Text values
// include ones whose rendering is a prefix of another's, and quotes and
// separators, so key order is byte order and not row order.
func randResult(rng *rand.Rand, w int) *engine.Result {
	pool := []engine.Value{
		engine.Null(), engine.Int(0), engine.Int(-1), engine.Int(10), engine.Int(2),
		engine.Text(""), engine.Text("a"), engine.Text("ab"), engine.Text("a|b"),
		engine.Text("'"), engine.Text("\x00"), engine.Bool(true), engine.Bool(false),
	}
	res := &engine.Result{}
	for range rng.Intn(13) {
		row := make([]engine.Value, w)
		for j := range row {
			row[j] = pool[rng.Intn(len(pool))]
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// TestRowSetDiffMatchesReference: on random multisets, with duplicates,
// empty sides and one side split over several results as TLP's union
// is, diffMultisets returns exactly the reference's text. Sets are
// reused from the pool across cases, and a set diffed once (sorted) is
// diffed again against a refilled partner, as PlanDiff does.
func TestRowSetDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mismatches := 0
	for c := 0; c < 5000; c++ {
		w := 1 + rng.Intn(3)
		base := randResult(rng, w)
		var parts []*engine.Result
		for range 1 + rng.Intn(3) {
			parts = append(parts, randResult(rng, w))
		}
		if c%3 == 0 {
			// Equal multisets in another order.
			perm := &engine.Result{Rows: append([][]engine.Value(nil), base.Rows...)}
			rng.Shuffle(len(perm.Rows), func(i, j int) { perm.Rows[i], perm.Rows[j] = perm.Rows[j], perm.Rows[i] })
			parts = []*engine.Result{perm}
		}
		baseSet, union := getRowSet(), getRowSet()
		baseSet.add(base)
		for _, p := range parts {
			union.add(p)
		}
		want := refDiffMultisets(refMultiset(base), refMultiset(parts...))
		if got := diffMultisets(baseSet, union); got != want {
			t.Fatalf("case %d: diff %q, reference %q", c, got, want)
		}
		if want != "" {
			mismatches++
		}
		// A sorted set against a refilled partner.
		alt := randResult(rng, w)
		union.reset()
		union.add(alt)
		want = refDiffMultisets(refMultiset(base), refMultiset(alt))
		if got := diffMultisets(baseSet, union); got != want {
			t.Fatalf("case %d, refilled: diff %q, reference %q", c, got, want)
		}
		putRowSet(baseSet)
		putRowSet(union)
	}
	if mismatches < 1000 || mismatches > 4000 {
		t.Fatalf("%d of 5000 cases differ: the draw should mix equal and unequal multisets", mismatches)
	}
}
