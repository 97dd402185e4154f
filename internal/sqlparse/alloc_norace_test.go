//go:build !race

// The parser takes its state from a sync.Pool, which drops items at
// random under the race detector, so these allocation counts hold only
// without it.

package sqlparse_test

import (
	"fmt"
	"reflect"
	"testing"

	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// TestParseAllocsBounded guards the parser's allocation contract: a
// statement's nodes come from one slab per node type (column references
// and literals share one, and each SELECT core holds its first item,
// FROM item and table), and its lists from one array per element type.
// So a parse allocates no more often than its tree has kinds of node and
// list, however many nodes it has, and the corpus averages at most six
// allocations per statement.
func TestParseAllocsBounded(t *testing.T) {
	total, most := 0.0, 0.0
	corpus := selectCorpus(t)
	for _, sel := range corpus {
		sql := sel.SQL()
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = sqlparse.Parse(sql) })
		if kinds := treeKinds(st); allocs > float64(kinds) {
			t.Fatalf("parsing allocates %.0f times for %d kinds of node and list:\n  %s", allocs, kinds, sql)
		}
		total += allocs
		most = max(most, allocs)
	}
	mean := total / float64(len(corpus))
	t.Logf("%.2f allocations per statement, at most %.0f", mean, most)
	if mean > 6 {
		t.Fatalf("parsing allocates %.2f times per corpus statement, want at most 6", mean)
	}
}

// treeKinds counts the node types and the element types of non-empty
// lists in the tree of st.
func treeKinds(st sqlast.Stmt) int {
	kinds := map[reflect.Type]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface, reflect.Pointer:
			if !v.IsNil() {
				if v.Kind() == reflect.Pointer {
					kinds[v.Type()] = true
				}
				walk(v.Elem())
			}
		case reflect.Slice:
			if v.Len() > 0 {
				kinds[v.Type()] = true
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(st))
	return len(kinds)
}

// TestCacheAllocatesNothingPerEntry: once a cache is full, a miss costs
// the parse's allocations and nothing more, however many entries it
// evicts and replaces.
func TestCacheAllocatesNothingPerEntry(t *testing.T) {
	c := sqlparse.NewCache(16)
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT c0 FROM t0 WHERE c0 > %d", i)
		if _, err := c.Parse(texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	miss := testing.AllocsPerRun(100, func() {
		i++
		_, _ = c.Parse(texts[i%len(texts)]) // 16 < 64: every lookup misses
	})
	parse := testing.AllocsPerRun(100, func() { _, _ = sqlparse.Parse(texts[0]) })
	if _, misses := c.Stats(); misses < 100 {
		t.Fatalf("only %d misses", misses)
	}
	if miss != parse {
		t.Fatalf("a cache miss allocates %.1f times, a parse %.1f", miss, parse)
	}
}
