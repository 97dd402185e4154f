//go:build !race

// The parser takes its state from a sync.Pool, which drops items at
// random under the race detector, so these allocation counts hold only
// without it.

package sqlparse_test

import (
	"fmt"
	"testing"

	"sqlancerpp/internal/sqlparse"
)

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
