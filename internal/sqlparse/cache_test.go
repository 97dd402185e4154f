package sqlparse

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitReturnsSharedAST(t *testing.T) {
	c := NewCache(8)
	const q = "SELECT c0 FROM t0 WHERE c0 > 1"
	a, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("second Parse of identical text returned a different AST")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if a.SQL() != b.SQL() {
		t.Fatalf("cached AST renders %q, want %q", b.SQL(), a.SQL())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	q := func(i int) string { return fmt.Sprintf("SELECT %d", i) }
	for i := 0; i < 3; i++ {
		if _, err := c.Parse(q(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// q(0) was evicted; parsing it again must be a miss.
	if _, err := c.Parse(q(0)); err != nil {
		t.Fatal(err)
	}
	_, misses := c.Stats()
	if misses != 4 {
		t.Fatalf("misses = %d, want 4 (eviction forces a re-parse)", misses)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(8)
	for i := 0; i < 2; i++ {
		if _, err := c.Parse("SELEKT nonsense"); err == nil {
			t.Fatal("expected a syntax error")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after two failed parses, want 0", c.Len())
	}
}

// TestCacheConcurrentAccess parses on 8 goroutines at once, half of
// them seeding each text first.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT %d", i%40)
				if g%2 == 0 {
					seed, err := Parse(q)
					if err != nil {
						t.Error(err)
						return
					}
					c.Seed(q, seed)
				}
				st, err := c.Parse(q)
				if err != nil {
					t.Error(err)
					return
				}
				if st.SQL() != q {
					t.Errorf("got %q, want %q", st.SQL(), q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

func TestNilCacheFallsThrough(t *testing.T) {
	var c *Cache
	if _, err := c.Parse("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitRefreshesRecency(t *testing.T) {
	c := NewCache(2)
	for _, q := range []string{"SELECT 0", "SELECT 1", "SELECT 0", "SELECT 2", "SELECT 0"} {
		if _, err := c.Parse(q); err != nil {
			t.Fatal(err)
		}
	}
	// SELECT 0 was hit before SELECT 2 arrived, so SELECT 1 was evicted.
	if hits, misses := c.Stats(); hits != 2 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (2, 3)", hits, misses)
	}
	if _, err := c.Parse("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 4 {
		t.Fatalf("misses = %d, want 4: SELECT 1 should have been evicted", misses)
	}
}

// TestCacheSeed: a seed fills the slot a miss would have filled without
// counting a hit or a miss, a later Parse returns the seeded tree as a
// hit, and a text already cached keeps its entry and its recency.
func TestCacheSeed(t *testing.T) {
	c := NewCache(2)
	seeded, err := Parse("SELECT 0")
	if err != nil {
		t.Fatal(err)
	}
	c.Seed("SELECT 0", seeded)
	if hits, misses := c.Stats(); hits != 0 || misses != 0 || c.Len() != 1 {
		t.Fatalf("after a seed: %d hits, %d misses, %d entries; want 0, 0, 1", hits, misses, c.Len())
	}
	if st, err := c.Parse("SELECT 0"); err != nil || st != seeded {
		t.Fatalf("Parse after Seed returned %v, %v; want the seeded tree", st, err)
	}
	parsed, err := c.Parse("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	other, err := Parse("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	// SELECT 1 is cached and most recent: the seed changes nothing, so
	// the next insert evicts SELECT 0.
	c.Seed("SELECT 1", other)
	if st, _ := c.Parse("SELECT 1"); st != parsed {
		t.Fatal("Seed replaced an existing entry")
	}
	two, err := Parse("SELECT 2")
	if err != nil {
		t.Fatal(err)
	}
	c.Seed("SELECT 2", two)
	if _, err := c.Parse("SELECT 0"); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (2, 2): SELECT 0 should have been evicted", hits, misses)
	}

	var nilCache *Cache
	nilCache.Seed("SELECT 0", seeded) // a nil cache caches nothing
}
