package sqlparse_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// seedCfg is the campaign the seeding tests run: every oracle, faults
// armed, reduction on.
func seedCfg(name string, cases int, seed int64) campaign.Config {
	return campaign.Config{
		Dialect:    dialect.MustGet(name),
		Mode:       campaign.Adaptive,
		TestCases:  cases,
		Seed:       seed,
		ReduceBugs: true,
	}
}

// TestSeededTreesMatchTheirParse is the seeding contract's property
// test. The oracles and the campaign runner seed their statement caches
// with the trees they render (Cache.Seed), so the engine runs those
// trees instead of parsing the text. That is sound only if every seeded
// tree is what Parse builds from its text: the check armed here parses
// each seeded text, requires no error, and compares the trees with nil
// and empty slices equal (sameTree). It runs a serial and a 2-worker
// campaign on every dialect.
func TestSeededTreesMatchTheirParse(t *testing.T) {
	var mu sync.Mutex
	seeded := 0
	var bad []string
	sqlparse.SetSeedCheck(func(src string, st sqlast.Stmt) {
		got, err := sqlparse.Parse(src)
		mu.Lock()
		defer mu.Unlock()
		seeded++
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("seeded text %q does not parse: %v", src, err))
		case !sameTree(reflect.ValueOf(got), reflect.ValueOf(st)):
			bad = append(bad, fmt.Sprintf("seeded tree of %q differs from its parse", src))
		}
	})
	defer sqlparse.SetSeedCheck(nil)

	for _, name := range dialect.Names() {
		before := seeded
		runner, err := campaign.New(seedCfg(name, 1000, 7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Run(); err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if _, err := campaign.RunShardedOpts(seedCfg(name, 1000, 8), campaign.ShardedOptions{Workers: 2}); err != nil {
			t.Fatalf("%s at 2 workers: %v", name, err)
		}
		// Setup, smoke and oracle statements alike are seeded: at least
		// one per case.
		if n := seeded - before; n < 2000 {
			t.Errorf("%s: only %d texts seeded in 2,000 cases", name, n)
		}
		if len(bad) > 0 {
			t.Fatalf("%s: %d of %d seeded trees break the contract, first: %s", name, len(bad), seeded-before, bad[0])
		}
	}
	t.Logf("%d seeded trees equal their parse", seeded)
}

// TestSeededTreesOutliveLaterCases: nothing modifies a tree once it is
// seeded, neither the generator, an oracle, the bug recorder, the
// engine nor the reducer. The trees seeded during a campaign's first
// cases must render as they did and equal a fresh parse of their text
// (a deep copy) after 2,000 later cases and the reduce pass.
func TestSeededTreesOutliveLaterCases(t *testing.T) {
	type held struct {
		sql  string
		tree sqlast.Stmt
		copy sqlast.Stmt
	}
	var kept []held
	seeded := 0
	sqlparse.SetSeedCheck(func(src string, st sqlast.Stmt) {
		seeded++
		if len(kept) < 500 {
			kept = append(kept, held{src, st, mustParse(t, src)})
		}
	})
	defer sqlparse.SetSeedCheck(nil)

	runner, err := campaign.New(seedCfg("cratedb", 2100, 3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("campaign found no bugs; pick a seed that exercises the reducer")
	}
	if seeded < 4*len(kept) {
		t.Fatalf("only %d texts seeded after the %d kept", seeded-len(kept), len(kept))
	}
	for _, h := range kept {
		if got := h.tree.SQL(); got != h.sql {
			t.Fatalf("seeded tree of %q renders %q after later cases", h.sql, got)
		}
		if !sameTree(reflect.ValueOf(h.tree), reflect.ValueOf(h.copy)) {
			t.Fatalf("seeded tree of %q changed after later cases", h.sql)
		}
	}
}
