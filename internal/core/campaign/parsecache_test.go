package campaign

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"sqlancerpp/internal/sqlparse"
)

// TestCampaignParsesThroughRunnerCache: neither the serial runner nor a
// sharded campaign with reduction and a checkpoint touches the
// process-wide statement cache, so no campaign path silently falls back
// to it. Not parallel: any concurrent engine opened without
// WithParseCache would move the shared counters.
func TestCampaignParsesThroughRunnerCache(t *testing.T) {
	hits0, misses0 := sqlparse.Shared().Stats()

	runner, err := New(bugHuntCfg(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	if h, m := runner.parse.Stats(); h+m == 0 {
		t.Fatal("serial run parsed nothing through the runner's cache")
	}
	if hits, misses := sqlparse.Shared().Stats(); hits != hits0 || misses != misses0 {
		t.Fatalf("serial run used the shared cache: hits %d -> %d, misses %d -> %d", hits0, hits, misses0, misses)
	}

	rep, err := RunShardedOpts(bugHuntCfg(600, 5), ShardedOptions{
		Workers:        2,
		CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("sharded run found no bugs; pick a seed that exercises reduction")
	}
	if hits, misses := sqlparse.Shared().Stats(); hits != hits0 || misses != misses0 {
		t.Fatalf("sharded run used the shared cache: hits %d -> %d, misses %d -> %d", hits0, hits, misses0, misses)
	}
}

// TestParseCacheSizeKeepsReuse pins parseCacheSize against bughunt's
// configuration (cratedb, every oracle, reduction on): the runner's
// cache and the reduce pass's stay within their bound, and together hit
// within 2 points of unbounded caches on the same run. A change that
// moves the reducer's replays or the oracles' re-executions out of the
// caches' reach fails here instead of quietly losing the hits.
func TestParseCacheSizeKeepsReuse(t *testing.T) {
	run := func(capacity int) (hitPct float64, lengths [2]int, report []byte) {
		t.Helper()
		runner, err := New(bugHuntCfg(1500, 3))
		if err != nil {
			t.Fatal(err)
		}
		pass := sqlparse.NewCache(parseCacheSize)
		if capacity > 0 {
			runner.parse = sqlparse.NewCache(capacity)
			pass = sqlparse.NewCache(capacity)
		}
		// Run, with the pass's cache in reach.
		rep := runner.run()
		if err := reduceBugs(runner.cfg, rep.Bugs, 1, pass); err != nil {
			t.Fatal(err)
		}
		if len(rep.Bugs) == 0 {
			t.Fatal("campaign found no bugs; pick a seed that exercises reduction")
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := runner.parse.Stats()
		passHits, passMisses := pass.Stats()
		hits, misses = hits+passHits, misses+passMisses
		return 100 * float64(hits) / float64(hits+misses), [2]int{runner.parse.Len(), pass.Len()}, data
	}
	bounded, lengths, rep := run(0)
	unbounded, distinct, unboundedRep := run(1 << 30)
	t.Logf("hit rate %.1f%% at %d entries, %.1f%% unbounded (%d distinct statements in the runner, %d in the pass)",
		bounded, parseCacheSize, unbounded, distinct[0], distinct[1])
	for i, name := range []string{"runner", "reduce pass"} {
		if lengths[i] > parseCacheSize {
			t.Errorf("%s cache holds %d statements, bound is %d", name, lengths[i], parseCacheSize)
		}
	}
	if distinct[0] <= parseCacheSize {
		t.Errorf("run parsed only %d distinct statements; too small to exercise eviction at %d", distinct[0], parseCacheSize)
	}
	if unbounded-bounded > 2 {
		t.Errorf("hit rate %.1f%% at %d entries, more than 2 points below %.1f%% unbounded",
			bounded, parseCacheSize, unbounded)
	}
	if string(rep) != string(unboundedRep) {
		t.Error("report depends on the statement cache's size")
	}
}
