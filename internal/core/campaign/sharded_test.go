package campaign

import (
	"bytes"
	"encoding/json"
	"sqlancerpp/internal/feature"
	"testing"

	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/dialect"
)

// RunSharded runs a campaign as parallel shards at the given worker
// count, without a checkpoint (see RunShardedOpts).
func RunSharded(cfg Config, workers int) (*Report, error) {
	return RunShardedOpts(cfg, ShardedOptions{Workers: workers})
}

func shardedCfg(t *testing.T, cases int, seed int64) Config {
	t.Helper()
	return Config{
		Dialect:      dialect.MustGet("sqlite"),
		Mode:         Adaptive,
		TestCases:    cases,
		Seed:         seed,
		KeepAllCases: true,
	}
}

// marshalReport canonicalizes a report for byte-wise comparison.
func marshalReport(t *testing.T, rep *Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunShardedDeterministicAcrossWorkers is the tentpole guarantee:
// the same seed yields a byte-identical report for every worker count.
// The workers == 1 run executes the shards serially, so this is also the
// serial-vs-parallel equivalence check; go test -race guards the
// parallel run's memory safety.
func TestRunShardedDeterministicAcrossWorkers(t *testing.T) {
	serial, err := RunSharded(shardedCfg(t, 800, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := RunSharded(shardedCfg(t, 800, 7), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, serial), marshalReport(t, par)) {
			t.Fatalf("workers=%d report differs from the serial run", workers)
		}
	}
}

// TestRunShardedBugSetMatchesSerial spells the acceptance criterion out
// on the bug set and feedback state specifically: identical bug IDs,
// ground truth, and learned state between the serial run and workers=4.
func TestRunShardedBugSetMatchesSerial(t *testing.T) {
	serial, err := RunSharded(shardedCfg(t, 600, 42), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSharded(shardedCfg(t, 600, 42), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Bugs) == 0 {
		t.Fatal("campaign found no bugs; the comparison is vacuous")
	}
	if len(serial.Bugs) != len(par.Bugs) {
		t.Fatalf("bug counts differ: serial %d vs parallel %d", len(serial.Bugs), len(par.Bugs))
	}
	for i := range serial.Bugs {
		a, b := serial.Bugs[i], par.Bugs[i]
		if a.ID != b.ID || a.Class != b.Class || a.Detail != b.Detail {
			t.Fatalf("bug %d differs: %+v vs %+v", i, a, b)
		}
	}
	if !equalStrings(serial.GroundTruthFaults, par.GroundTruthFaults) {
		t.Fatalf("ground-truth fault sets differ: %v vs %v",
			serial.GroundTruthFaults, par.GroundTruthFaults)
	}
	if !bytes.Equal(serial.FeedbackState, par.FeedbackState) {
		t.Fatal("merged feedback states differ")
	}
	if serial.UniqueGroundTruth != len(serial.GroundTruthFaults) {
		t.Fatalf("UniqueGroundTruth %d != len(GroundTruthFaults) %d",
			serial.UniqueGroundTruth, len(serial.GroundTruthFaults))
	}
}

// TestRunShardedSeedSensitivity guards against a degenerate splitmix64
// wiring (all shards running the same stream): different seeds must
// change the outcome.
func TestRunShardedSeedSensitivity(t *testing.T) {
	a, err := RunSharded(shardedCfg(t, 400, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(shardedCfg(t, 400, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshalReport(t, a), marshalReport(t, b)) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestRunShardedAccounting checks the merged counters add up.
func TestRunShardedAccounting(t *testing.T) {
	rep, err := RunSharded(shardedCfg(t, 500, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestCases != 500 {
		t.Fatalf("TestCases = %d, want 500", rep.TestCases)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("false positives: %d", rep.FalsePositives)
	}
	if rep.Prioritized != len(rep.Bugs) {
		t.Fatalf("Prioritized = %d but %d bugs kept", rep.Prioritized, len(rep.Bugs))
	}
	if rep.Detected != len(rep.AllCases) {
		t.Fatalf("Detected = %d but %d cases kept", rep.Detected, len(rep.AllCases))
	}
	byClass := 0
	for _, n := range rep.DetectedByClass {
		byClass += n
	}
	if byClass != rep.Detected {
		t.Fatalf("DetectedByClass sums to %d, want %d", byClass, rep.Detected)
	}
	// Bug IDs must be strictly increasing positions among detected cases.
	last := 0
	for _, b := range rep.Bugs {
		if b.ID <= last || b.ID > rep.Detected {
			t.Fatalf("bug ID %d out of order (prev %d, detected %d)", b.ID, last, rep.Detected)
		}
		last = b.ID
	}
}

func TestShardCount(t *testing.T) {
	base := Config{Dialect: dialect.MustGet("sqlite")}
	for _, tc := range []struct {
		cases, casesPerDB, want int
	}{
		{cases: 800, want: 4}, // default CasesPerDB = 200
		{cases: 801, want: 5}, // remainder gets its own shard
		{cases: 1, want: 1},   // tiny budget
		{cases: 0, want: 5},   // defaults: 1000 cases / 200 per DB
		{cases: 100, casesPerDB: 30, want: 4},
	} {
		cfg := base
		cfg.TestCases = tc.cases
		cfg.CasesPerDB = tc.casesPerDB
		if got := ShardCount(cfg); got != tc.want {
			t.Errorf("ShardCount(cases=%d, perDB=%d) = %d, want %d",
				tc.cases, tc.casesPerDB, got, tc.want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunShardedWarmStartCountsPriorOnce is the regression test for the
// prior-multiplication defect: every shard is seeded with the same
// warm-start FeedbackState, so the merged state must contain the prior's
// evidence exactly once, not once per shard.
func TestRunShardedWarmStartCountsPriorOnce(t *testing.T) {
	// Build a prior on a feature no campaign can observe: the generator
	// never builds an index this wide.
	synthetic := feature.IndexWidth(feature.MaxIndexWidth)
	prior := feedback.New()
	for i := 0; i < 12; i++ {
		prior.RecordQuery([]string{synthetic}, i%2 == 0)
	}
	state, err := prior.Save()
	if err != nil {
		t.Fatal(err)
	}

	cfg := shardedCfg(t, 600, 9) // 3 shards
	cfg.FeedbackState = state
	rep, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}

	merged := feedback.New()
	if err := merged.Load(rep.FeedbackState); err != nil {
		t.Fatal(err)
	}
	n, y := merged.Stats(synthetic)
	if n != 12 || y != 6 {
		t.Fatalf("merged prior stats N=%d y=%d, want 12/6 (counted once, not per shard)", n, y)
	}
}
