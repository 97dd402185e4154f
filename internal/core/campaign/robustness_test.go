package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// panicDialect builds the synthetic "panicdb" dialect: SQLite's grammar
// with the two panic-class fault sites injected (and nothing else), so a
// seeded campaign proves Go panics are contained, attributed to ground
// truth, and reduced. The dialect is constructed locally — it is never
// registered globally, keeping the paper-catalogue tests untouched.
func panicDialect(t *testing.T) *dialect.Dialect {
	t.Helper()
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "panicdb"
	d.Faults = faults.NewSet(faults.ForDialect("panicdb"))
	return d
}

func panicCfg(t *testing.T, cases int, seed int64) Config {
	t.Helper()
	return Config{
		Dialect:    panicDialect(t),
		Mode:       Adaptive,
		TestCases:  cases,
		Seed:       seed,
		ReduceBugs: true,
	}
}

// TestHarnessCrashContainmentDeterministic is the tentpole acceptance
// test: a seeded campaign over the panic-fault dialect survives to
// completion with every panic converted into an attributed ClassHarness
// report, no false positives, every prioritized harness crash reduced —
// and the report is byte-identical at 1, 3, and 8 workers.
func TestHarnessCrashContainmentDeterministic(t *testing.T) {
	ref, err := RunSharded(panicCfg(t, 800, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.HarnessCrashes == 0 {
		t.Fatal("no harness crashes: the panic fault sites never fired and the test is vacuous")
	}
	if ref.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d, want 0: a contained panic lost its ground-truth attribution", ref.FalsePositives)
	}
	if ref.DetectedByClass[ClassHarness] != ref.HarnessCrashes {
		t.Fatalf("DetectedByClass[harness] = %d but HarnessCrashes = %d",
			ref.DetectedByClass[ClassHarness], ref.HarnessCrashes)
	}
	harnessBugs := 0
	for _, b := range ref.Bugs {
		if b.Class != ClassHarness {
			continue
		}
		harnessBugs++
		if len(b.Triggered) == 0 {
			t.Fatalf("harness bug %d has no ground-truth fault", b.ID)
		}
		if b.Detail == "" || len(b.Queries) == 0 {
			t.Fatalf("harness bug %d lacks a detail or statement trace: %+v", b.ID, b)
		}
		if len(b.Reduced) == 0 {
			t.Fatalf("harness bug %d was not reduced", b.ID)
		}
		if len(b.Reduced) > len(b.Setup)+len(b.Queries) {
			t.Fatalf("harness bug %d grew under reduction: %d stmts from %d",
				b.ID, len(b.Reduced), len(b.Setup)+len(b.Queries))
		}
	}
	if harnessBugs == 0 {
		t.Fatal("no prioritized harness bugs in the report")
	}
	for _, workers := range []int{3, 8} {
		par, err := RunSharded(panicCfg(t, 800, 7), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, par)) {
			t.Fatalf("workers=%d report differs from the serial run", workers)
		}
	}
}

// TestHarnessCrashSerialRunner checks the containment boundary in the
// plain serial Runner too (feedback flowing across epochs), not just the
// sharded path.
func TestHarnessCrashSerialRunner(t *testing.T) {
	runner, err := New(panicCfg(t, 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.HarnessCrashes == 0 {
		t.Fatal("serial runner recorded no harness crashes")
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d, want 0", rep.FalsePositives)
	}
}

// TestBudgetDeterministicAcrossWorkers: with a rows-touched budget the
// skipped statements are identical at every worker count (the budget is
// deterministic, not wall-clock), budget-exceeded cases are never bugs,
// and the tally is non-zero so the budget actually engaged.
func TestBudgetDeterministicAcrossWorkers(t *testing.T) {
	cfg := shardedCfg(t, 800, 7)
	cfg.RowBudget = 50
	ref, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref.BudgetExceeded == 0 {
		t.Fatal("BudgetExceeded = 0: the budget never engaged and the test is vacuous")
	}
	if ref.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d, want 0", ref.FalsePositives)
	}
	for _, b := range ref.Bugs {
		if b.Detail == "execution budget exceeded (rows-touched limit)" {
			t.Fatalf("budget-exceeded statement reported as bug %d", b.ID)
		}
	}
	for _, workers := range []int{3, 8} {
		cfg := shardedCfg(t, 800, 7)
		cfg.RowBudget = 50
		par, err := RunSharded(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, par)) {
			t.Fatalf("workers=%d report differs from the serial run", workers)
		}
		if par.BudgetExceeded != ref.BudgetExceeded {
			t.Fatalf("workers=%d BudgetExceeded = %d, want %d",
				workers, par.BudgetExceeded, ref.BudgetExceeded)
		}
	}
}

// TestBudgetChangesOutcome guards against a budget that is wired up but
// never enforced: a tight budget must change the campaign outcome
// relative to an unlimited run.
func TestBudgetChangesOutcome(t *testing.T) {
	free, err := RunSharded(shardedCfg(t, 400, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shardedCfg(t, 400, 5)
	cfg.RowBudget = 20
	tight, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if free.BudgetExceeded != 0 {
		t.Fatalf("unlimited run tallied BudgetExceeded = %d", free.BudgetExceeded)
	}
	if tight.BudgetExceeded == 0 {
		t.Fatal("tight budget never engaged")
	}
	if bytes.Equal(marshalReport(t, free), marshalReport(t, tight)) {
		t.Fatal("budget had no observable effect on the report")
	}
}

// TestCheckpointResume interrupts a checkpointed campaign mid-run and
// resumes it: the final report must be byte-identical to an
// uninterrupted run, and the checkpoint file must be cleaned up once the
// campaign completes.
func TestCheckpointResume(t *testing.T) {
	cfg := shardedCfg(t, 800, 11) // 4 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupt := make(chan struct{})
	go func() {
		// Close the interrupt as soon as the first shard has been
		// checkpointed; with one worker the remaining shards then never
		// start.
		for {
			if _, err := os.Stat(path); err == nil {
				close(interrupt)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint left behind after the interrupt: %v", err)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resumed report differs from the uninterrupted run")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint not removed after completion: %v", err)
	}
}

// TestCheckpointRoundTripsPlanPairState: an interrupted-and-resumed
// campaign must carry the plan-pair tracker state losslessly through
// the checkpoint — same serialized snapshot, same pair set, and the
// same novel/repeated accounting as the uninterrupted run.
func TestCheckpointRoundTripsPlanPairState(t *testing.T) {
	cfg := shardedCfg(t, 800, 17) // 4 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PlanPairState == nil || ref.PlanPairsNovel == 0 {
		t.Fatalf("reference run tracked no pairs (novel=%d)", ref.PlanPairsNovel)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupt := make(chan struct{})
	go func() {
		for {
			if _, err := os.Stat(path); err == nil {
				close(interrupt)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	resumed, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.PlanPairState, resumed.PlanPairState) {
		t.Fatal("resumed plan-pair state differs from the uninterrupted run")
	}
	if resumed.PlanPairsNovel != ref.PlanPairsNovel ||
		resumed.PlanPairsRepeated != ref.PlanPairsRepeated {
		t.Fatalf("pair counters drifted across resume: novel %d/%d repeated %d/%d",
			resumed.PlanPairsNovel, ref.PlanPairsNovel,
			resumed.PlanPairsRepeated, ref.PlanPairsRepeated)
	}
	// The snapshot must load back into a tracker with the same pair set.
	tr := feedback.NewPairTracker()
	if err := tr.LoadState(resumed.PlanPairState); err != nil {
		t.Fatalf("resumed state does not load: %v", err)
	}
	if tr.Pairs() == 0 {
		t.Fatal("resumed state loads empty")
	}
	reser, err := tr.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reser, resumed.PlanPairState) {
		t.Fatal("pair state does not round-trip byte-identically through Load/Save")
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint recorded under one
// configuration must refuse to resume under another.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	recorded := shardedCfg(t, 400, 11).withDefaults()
	if err := saveCheckpointFile(path, &checkpointFile{
		Fingerprint: fingerprint(recorded),
		TotalShards: 2,
		Seeds:       make([]int64, 2),
		Shards:      make([]*Report, 2),
	}, nil); err != nil {
		t.Fatal(err)
	}

	other := shardedCfg(t, 400, 12) // different seed
	if _, err := RunShardedOpts(other, ShardedOptions{
		Workers: 1, CheckpointPath: path, Resume: true,
	}); err == nil {
		t.Fatal("resume under a different configuration succeeded")
	}
}

// TestCheckpointResumeMissingFile: -resume with no checkpoint on disk is
// a fresh start, not an error.
func TestCheckpointResumeMissingFile(t *testing.T) {
	cfg := shardedCfg(t, 200, 13)
	path := filepath.Join(t.TempDir(), "absent.ckpt")
	rep, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, rep)) {
		t.Fatal("resume-from-nothing differs from a plain run")
	}
}
