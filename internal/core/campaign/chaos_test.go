package campaign

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlancerpp/internal/chaos"
)

func mustChaos(t *testing.T, spec string, seed int64) *chaos.Injector {
	t.Helper()
	in, err := chaos.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// stripChaosCounters zeroes the infrastructure-fault counters on a copy
// of a report, leaving every campaign *finding* intact — the comparison
// that proves chaos only exercised the harness, never the results.
func stripChaosCounters(rep *Report) *Report {
	c := *rep
	c.ShardRetries = 0
	c.CheckpointWriteFailures = 0
	return &c
}

// TestChaosAcceptanceCampaign is the chaos acceptance scenario: with an
// injected failed append, a torn append, a failed fsync, and a
// twice-failing shard, the campaign completes (not aborts), the retries
// are counted, nothing is quarantined (the shard recovered on its third
// attempt), no finding is lost or invented (FalsePositives == 0, report
// findings identical to the chaos-free run), and the whole scenario is
// byte-deterministic at workers 1, 3, and 8.
func TestChaosAcceptanceCampaign(t *testing.T) {
	ref, err := RunSharded(shardedCfg(t, 800, 7), 1) // chaos-free baseline, 4 shards
	if err != nil {
		t.Fatal(err)
	}
	refJSON := marshalReport(t, ref)

	for _, workers := range []int{1, 3, 8} {
		cfg := shardedCfg(t, 800, 7)
		cfg.Chaos = mustChaos(t, "ckpt-write=2;ckpt-torn=3;ckpt-sync=3;shard-error=1x2", cfg.Seed)
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ckpt")
		rep, err := RunShardedOpts(cfg, ShardedOptions{
			Workers: workers, CheckpointPath: path, RetryBackoff: -1,
		})
		if err != nil {
			t.Fatalf("workers=%d: chaos campaign aborted: %v", workers, err)
		}
		if rep.ShardRetries != 2 {
			t.Fatalf("workers=%d: ShardRetries = %d, want 2 (shard 1 failed twice, then recovered)",
				workers, rep.ShardRetries)
		}
		if rep.ShardsQuarantined != 0 || len(rep.QuarantinedShards) != 0 {
			t.Fatalf("workers=%d: quarantined %d shards; the failing shard should have recovered",
				workers, rep.ShardsQuarantined)
		}
		if rep.CheckpointWriteFailures != 2 {
			t.Fatalf("workers=%d: CheckpointWriteFailures = %d, want 2 (ckpt-write=2 and ckpt-sync=3 fire once each)",
				workers, rep.CheckpointWriteFailures)
		}
		if rep.FalsePositives != 0 {
			t.Fatalf("workers=%d: FalsePositives = %d: an infrastructure fault leaked into the findings",
				workers, rep.FalsePositives)
		}
		if !bytes.Equal(refJSON, marshalReport(t, stripChaosCounters(rep))) {
			t.Fatalf("workers=%d: chaos campaign findings differ from the chaos-free run", workers)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("workers=%d: checkpoint directory not empty after completion (%d entries, %v)",
				workers, len(entries), err)
		}
	}
}

// TestShardQuarantineDeterministic: a shard that fails every attempt is
// quarantined — the campaign completes degraded, records the shard's
// seed range for offline replay, and the degraded report is still
// byte-identical at every worker count.
func TestShardQuarantineDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		cfg := shardedCfg(t, 800, 7) // 4 shards
		cfg.Chaos = mustChaos(t, "shard-panic=1x99", cfg.Seed)
		rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers, RetryBackoff: -1})
		if err != nil {
			t.Fatalf("workers=%d: degraded campaign aborted: %v", workers, err)
		}
		return rep
	}
	ref := run(1)
	if ref.ShardsQuarantined != 1 || len(ref.QuarantinedShards) != 1 {
		t.Fatalf("ShardsQuarantined = %d (%d recorded), want 1",
			ref.ShardsQuarantined, len(ref.QuarantinedShards))
	}
	q := ref.QuarantinedShards[0]
	shards := shardConfigs(shardedCfg(t, 800, 7).withDefaults())
	if q.Shard != 1 || q.Seed != shards[1].Seed || q.TestCases != shards[1].TestCases {
		t.Fatalf("quarantine record %+v does not pin shard 1's replay recipe (want seed %d, cases %d)",
			q, shards[1].Seed, shards[1].TestCases)
	}
	if q.Err == "" || !strings.Contains(q.Err, "panicked") {
		t.Fatalf("quarantine error %q does not describe the panic", q.Err)
	}
	if ref.ShardRetries != DefaultShardRetries {
		t.Fatalf("ShardRetries = %d, want %d (every attempt of the quarantined shard failed)",
			ref.ShardRetries, DefaultShardRetries)
	}
	// The other three shards' work survives.
	if want := 3 * shards[0].TestCases; ref.TestCases != want {
		t.Fatalf("TestCases = %d, want %d from the three live shards", ref.TestCases, want)
	}
	if ref.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d, want 0", ref.FalsePositives)
	}
	for _, workers := range []int{3, 8} {
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, run(workers))) {
			t.Fatalf("workers=%d: degraded report differs from the serial run", workers)
		}
	}
}

// TestQuarantineSurvivesCheckpointResume: a quarantined shard's
// placeholder rides the checkpoint like any completed shard, so a resume
// neither retries it nor forgets it.
func TestQuarantineSurvivesCheckpointResume(t *testing.T) {
	cfg := shardedCfg(t, 800, 11)
	cfg.Chaos = mustChaos(t, "shard-error=0x99", cfg.Seed)
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 1, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ShardsQuarantined != 1 {
		t.Fatalf("ShardsQuarantined = %d, want 1", ref.ShardsQuarantined)
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
		Workers: 1, CheckpointPath: path, Interrupt: interrupt, RetryBackoff: -1,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	// Resume without chaos: shards already checkpointed (including the
	// quarantine placeholder) are kept; the rest run clean.
	resumedCfg := shardedCfg(t, 800, 11)
	resumed, err := RunShardedOpts(resumedCfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true, RetryBackoff: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ShardsQuarantined != 1 {
		t.Fatalf("resumed ShardsQuarantined = %d, want 1 (placeholder lost in the checkpoint)",
			resumed.ShardsQuarantined)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resumed degraded report differs from the uninterrupted degraded run")
	}
}

// TestWatchdogHangDetection: with a case timeout configured, a chaos
// stall is detected as a hang — the case is canceled, reported as a
// ClassHang bug with its seed and ordinal, exempted from false-positive
// accounting, and the campaign runs to completion.
func TestWatchdogHangDetection(t *testing.T) {
	cfg := shardedCfg(t, 200, 7) // single shard
	cfg.CaseTimeout = 50 * time.Millisecond
	// A stall window rather than one ordinal: whichever of these ordinals
	// are real oracle cases under this seed, at least one stalls.
	cfg.Chaos = mustChaos(t, "case-stall=3,4,5", cfg.Seed)
	runner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hangs == 0 {
		t.Fatal("Hangs = 0: the stalled case was never detected")
	}
	if rep.DetectedByClass[ClassHang] != rep.Hangs {
		t.Fatalf("DetectedByClass[hang] = %d but Hangs = %d",
			rep.DetectedByClass[ClassHang], rep.Hangs)
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("FalsePositives = %d: hangs must be exempt (they have no ground-truth fault)",
			rep.FalsePositives)
	}
	if rep.TestCases != 200 {
		t.Fatalf("TestCases = %d, want 200: the campaign did not run to completion after the hang",
			rep.TestCases)
	}
	found := false
	for _, b := range rep.Bugs {
		if b.Class != ClassHang {
			continue
		}
		found = true
		if b.Seq < 3 || b.Seq > 5 {
			t.Fatalf("hang bug ordinal %d outside the stalled window", b.Seq)
		}
		if !strings.Contains(b.Detail, "timeout") || !strings.Contains(b.Detail, "seed 7") {
			t.Fatalf("hang detail %q lacks replay coordinates", b.Detail)
		}
	}
	if !found {
		t.Fatal("no prioritized ClassHang bug in the report")
	}
}

// TestResumeAfterTornTail: when an append lands torn (the ckpt-torn
// chaos site: half its bytes, reported as success) and the writer
// carries on after it, a resume drops the torn record and every record
// after it, re-runs those shards, and completes byte-identically to an
// uninterrupted run.
func TestResumeAfterTornTail(t *testing.T) {
	cfg := shardedCfg(t, 800, 11).withDefaults() // 4 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// The journal a crash after every shard had finished would leave:
	// shard 0, then shard 1 torn, then shards 2 and 3 behind it.
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	run := cfg
	run.Chaos = mustChaos(t, "ckpt-torn=2", 0)
	_, failures, err := runShards(run, warmStart{}, ShardedOptions{Workers: 1, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("%d checkpoint writes failed; a torn append reports success", failures)
	}
	if n := restoredShards(t, cfg, path); n != 1 {
		t.Fatalf("torn journal restores %d shards, want 1 (the torn record and all after it dropped)", n)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume past a torn tail failed: %v", err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resume past a torn tail differs from the uninterrupted run")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("checkpoint directory not empty after completion (%d entries, %v)", len(entries), err)
	}
}

// TestResumeCorruptHeaderStartsFresh: a checkpoint whose header is
// garbage, torn, or fails its checksum is no usable checkpoint, so the
// resume starts fresh instead of erroring — and still produces the
// uninterrupted report.
func TestResumeCorruptHeaderStartsFresh(t *testing.T) {
	cfg := shardedCfg(t, 400, 13)
	ref, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	header := journalReference(t, emptyCheckpoint(cfg))
	flipped := bytes.Clone(header)
	flipped[len(flipped)/2] ^= 1
	for name, data := range map[string][]byte{
		"garbage": []byte("not json at all"),
		"torn":    header[:len(header)/2],
		"flipped": flipped,
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if n := restoredShards(t, cfg, path); n != 0 {
			t.Fatalf("%s header: restores %d shards", name, n)
		}
		rep, err := RunShardedOpts(cfg, ShardedOptions{
			Workers: 1, CheckpointPath: path, Resume: true,
		})
		if err != nil {
			t.Fatalf("%s header: resume errored: %v", name, err)
		}
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, rep)) {
			t.Fatalf("%s header: fresh-start resume differs from a plain run", name)
		}
	}
}

// TestCheckpointFaultsEverySiteDegrade: the marshal, write, and sync
// chaos sites each fail one checkpoint save; every failure is counted,
// none aborts the campaign, and the findings match the chaos-free run.
func TestCheckpointFaultsEverySiteDegrade(t *testing.T) {
	ref, err := RunSharded(shardedCfg(t, 800, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg := shardedCfg(t, 800, 7)
		cfg.Chaos = mustChaos(t, "ckpt-marshal=1;ckpt-write=1;ckpt-sync=1", cfg.Seed)
		path := filepath.Join(t.TempDir(), "run.ckpt")
		rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers, CheckpointPath: path})
		if err != nil {
			t.Fatalf("workers=%d: campaign aborted on checkpoint faults: %v", workers, err)
		}
		if rep.CheckpointWriteFailures != 3 {
			t.Fatalf("workers=%d: CheckpointWriteFailures = %d, want 3", workers, rep.CheckpointWriteFailures)
		}
		if !bytes.Equal(marshalReport(t, ref), marshalReport(t, stripChaosCounters(rep))) {
			t.Fatalf("workers=%d: findings differ from the chaos-free run", workers)
		}
	}
}

// FuzzLoadCheckpoint: loading arbitrary bytes as a checkpoint must never
// panic — it returns an error, restores shards, or starts fresh, but a
// corrupt file can never take the campaign down. Shards come only from
// a verified journal prefix: the kept bytes are the header and one
// verified record per restored shard, which are a prefix of the shards.
func FuzzLoadCheckpoint(f *testing.F) {
	target := func() *checkpointFile {
		return &checkpointFile{
			Fingerprint: "fp", TotalShards: 2,
			Seeds: []int64{3, 9}, Shards: make([]*Report, 2),
		}
	}
	cp := target()
	cp.Shards[0] = &Report{Dialect: "sqlite", Counters: Counters{TestCases: 5}}
	cp.Shards[1] = &Report{Dialect: "sqlite", Counters: Counters{TestCases: 7, ShardRetries: 1}}
	journal := journalReference(f, cp)
	header := journal[:bytes.IndexByte(journal, '\n')+1]
	badSum := bytes.Clone(journal)
	badSum[len(header)+5] ^= 1 // inside shard 0's record
	extra, err := encodeRecord(ckptRecord{Shard: 2, Report: cp.Shards[1]})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(header)
	f.Add(journal[:len(journal)-5]) // torn final record
	f.Add(badSum)
	f.Add(append(bytes.Clone(journal), extra...)) // more records than TotalShards
	f.Add(append(bytes.Clone(journal), "garbage\n{}"...))
	// A journal at another version, one whose first record is shard 1's,
	// one of another campaign, and a header without its checksum.
	old := ckptHeader{Version: 2, checkpointFile: *target()}
	old.Shards = nil
	oldHeader, err := encodeRecord(old)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(oldHeader, journal[len(header):]...))
	rec1 := len(header) + bytes.IndexByte(journal[len(header):], '\n') + 1
	f.Add(append(bytes.Clone(header), journal[rec1:]...))
	other := target()
	other.Fingerprint = "other"
	f.Add(journalReference(f, other))
	f.Add(header[:bytes.LastIndexByte(header, ' ')])

	oldKeys, err := os.ReadFile(filepath.Join("testdata", "old-key-order.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oldKeys)
	f.Add([]byte(`{"Version":1}`))
	f.Add([]byte("{"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		tgt := target()
		// Errors (hard mismatches) and fresh starts are both fine;
		// panics are not.
		kept, err := loadCheckpoint(path, tgt)
		if err != nil {
			return
		}
		restored := 0
		for _, rep := range tgt.Shards {
			if rep != nil {
				restored++
			}
		}
		if kept == 0 && restored == 0 {
			return // a fresh start
		}
		if n, ok := verifiedLines(data[:kept]); !ok || n != 1+restored {
			t.Fatalf("kept %d bytes: %d verified lines (all verified: %t) for %d restored shards",
				kept, n, ok, restored)
		}
		for j, rep := range tgt.Shards {
			if (rep != nil) != (j < restored) {
				t.Fatalf("restored shards are not a prefix: shard %d restored %t", j, rep != nil)
			}
		}
	})
}
