package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
)

// saveCheckpointFile writes cp through the campaign's checkpoint writer,
// encoding each completed shard as RunShardedOpts does.
func saveCheckpointFile(path string, cp *checkpointFile, inj *chaos.Injector) error {
	w, err := newCkptWriter(path, cp, inj)
	if err != nil {
		return err
	}
	for i, rep := range cp.Shards {
		if rep == nil {
			continue
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		w.setShard(i, enc)
	}
	return w.save()
}

// emptyCheckpoint is the checkpoint a fresh run of cfg starts from.
func emptyCheckpoint(cfg Config) *checkpointFile {
	cfg = cfg.withDefaults()
	shards := shardConfigs(cfg)
	cp := &checkpointFile{
		Fingerprint: fingerprint(cfg),
		TotalShards: len(shards),
		Seeds:       make([]int64, len(shards)),
		Shards:      make([]*Report, len(shards)),
	}
	for i, sc := range shards {
		cp.Seeds[i] = sc.Seed
	}
	return cp
}

// restoredShards loads the checkpoint at path as a resume of cfg would
// and returns how many completed shards it restores.
func restoredShards(t *testing.T, cfg Config, path string) int {
	t.Helper()
	cp := emptyCheckpoint(cfg)
	if err := loadCheckpoint(path, cp); err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	n := 0
	for _, rep := range cp.Shards {
		if rep != nil {
			n++
		}
	}
	return n
}

// interruptWhen returns a channel that closes once cond holds. The
// polling goroutine exits by the end of the test either way.
func interruptWhen(t *testing.T, cond func() bool) <-chan struct{} {
	ch, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !cond() {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
		close(ch)
	}()
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
	})
	return ch
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// bugHuntCfg is a cratedb campaign with every default oracle and bug
// reduction on: low validity and many bugs, most of them duplicates
// across shards.
func bugHuntCfg(cases int, seed int64) Config {
	return Config{
		Dialect:    dialect.MustGet("cratedb"),
		Mode:       Adaptive,
		TestCases:  cases,
		Seed:       seed,
		Oracles:    oracle.DefaultNames(),
		ReduceBugs: true,
	}
}

// envelopeReference is the checkpoint encoding by json.Marshal and
// hash/fnv alone: the payload marshaled whole, then wrapped in the
// envelope.
func envelopeReference(t *testing.T, cp *checkpointFile) []byte {
	t.Helper()
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	data, err := json.Marshal(checkpointEnvelope{
		Version:  checkpointVersion,
		Checksum: fmt.Sprintf("%016x", h.Sum64()),
		Payload:  payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointEncodeGolden: the writer's spliced encoding equals
// json.Marshal of the envelope around the marshaled checkpoint, byte for
// byte, after every shard it is given — in and out of shard order, since
// the writer reuses the unchanged part of its last encoding — for
// incomplete shards, a quarantined placeholder, an empty FeedbackState,
// a real campaign report, and text that json.Marshal escapes (<, >, &,
// U+2028, U+2029).
func TestCheckpointEncodeGolden(t *testing.T) {
	cfg := bugHuntCfg(200, 3)
	runner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	real, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(real.Bugs) == 0 {
		t.Fatal("campaign found no bugs; pick a seed that exercises bug encoding")
	}
	odd := "a < b && c > d \u2028 \u2029 \"q\" \\ \t \u00e9"
	cp := emptyCheckpoint(bugHuntCfg(1000, 3))
	cp.Fingerprint += " " + odd
	shards := []*Report{
		real,
		{Counters: Counters{ShardRetries: 2}, Quarantined: true, QuarantineErr: "shard 1 attempt 3: " + odd},
		nil,
		{
			Dialect: "sqlite", FeedbackState: []byte{}, Counters: Counters{TestCases: 4},
			Bugs: []*BugCase{{
				ID: 1, Class: ClassLogic, Detail: odd, Features: []string{"<", "&"},
				Queries: []string{"SELECT '<&>'"}, Reduced: []string{"SELECT 1 & 2 < 3"},
			}},
		},
		nil,
	}
	if len(cp.Shards) != len(shards) {
		t.Fatalf("test layout: %d shards, want %d", len(cp.Shards), len(shards))
	}
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	w, err := newCkptWriter(path, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		want := envelopeReference(t, cp)
		if got := w.encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: writer bytes differ from json.Marshal\n got %.300s\nwant %.300s", stage, got, want)
		}
	}
	check("no shard complete")
	for _, i := range []int{3, 0, 1} {
		enc, err := json.Marshal(shards[i])
		if err != nil {
			t.Fatal(err)
		}
		cp.Shards[i] = shards[i]
		w.setShard(i, enc)
		check(fmt.Sprintf("shard %d complete", i))
		check(fmt.Sprintf("shard %d complete, encoded again", i))
	}

	// The saved file is that encoding, and it loads back to cp.
	if err := w.save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, envelopeReference(t, cp)) {
		t.Fatal("saved file differs from the json.Marshal encoding")
	}
	loaded, err := loadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(envelopeReference(t, loaded), data) {
		t.Fatal("checkpoint does not round-trip through load")
	}
}

// TestResumeBakOnlyAfterFailedCommit: a failed commit (the ckpt-rename
// chaos site) leaves only ".bak" on disk, exactly like a crash between a
// save's rotation and its commit. A resume restores the shards ".bak"
// holds and completes byte-identically to an uninterrupted run.
func TestResumeBakOnlyAfterFailedCommit(t *testing.T) {
	cfg := shardedCfg(t, 1600, 11) // 8 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Every commit after the first fails once the generation is rotated.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	run := cfg
	run.Chaos = mustChaos(t, "ckpt-rename=2,3,4,5,6,7,8", 0)
	_, err = RunShardedOpts(run, ShardedOptions{
		Workers: 1, CheckpointPath: path,
		Interrupt: interruptWhen(t, func() bool { return fileExists(path + ".bak") }),
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if fileExists(path) {
		t.Fatal("primary checkpoint exists; the failed commit should have left only .bak")
	}
	if n := restoredShards(t, cfg, path); n != 1 {
		t.Fatalf(".bak-only checkpoint restores %d shards, want 1", n)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resume from .bak differs from the uninterrupted run")
	}
}

// TestSalvageResumeKeepsLastGoodGeneration: a resume that salvages from
// ".bak" past a torn primary removes the torn file, so when its first
// commit then fails the rotation cannot move the torn file over the good
// ".bak" — a second resume still restores from it.
func TestSalvageResumeKeepsLastGoodGeneration(t *testing.T) {
	cfg := shardedCfg(t, 1600, 11) // 8 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// A good generation, then a torn save over it: torn primary, good .bak.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	_, err = RunShardedOpts(cfg, ShardedOptions{
		Workers: 1, CheckpointPath: path,
		Interrupt: interruptWhen(t, func() bool { return fileExists(path) }),
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	cp := emptyCheckpoint(cfg)
	if err := loadCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpointFile(path, cp, mustChaos(t, "ckpt-torn=1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpointFile(path); !errors.Is(err, errCkptCorrupt) {
		t.Fatalf("torn primary loaded as %v, want errCkptCorrupt", err)
	}
	good := restoredShards(t, cfg, path)
	if good == 0 {
		t.Fatal("good .bak generation restores no shard")
	}

	// Salvaging resume whose every commit fails; stop it after the first.
	run := cfg
	inj := mustChaos(t, "ckpt-rename=1,2,3,4,5,6,7,8", 0)
	run.Chaos = inj
	_, err = RunShardedOpts(run, ShardedOptions{
		Workers: 1, CheckpointPath: path, Resume: true,
		Interrupt: interruptWhen(t, func() bool { return inj.Fired(chaos.CheckpointRename) > 0 }),
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("salvaging resume returned %v, want ErrInterrupted", err)
	}
	if _, err := loadCheckpointFile(path + ".bak"); err != nil {
		t.Fatalf("last good generation destroyed: %v", err)
	}
	if n := restoredShards(t, cfg, path); n != good {
		t.Fatalf("second resume restores %d shards, want the %d of the good generation", n, good)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("second resume differs from the uninterrupted run")
	}
}
