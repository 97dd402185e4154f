package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
)

// saveCheckpointFile writes cp as a new journal through the campaign's
// checkpoint writer: the header and cp's leading completed shards.
func saveCheckpointFile(path string, cp *checkpointFile, inj *chaos.Injector) error {
	w, err := newCkptWriter(path, cp, 0, inj)
	if err != nil {
		return err
	}
	for i, rep := range cp.Shards {
		if rep == nil {
			continue
		}
		if w.pending[i], err = encodeRecord(ckptRecord{Shard: i, Report: rep}); err != nil {
			return err
		}
	}
	if err := w.save(); err != nil {
		w.close()
		return err
	}
	return w.close()
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

// journalShards loads the checkpoint at path as a resume of cfg would
// and returns how many completed shards it restores (0 when the load
// fails). It is safe to call from any goroutine.
func journalShards(cfg Config, path string) int {
	cp := emptyCheckpoint(cfg)
	if _, err := loadCheckpoint(path, cp); err != nil {
		return 0
	}
	n := 0
	for _, rep := range cp.Shards {
		if rep != nil {
			n++
		}
	}
	return n
}

// restoredShards is journalShards, failing the test when the checkpoint
// does not load.
func restoredShards(t *testing.T, cfg Config, path string) int {
	t.Helper()
	if _, err := loadCheckpoint(path, emptyCheckpoint(cfg)); err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}
	return journalShards(cfg, path)
}

// runInterruptedAt runs cfg with opts and a checkpoint, interrupting it
// as shard k starts: shard k waits there until shards 0 to k-1 are in the
// journal, so it never runs, no shard before it is skipped, and the
// journal stops at exactly k records. With k at or past the shard count
// the run completes. The hook is reset before it returns.
func runInterruptedAt(cfg Config, opts ShardedOptions, k int) error {
	interrupt := make(chan struct{})
	shardStartHook = func(shard int) {
		if shard != k {
			return
		}
		for journalShards(cfg, opts.CheckpointPath) < k {
			time.Sleep(time.Millisecond)
		}
		close(interrupt)
	}
	defer func() { shardStartHook = nil }()
	opts.Interrupt = interrupt
	_, err := RunShardedOpts(cfg, opts)
	return err
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

// fnvHex is FNV-1a-64 of p in 16 hex digits, computed by hash/fnv alone.
func fnvHex(p []byte) string {
	h := fnv.New64a()
	h.Write(p)
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalReference is the journal of cp by json.Marshal and hash/fnv
// alone: the header line, then one line per leading completed shard,
// each line its JSON, a space, the JSON's checksum and a newline.
func journalReference(t testing.TB, cp *checkpointFile) []byte {
	t.Helper()
	line := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf("%s %s\n", b, fnvHex(b)))
	}
	data := line(struct {
		Version     int
		Fingerprint string
		TotalShards int
		Seeds       []int64
	}{checkpointVersion, cp.Fingerprint, cp.TotalShards, cp.Seeds})
	for i, rep := range cp.Shards {
		if rep == nil {
			break
		}
		data = append(data, line(struct {
			Shard  int
			Report *Report
		}{i, rep})...)
	}
	return data
}

// verifiedLines reports whether data is a sequence of complete journal
// lines whose checksums all hold, checked without the campaign's
// decoder, and how many there are.
func verifiedLines(data []byte) (int, bool) {
	n := 0
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 17 || data[i-17] != ' ' || string(data[i-16:i]) != fnvHex(data[:i-17]) {
			return n, false
		}
		data, n = data[i+1:], n+1
	}
	return n, true
}

// TestCheckpointRecordRoundTrip: the journal the writer produces is the
// json.Marshal + hash/fnv reference byte for byte, and it loads back to
// the same shards — for a real campaign report, a quarantined
// placeholder, an empty FeedbackState, an incomplete shard, and text that
// json.Marshal escapes (<, >, &, U+2028, U+2029, a newline).
func TestCheckpointRecordRoundTrip(t *testing.T) {
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
	odd := "a < b && c > d \u2028 \u2029 \"q\" \\ \t \n \u00e9"
	cp := emptyCheckpoint(bugHuntCfg(1000, 3))
	cp.Fingerprint += " " + odd
	shards := []*Report{
		real,
		{Counters: Counters{ShardRetries: 2}, Quarantined: true, QuarantineErr: "shard 1 attempt 3: " + odd},
		{
			Dialect: "sqlite", FeedbackState: []byte{}, Counters: Counters{TestCases: 4},
			Bugs: []*BugCase{{
				ID: 1, Class: ClassLogic, Detail: odd, Features: []string{"<", "&"},
				Queries: []string{"SELECT '<&>'"}, Reduced: []string{"SELECT 1 & 2 < 3"},
			}},
		},
		nil,
		nil,
	}
	if len(cp.Shards) != len(shards) {
		t.Fatalf("test layout: %d shards, want %d", len(cp.Shards), len(shards))
	}
	copy(cp.Shards, shards)
	path := filepath.Join(t.TempDir(), "golden.ckpt")
	if err := saveCheckpointFile(path, cp, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := journalReference(t, cp); !bytes.Equal(data, want) {
		t.Fatalf("journal differs from the reference\n got %.300s\nwant %.300s", data, want)
	}
	if n, ok := verifiedLines(data); !ok || n != 4 {
		t.Fatalf("journal holds %d verified lines (all verified: %t), want the header and 3 records", n, ok)
	}

	loaded := emptyCheckpoint(bugHuntCfg(1000, 3))
	loaded.Fingerprint = cp.Fingerprint
	kept, err := loadCheckpoint(path, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if kept != int64(len(data)) {
		t.Fatalf("load keeps %d of %d bytes", kept, len(data))
	}
	for i, rep := range shards {
		got, err := json.Marshal(loaded.Shards[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shard %d does not round-trip:\n got %.300s\nwant %.300s", i, got, want)
		}
	}
}

// TestCheckpointJournalLinear: a 7-shard campaign at 2 workers writes
// each shard's record once, in shard order. The completed file is
// exactly the header plus the 7 records, no ".bak" or temp file ever
// appears beside it, and an interrupt as shard k starts leaves exactly
// the header and the first k records.
func TestCheckpointJournalLinear(t *testing.T) {
	cfg := bugHuntCfg(1400, 5).withDefaults() // 7 shards
	dir := t.TempDir()
	// Watch the directory while the campaign runs: only the journal may
	// ever appear in it.
	var strays []string
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if e.Name() != "run.ckpt" {
					strays = append(strays, e.Name())
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	path := filepath.Join(dir, "run.ckpt")
	reps, failures, err := runShards(cfg, warmStart{}, ShardedOptions{Workers: 2, CheckpointPath: path, RetryBackoff: -1})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(strays) > 0 {
		t.Fatalf("files appeared beside the journal: %v", strays)
	}
	if failures != 0 {
		t.Fatalf("%d checkpoint writes failed", failures)
	}
	full := emptyCheckpoint(cfg)
	copy(full.Shards, reps)
	want := journalReference(t, full)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("completed journal is %d bytes, want the header and 7 records, %d bytes", len(data), len(want))
	}
	if n, ok := verifiedLines(data); !ok || n != 1+len(reps) {
		t.Fatalf("completed journal holds %d verified lines, want %d", n, 1+len(reps))
	}

	for _, k := range []int{1, 3} {
		path := filepath.Join(dir, fmt.Sprintf("k%d", k), "run.ckpt")
		if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		// Shard k waits at its start until shards 0 to k-1 are in the
		// journal, then interrupts: it never runs, no shard before it is
		// skipped, and the journal stops at exactly k records whatever
		// the shards after it do.
		interrupt := make(chan struct{})
		shardStartHook = func(shard int) {
			if shard != k {
				return
			}
			for journalShards(cfg, path) < k {
				time.Sleep(time.Millisecond)
			}
			close(interrupt)
		}
		_, err := RunShardedOpts(cfg, ShardedOptions{
			Workers: 2, CheckpointPath: path, RetryBackoff: -1, Interrupt: interrupt,
		})
		shardStartHook = nil
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("k=%d: interrupted run returned %v, want ErrInterrupted", k, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prefix := emptyCheckpoint(cfg)
		copy(prefix.Shards[:k], reps)
		n, ok := verifiedLines(data)
		if !ok || n != 1+k || !bytes.Equal(data, journalReference(t, prefix)) {
			t.Fatalf("k=%d: interrupted journal is not the header and exactly %d records (%d verified lines, all verified: %t)",
				k, k, n, ok)
		}
		entries, err := os.ReadDir(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "run.ckpt" {
				t.Fatalf("k=%d: stray file %s beside the journal", k, e.Name())
			}
		}
	}
}

// TestResumeAfterFailedAppends: appends that fail (the ckpt-write chaos
// site) leave the journal at its last synced prefix, and the next append
// rewrites what they could not write. A run whose every append after the
// first fails leaves exactly the header and shard 0, and a resume from
// it completes byte-identically to an uninterrupted run; a run whose
// appends fail now and then still completes the full journal.
func TestResumeAfterFailedAppends(t *testing.T) {
	cfg := shardedCfg(t, 1600, 11).withDefaults() // 8 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	run := cfg
	run.Chaos = mustChaos(t, "ckpt-write=2,3,4,5,6,7,8", 0)
	reps, failures, err := runShards(run, warmStart{}, ShardedOptions{Workers: 1, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 7 {
		t.Fatalf("%d checkpoint writes failed, want 7", failures)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := emptyCheckpoint(cfg)
	first.Shards[0] = reps[0]
	if !bytes.Equal(data, journalReference(t, first)) {
		t.Fatal("journal after failed appends is not exactly the header and shard 0")
	}
	resumed, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("resume after failed appends differs from the uninterrupted run")
	}

	run.Chaos = mustChaos(t, "ckpt-write=1,4;ckpt-sync=2,4", 0)
	reps, failures, err = runShards(run, warmStart{}, ShardedOptions{Workers: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 4 {
		t.Fatalf("%d checkpoint writes failed, want 4", failures)
	}
	full := emptyCheckpoint(cfg)
	copy(full.Shards, reps)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, journalReference(t, full)) {
		t.Fatal("a failed append was not rewritten by a later one")
	}
}

// TestResumeKeepsPrefixWhenAppendsFail: a resume past a torn tail keeps
// the valid prefix even when all of its own fsyncs fail, so a second
// resume still restores at least the shards the first one did, and
// completes byte-identically to an uninterrupted run.
func TestResumeKeepsPrefixWhenAppendsFail(t *testing.T) {
	cfg := shardedCfg(t, 1600, 11).withDefaults() // 8 shards
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Shards 0 and 1 verify; the third append lands torn.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	run := cfg
	run.Chaos = mustChaos(t, "ckpt-torn=3", 0)
	if _, _, err := runShards(run, warmStart{}, ShardedOptions{Workers: 1, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(t, cfg, path); n != 2 {
		t.Fatalf("torn journal restores %d shards, want 2", n)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := loadCheckpoint(path, emptyCheckpoint(cfg))
	if err != nil {
		t.Fatal(err)
	}

	run.Chaos = mustChaos(t, "ckpt-sync=1,2,3,4,5,6", 0)
	if _, _, err := runShards(run, warmStart{}, ShardedOptions{Workers: 1, CheckpointPath: path, Resume: true}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:kept], before[:kept]) {
		t.Fatal("a resume whose fsyncs all failed damaged the valid prefix")
	}
	if n := restoredShards(t, cfg, path); n < 2 {
		t.Fatalf("second resume restores %d shards, want at least the 2 of the valid prefix", n)
	}

	resumed, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatal("second resume differs from the uninterrupted run")
	}
}

// TestResumeRejectsVersion2Checkpoint: a version 2 checkpoint, one
// checksummed JSON envelope as builds before the journal wrote, fails
// the resume with the version mismatch and is left as it was, not
// overwritten by a fresh start.
func TestResumeRejectsVersion2Checkpoint(t *testing.T) {
	cfg := bugHuntCfg(600, 4)
	cp := emptyCheckpoint(cfg)
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := json.Marshal(struct {
		Version  int
		Checksum string
		Payload  json.RawMessage
	}{2, fnvHex(payload), payload})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
	if want := fmt.Sprintf("has version 2, want %d", checkpointVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume from a version 2 checkpoint: error %v, want one containing %q", err, want)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, v2) {
		t.Fatalf("the version 2 checkpoint did not survive the failed resume (read error %v)", err)
	}
}

// TestResumeRejectsUnknownFeature: a checkpointed shard whose bug record
// or feedback state names a feature outside the table fails the resumed
// merge with an error that names it.
func TestResumeRejectsUnknownFeature(t *testing.T) {
	cfg := bugHuntCfg(600, 4)
	for _, tc := range []struct {
		name string
		rep  *Report
	}{
		{"bug record", &Report{Dialect: "cratedb", Counters: Counters{Detected: 1},
			Bugs: []*BugCase{{ID: 1, Class: ClassCrash, Features: []string{"SELECT", "NO SUCH FEATURE"}}}}},
		{"feedback state", &Report{Dialect: "cratedb",
			FeedbackState: []byte(`{"stats":{"NO SUCH FEATURE":{"n":1,"y":0,"consecFail":1,"ddl":false}},"unsupported":null}`)}},
	} {
		cp := emptyCheckpoint(cfg)
		cp.Shards[0] = tc.rep
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := os.WriteFile(path, journalReference(t, cp), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2, CheckpointPath: path, Resume: true})
		if err == nil || !strings.Contains(err.Error(), `"NO SUCH FEATURE"`) {
			t.Errorf("%s: resume error = %v, want one naming the feature", tc.name, err)
		}
	}
}
