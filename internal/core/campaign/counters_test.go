package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sqlancerpp/internal/dialect"
)

// distinctCounters fills every Counters field with base*(i+1), i the
// field index, so no two fields (and no two bases) share a value.
func distinctCounters(t *testing.T, base int) Counters {
	t.Helper()
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int {
			t.Fatalf("Counters.%s is %s; Add and this test sum ints only",
				v.Type().Field(i).Name, v.Field(i).Kind())
		}
		v.Field(i).SetInt(int64(base * (i + 1)))
	}
	return c
}

// checkSum fails for every field of got that is not the sum of the same
// field of distinctCounters(1) and distinctCounters(100).
func checkSum(t *testing.T, what string, got Counters) {
	t.Helper()
	v := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if want := int64(101 * (i + 1)); v.Field(i).Int() != want {
			t.Errorf("%s: Counters.%s = %d, want %d",
				what, v.Type().Field(i).Name, v.Field(i).Int(), want)
		}
	}
}

// TestCountersAddCoversEveryField: Add must sum every field, so a
// counter declared on Counters but missing from Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	c := distinctCounters(t, 1)
	c.Add(distinctCounters(t, 100))
	checkSum(t, "Add", c)
}

// TestMergeSumsEveryCounter: the shard merge sums every counter of
// every shard, quarantined placeholders included.
func TestMergeSumsEveryCounter(t *testing.T) {
	cfg := Config{Dialect: dialect.MustGet("sqlite"), TestCases: 400}.withDefaults()
	reps := []*Report{
		{Counters: distinctCounters(t, 1)},
		{Counters: distinctCounters(t, 100)},
	}
	merged, err := mergeReports(cfg, nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, "mergeReports", merged.Counters)

	reps[1].Quarantined = true
	merged, err = mergeReports(cfg, nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, "mergeReports with a quarantined shard", merged.Counters)
	if merged.ShardsQuarantined != 1 {
		t.Errorf("ShardsQuarantined = %d, want 1", merged.ShardsQuarantined)
	}
}

// oldKeyOrderCfg is the campaign testdata/old-key-order.ckpt belongs to:
// two shards, of which the file holds shard 0, completed after one
// injected retry (ShardRetries 1). It is a journal whose shard record
// carries the report bytes an encoder that predates Counters wrote, so
// its report keys are in the old order (the summed counters interleaved
// with the recomputed fields).
func oldKeyOrderCfg() Config {
	return Config{
		Dialect:    dialect.MustGet("cratedb"),
		Mode:       Adaptive,
		TestCases:  160,
		CasesPerDB: 80,
		Seed:       3,
		ReduceBugs: true,
	}
}

// TestResumeOldKeyOrderCheckpoint: a checkpoint whose reports carry the
// old JSON key order still resumes to the uninterrupted result.
func TestResumeOldKeyOrderCheckpoint(t *testing.T) {
	cfg := oldKeyOrderCfg()
	cfg.Chaos = mustChaos(t, "shard-error=0x1", cfg.Seed)
	ref, err := RunShardedOpts(cfg, ShardedOptions{Workers: 1, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "old-key-order.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(t, oldKeyOrderCfg(), path); n != 1 {
		t.Fatalf("fixture restores %d shards, want 1", n)
	}
	resumed, err := RunShardedOpts(oldKeyOrderCfg(), ShardedOptions{
		Workers: 2, CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ShardRetries != 1 {
		t.Errorf("ShardRetries = %d, want the restored shard's 1", resumed.ShardRetries)
	}
	if !bytes.Equal(marshalReport(t, ref), marshalReport(t, resumed)) {
		t.Fatalf("resumed report differs from the uninterrupted run:\n%s\n%s",
			marshalReport(t, resumed), marshalReport(t, ref))
	}
}
