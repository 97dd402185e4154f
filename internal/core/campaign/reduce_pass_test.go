package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/sqlparse"
)

// runShardsOnce runs every shard of cfg at the given worker count with a
// checkpoint and returns the shard reports, their encoding, and the
// completed checkpoint file.
func runShardsOnce(t *testing.T, cfg Config, workers int) (reps []*Report, enc, ckpt []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	reps, _, err := runShards(cfg, warmStart{}, ShardedOptions{Workers: workers, CheckpointPath: path, RetryBackoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ckpt, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if enc, err = json.Marshal(reps); err != nil {
		t.Fatal(err)
	}
	return reps, enc, ckpt
}

// TestShardReportsIndependentOfWorkers: shards do not reduce, so their
// reports, and the completed checkpoint holding them, are byte-identical
// at every worker count — with and without a shard that fails twice
// before it succeeds.
func TestShardReportsIndependentOfWorkers(t *testing.T) {
	for _, spec := range []string{"", "shard-error=1x2"} {
		cfg := bugHuntCfg(1400, 5).withDefaults() // 7 shards
		if spec != "" {
			cfg.Chaos = mustChaos(t, spec, cfg.Seed)
		}
		reps, wantReps, wantCkpt := runShardsOnce(t, cfg, 1)
		pending := 0
		for _, rep := range reps {
			for _, b := range rep.Bugs {
				if b.Carrier != "" {
					pending++
				}
			}
		}
		if pending == 0 {
			t.Fatalf("chaos %q: no shard bug is pending reduction; the test would be vacuous", spec)
		}
		for _, workers := range []int{2, 8} {
			_, gotReps, gotCkpt := runShardsOnce(t, cfg, workers)
			if !bytes.Equal(gotReps, wantReps) {
				t.Errorf("chaos %q: shard reports at %d workers differ from 1 worker", spec, workers)
			}
			if !bytes.Equal(gotCkpt, wantCkpt) {
				t.Errorf("chaos %q: checkpoint at %d workers differs from 1 worker", spec, workers)
			}
		}
	}
}

// TestReductionOnlyInReducePass: no shard report carries a reduction,
// every bug the merged and the serial report keep has been through the
// reduce pass (no pending carrier is left), and some of them reduced.
func TestReductionOnlyInReducePass(t *testing.T) {
	cfg := bugHuntCfg(1400, 5)
	reps, _, err := runShards(cfg.withDefaults(), warmStart{}, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		for _, b := range rep.Bugs {
			if b.Reduced != nil {
				t.Fatalf("shard %d bug %d carries a reduction", i, b.ID)
			}
		}
	}
	merged, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Report{"merged": merged, "serial": serial} {
		reduced := 0
		for _, b := range rep.Bugs {
			if b.Carrier != "" {
				t.Fatalf("%s report: bug %d still carries a pending carrier", name, b.ID)
			}
			if b.Reduced != nil {
				reduced++
			}
		}
		if reduced == 0 {
			t.Fatalf("%s report holds no reduced bug; the test would be vacuous", name)
		}
	}
}

// TestReductionIsPureFunctionOfBug: reducing a JSON round-tripped copy
// of a shard report's pending bug on its own — no runner, no other bug,
// a fresh statement cache — gives the Reduced the merged report holds
// for that bug.
func TestReductionIsPureFunctionOfBug(t *testing.T) {
	cfg := bugHuntCfg(1400, 5).withDefaults()
	reps, _, err := runShards(cfg, warmStart{}, ShardedOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := RunShardedOpts(cfg, ShardedOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]*BugCase{}
	for _, b := range merged.Bugs {
		byID[b.ID] = b
	}
	compared, offset := 0, 0
	for _, rep := range reps {
		for _, b := range rep.Bugs {
			want, kept := byID[b.ID+offset]
			if !kept || b.Carrier == "" {
				continue
			}
			data, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			var alone BugCase
			if err := json.Unmarshal(data, &alone); err != nil {
				t.Fatal(err)
			}
			if err := reduceBugs(cfg, []*BugCase{&alone}, 1, sqlparse.NewCache(parseCacheSize)); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(alone.Reduced, want.Reduced) {
				t.Fatalf("bug %d reduced alone to %q, merged report holds %q", want.ID, alone.Reduced, want.Reduced)
			}
			if want.Reduced != nil {
				compared++
			}
		}
		offset += rep.Detected
	}
	if compared == 0 {
		t.Fatal("no reduced merged bug compared; the test would be vacuous")
	}
}

// fuzzDialects are the dialects FuzzCampaign draws from unless byte 16
// opts in to every registered dialect.
var fuzzDialects = []string{"sqlite", "tidb", "cratedb"}

// fuzzConfig decodes fuzz input into a campaign on a fault-free engine,
// the worker count to run it at, and the number of checkpointed shards
// after which to interrupt it: byte 0 picks the dialect, byte 1 the
// oracle subset (a non-empty bit set over oracle.DefaultNames()), byte 2
// the case count (1-40), byte 3 the database epoch length (1-16 cases,
// so campaigns span several shards), byte 4 reduction (low bit) and
// workers (1-3), the next 8 bytes the seed, byte 13 the interrupt
// point (0 to the shard count), byte 14 the per-statement row budget
// (0 unlimited, else 256-4320 rows), byte 15 the PlanDiff plan cap
// (0 the oracle default, 1 unlimited, else 1-6 plans) and byte 16, when
// non-zero, makes byte 0 draw from all dialects instead of fuzzDialects.
// Missing bytes read as zero, so shorter inputs keep the defaults.
func fuzzConfig(data []byte) (Config, int, int) {
	var in [17]byte
	copy(in[:], data)
	dialects := fuzzDialects
	if in[16] != 0 {
		dialects = dialect.Names()
	}
	d := dialect.MustGet(dialects[int(in[0])%len(dialects)]).Clone()
	d.Faults = nil
	var oracles []oracle.Name
	names := oracle.DefaultNames()
	mask := int(in[1])%(1<<len(names)-1) + 1
	for i, n := range names {
		if mask&(1<<i) != 0 {
			oracles = append(oracles, n)
		}
	}
	cfg := Config{
		Dialect:    d,
		Mode:       Adaptive,
		Oracles:    oracles,
		TestCases:  int(in[2])%40 + 1,
		CasesPerDB: int(in[3])%16 + 1,
		ReduceBugs: in[4]&1 == 1,
		Seed:       int64(binary.LittleEndian.Uint64(in[5:13])),
	}
	if b := in[14]; b != 0 {
		cfg.RowBudget = 256 + 16*int64(b-1)
	}
	switch m := in[15] % 8; m {
	case 0:
	case 1:
		cfg.MaxPlansPerQuery = -1
	default:
		cfg.MaxPlansPerQuery = int(m) - 1
	}
	return cfg, int(in[4]>>1)%3 + 1, int(in[13]) % (ShardCount(cfg) + 1)
}

// FuzzCampaign: across dialects, oracle subsets, sizes, seeds, reduction
// and worker counts, a campaign on a fault-free engine never panics or
// fails, reports no false positive, and its merged report is
// byte-identical at 1 worker, 3 workers and the drawn worker count, and
// after an interrupt as the drawn shard starts, which leaves exactly the
// shards before it checkpointed, followed by a resume. The serial runner must run the same
// campaign cleanly too.
func FuzzCampaign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, workers, k := fuzzConfig(data)
		runner, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		if serial.FalsePositives != 0 {
			t.Fatalf("serial run on fault-free %s: %d false positives", cfg.Dialect.Name, serial.FalsePositives)
		}
		var want []byte
		for _, w := range []int{1, 3, workers} {
			rep, err := RunShardedOpts(cfg, ShardedOptions{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if rep.FalsePositives != 0 {
				t.Fatalf("sharded run on fault-free %s: %d false positives", cfg.Dialect.Name, rep.FalsePositives)
			}
			got := marshalReport(t, rep)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("merged report at %d workers differs from 1 worker", w)
			}
		}

		// The interrupt leaves exactly k shards in the journal; with k the
		// shard count the campaign finishes instead. Either way the resume
		// must end at the same bytes.
		path := filepath.Join(t.TempDir(), "run.ckpt")
		err = runInterruptedAt(cfg, ShardedOptions{Workers: workers, CheckpointPath: path}, k)
		if k < ShardCount(cfg) {
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("run interrupted at shard %d returned %v, want ErrInterrupted", k, err)
			}
			if n := journalShards(cfg, path); n != k {
				t.Fatalf("interrupted with %d shards checkpointed, want exactly %d", n, k)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		resumed, err := RunShardedOpts(cfg, ShardedOptions{Workers: workers, CheckpointPath: path, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalReport(t, resumed), want) {
			t.Fatalf("resume after an interrupt at %d shards differs from the uninterrupted run", k)
		}
	})
}

// TestReducerReplaysEachCandidateOnce: the reduce pass replays each
// distinct candidate of a bug on the engine once; a candidate the
// reducer proposes again is answered from the bug's replay memo. Logic
// bugs come from a bug hunt, harness bugs from the panic-fault dialect.
func TestReducerReplaysEachCandidateOnce(t *testing.T) {
	var mu sync.Mutex
	replays := map[*BugCase]int{}
	distinct := map[*BugCase]map[string]bool{}
	replayHook = func(bug *BugCase, key string) {
		mu.Lock()
		defer mu.Unlock()
		replays[bug]++
		if distinct[bug] == nil {
			distinct[bug] = map[string]bool{}
		}
		distinct[bug][key] = true
	}
	defer func() { replayHook = nil }()

	for _, cfg := range []Config{bugHuntCfg(1400, 5), panicCfg(t, 800, 7)} {
		if _, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	byClass := map[BugClass]int{}
	for bug, n := range replays {
		total += n
		byClass[bug.Class]++
		if n != len(distinct[bug]) {
			t.Errorf("bug %d (%s): %d replays of %d distinct candidates", bug.ID, bug.Class, n, len(distinct[bug]))
		}
	}
	if byClass[ClassLogic] == 0 || byClass[ClassHarness] == 0 {
		t.Fatalf("reduced bugs by class %v: the test needs logic and harness bugs", byClass)
	}
	t.Logf("%d replays over %d bugs (%v)", total, len(replays), byClass)
}

// TestReducerReusesOneInstancePerBug: the reduce pass opens one engine
// instance per reduced bug and Resets it between replays, and a logic
// bug's property clones the carrier only when the carrier text differs
// from the one it last cloned. Logic bugs come from a bug hunt, harness
// bugs from the panic-fault dialect.
func TestReducerReusesOneInstancePerBug(t *testing.T) {
	var mu sync.Mutex
	opens := map[*BugCase]int{}
	type check struct {
		carrier string
		cloned  bool
	}
	checks := map[*BugCase][]check{}
	openHook = func(bug *BugCase) {
		mu.Lock()
		defer mu.Unlock()
		opens[bug]++
	}
	checkHook = func(bug *BugCase, carrier string, cloned bool) {
		mu.Lock()
		defer mu.Unlock()
		checks[bug] = append(checks[bug], check{carrier, cloned})
	}
	defer func() { openHook, checkHook = nil, nil }()

	for _, cfg := range []Config{bugHuntCfg(1400, 5), panicCfg(t, 800, 7)} {
		if _, err := RunShardedOpts(cfg, ShardedOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	byClass := map[BugClass]int{}
	var nchecks, clones int
	for bug, n := range opens {
		byClass[bug.Class]++
		if n != 1 {
			t.Errorf("bug %d (%s): %d engine instances opened, want 1", bug.ID, bug.Class, n)
		}
		last := ""
		for i, c := range checks[bug] {
			if want := i == 0 || c.carrier != last; c.cloned != want {
				t.Errorf("bug %d, check %d: cloned = %v for carrier %q after a clone of %q", bug.ID, i, c.cloned, c.carrier, last)
			}
			if c.cloned {
				last = c.carrier
				clones++
			}
			nchecks++
		}
	}
	for bug := range checks {
		if opens[bug] == 0 {
			t.Errorf("bug %d was checked on an instance the reduce pass did not open", bug.ID)
		}
	}
	if byClass[ClassLogic] == 0 || byClass[ClassHarness] == 0 || clones == nchecks {
		t.Fatalf("reduced bugs by class %v, %d clones for %d checks: the test needs logic and harness bugs and a reused clone",
			byClass, clones, nchecks)
	}
	t.Logf("%d bugs (%v), %d checks, %d carrier clones", len(opens), byClass, nchecks, clones)
}
