package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/sqlparse"
)

// childEnv carries a child process's job. The benchmark binary (or test
// binary) re-executes itself with it set; the sqlparse cache is a
// process-global LRU, so every measured campaign needs a fresh process.
const childEnv = "PERFBENCH_CHILD"

// profileHz is the traced driver's CPU sampling rate.
const profileHz = 1000

// job is one child process's task.
type job struct {
	Workload string
	Seed     int64
	Cases    int
	// Traced selects the traced driver instead of the real campaign.
	Traced bool
	// Workers and Checkpoint configure the sharded workload's
	// RunShardedOpts call.
	Workers    int
	Checkpoint bool
	TmpDir     string
	// SpawnNanos is the parent's wall clock just before it started the
	// process; set-up time counts from there.
	SpawnNanos int64
}

// childResult is what one child process measured.
type childResult struct {
	Workers                         int
	TestCases, ValidCases, Detected int
	UniqueBugs, UniquePrioritized   int
	FalsePositives                  int
	CheckpointWriteFailures         int
	// Failed counts cases that ended in a harness crash or a hang, or
	// that belong to a quarantined shard.
	Failed int
	Digest string

	SetupS, WallS, CPUS float64
	AllocBytes, Allocs  float64
	PeakRSSMB           float64
	WriteBytes          float64
	GCCPUS, BusyCPUS    float64

	Layers *layerStats `json:",omitempty"`
}

// spawn runs one job in a fresh process with GOMAXPROCS set to the CPU
// count, and waits for it.
func spawn(j job) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	j.SpawnNanos = time.Now().UnixNano()
	spec, err := json.Marshal(j)
	if err != nil {
		return childResult{}, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec),
		"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s seed %d: child process: %v\n%s", j.Workload, j.Seed, err, stderr.String())
	}
	var r childResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		return childResult{}, fmt.Errorf("%s seed %d: decoding child result: %w", j.Workload, j.Seed, err)
	}
	return r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// childMain runs the job in spec and prints its result.
func childMain(spec string) int {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: decoding job:", err)
		return 2
	}
	run := runCampaign
	if j.Traced {
		run = runTraced
	}
	r, err := run(j)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runCampaign runs the workload's real campaign call with tracing off.
func runCampaign(j job) (childResult, error) {
	w, ok := lookupWorkload(j.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	d, err := dialect.Get(w.dialect)
	if err != nil {
		return childResult{}, err
	}
	cfg := w.config(d, j.Seed, j.Cases)
	var run func() (*campaign.Report, error)
	if w.sharded {
		opts := campaign.ShardedOptions{Workers: j.Workers}
		if j.Checkpoint {
			dir, err := os.MkdirTemp(j.TmpDir, "perfbench-ckpt-")
			if err != nil {
				return childResult{}, err
			}
			defer os.RemoveAll(dir)
			opts.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
		}
		run = func() (*campaign.Report, error) { return campaign.RunShardedOpts(cfg, opts) }
	} else {
		runner, err := campaign.New(cfg)
		if err != nil {
			return childResult{}, err
		}
		run = runner.Run
	}

	setup := float64(time.Now().UnixNano()-j.SpawnNanos) / 1e9
	before, err := readCounters()
	if err != nil {
		return childResult{}, err
	}
	t0 := time.Now()
	rep, err := run()
	wall := time.Since(t0)
	if err != nil {
		return childResult{}, err
	}
	after, err := readCounters()
	if err != nil {
		return childResult{}, err
	}

	canon, err := json.Marshal(rep)
	if err != nil {
		return childResult{}, err
	}
	sum := sha256.Sum256(canon)
	failed := rep.HarnessCrashes + rep.Hangs
	for _, q := range rep.QuarantinedShards {
		failed += q.TestCases
	}
	return childResult{
		Workers:                 j.Workers,
		TestCases:               rep.TestCases,
		ValidCases:              rep.ValidCases,
		Detected:                rep.Detected,
		UniqueBugs:              rep.UniqueGroundTruth,
		UniquePrioritized:       rep.UniquePrioritized,
		FalsePositives:          rep.FalsePositives,
		CheckpointWriteFailures: rep.CheckpointWriteFailures,
		Failed:                  failed,
		Digest:                  hex.EncodeToString(sum[:]),
		SetupS:                  setup,
		WallS:                   wall.Seconds(),
		CPUS:                    after.cpu - before.cpu,
		AllocBytes:              after.allocBytes - before.allocBytes,
		Allocs:                  after.allocs - before.allocs,
		PeakRSSMB:               after.maxRSSMB,
		WriteBytes:              after.wchar - before.wchar,
		GCCPUS:                  after.gcCPU - before.gcCPU,
		BusyCPUS:                after.busyCPU - before.busyCPU,
	}, nil
}

// runTraced runs the traced driver on the workload under a CPU profile
// whose samples carry the driver's span labels.
func runTraced(j job) (childResult, error) {
	w, ok := lookupWorkload(j.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", j.Workload)
	}
	d, err := dialect.Get(w.dialect)
	if err != nil {
		return childResult{}, err
	}
	cfg := w.config(d, j.Seed, j.Cases)
	st := &layerStats{}
	tr := newTracer(st)
	var serial *driver
	if !w.sharded {
		if serial, err = newDriver(cfg, tr); err != nil {
			return childResult{}, err
		}
	}

	var prof bytes.Buffer
	// Raising the rate before StartCPUProfile keeps it: StartCPUProfile's
	// own attempt to set 100 Hz only prints a warning while a profile is on.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return childResult{}, fmt.Errorf("starting the CPU profile: %w", err)
	}
	hits0, misses0 := sqlparse.Shared().Stats()
	t0 := time.Now()
	if w.sharded {
		err = driveSharded(cfg, tr)
	} else {
		serial.run()
		st.Unsupported = serial.unsupported
	}
	st.DriverNs = time.Since(t0).Nanoseconds()
	hits1, misses1 := sqlparse.Shared().Stats()
	pprof.StopCPUProfile()
	if err != nil {
		return childResult{}, err
	}
	st.ParseHits, st.ParseMisses = hits1-hits0, misses1-misses0
	if st.Samples, err = spanSamples(prof.Bytes()); err != nil {
		return childResult{}, fmt.Errorf("decoding the CPU profile: %w", err)
	}
	return childResult{
		TestCases:  st.Cases,
		ValidCases: st.ValidCases,
		Detected:   st.Detected,
		WallS:      float64(st.DriverNs) / 1e9,
		Layers:     st,
	}, nil
}

// counters are process-wide cumulative counters read around a campaign
// call.
type counters struct {
	cpu                float64 // user+system seconds
	maxRSSMB           float64
	allocBytes, allocs float64
	gcCPU, busyCPU     float64 // runtime/metrics CPU-class estimates
	wchar              float64 // bytes passed to write syscalls
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters() (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	c.maxRSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux

	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	c.allocBytes, c.allocs = v(0), v(1)
	c.gcCPU, c.busyCPU = v(2), v(3)-v(4)

	wchar, err := procWchar()
	if err != nil {
		return c, err
	}
	c.wchar = wchar
	return c, nil
}

// procWchar reads the process's written-bytes counter from /proc/self/io.
func procWchar() (float64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, fmt.Errorf("reading write counters: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no wchar line in /proc/self/io")
}
