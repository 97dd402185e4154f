// Command perfbench is the campaign benchmark. It runs one of three
// fixed-work campaign workloads through the public campaign entry points
// (campaign.New(...).Run and campaign.RunShardedOpts), each repetition in
// a fresh process, checks every report, and prints one JSON result line.
//
// Run it from the repository root through the launcher, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload oracle-loop --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics: a driver in
// this package replays the runner's calls into each layer and times them
// (see driver.go). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// options are the command-line arguments of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// cases overrides the workload's case budget (0 keeps it); the smoke
	// test uses it to run tiny campaigns.
	cases int
	// tmpDir holds the per-run checkpoint directories.
	tmpDir string
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the campaign seeds derive from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to keep repeating the workload")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced driver")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.tmpDir = os.TempDir()

	res, err := bench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs one benchmark invocation. Any failed output check is an
// error: the run then reports no numbers.
func bench(o options) (*result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.cases > 0 {
		w.cases = o.cases
	}
	p := &plan{w: w, tmpDir: o.tmpDir, budget: time.Duration(o.seconds * float64(time.Second))}
	if o.trace {
		p.seeds = campaignSeeds(o.seed, tracedSeeds)
		return p.traced()
	}
	p.seeds = campaignSeeds(o.seed, endToEndSeeds)
	return p.endToEnd()
}

// plan is one invocation's fixed inputs.
type plan struct {
	w      workload
	seeds  []int64
	tmpDir string
	budget time.Duration
}

// repeat runs pass at least once, and again while one more pass of the
// last one's length still fits the time budget.
func (p *plan) repeat(pass func() error) error {
	start := time.Now()
	for {
		t0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > p.budget {
			return nil
		}
	}
}

// checkReport applies the checks every campaign report must pass.
func checkReport(what string, r childResult) error {
	switch {
	case r.TestCases == 0:
		return fmt.Errorf("%s: no test cases ran", what)
	case r.FalsePositives != 0:
		return fmt.Errorf("%s: %d false positives", what, r.FalsePositives)
	case r.CheckpointWriteFailures != 0:
		return fmt.Errorf("%s: %d checkpoint writes failed", what, r.CheckpointWriteFailures)
	}
	return nil
}

// digests remembers each campaign seed's report digest, so every
// repetition of a seed must reproduce the first one byte for byte.
type digests map[int64]string

func (d digests) check(what string, seed int64, digest string) error {
	if digest == "" {
		return errors.New(what + ": empty report digest")
	}
	if prev, ok := d[seed]; ok && prev != digest {
		return fmt.Errorf("%s: seed %d report digest %s differs from an earlier repetition's %s",
			what, seed, digest, prev)
	}
	d[seed] = digest
	return nil
}

// endToEnd measures the end-to-end metrics with tracing off, each
// campaign in a fresh process. Every campaign seed runs once; then
// repetitions cycle through the seeds, from the first, while another one
// still fits the time budget. At least one seed always repeats, so the
// digest check has a pair.
func (p *plan) endToEnd() (*result, error) {
	reps := make([][]childResult, len(p.seeds))
	seen := digests{}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		seed := p.seeds[i%len(p.seeds)]
		r, err := spawn(p.job(seed, false, p.w.workers(), true))
		if err != nil {
			return nil, err
		}
		what := fmt.Sprintf("%s seed %d", p.w.name, seed)
		if err := checkReport(what, r); err != nil {
			return nil, err
		}
		if err := seen.check(what, seed, r.Digest); err != nil {
			return nil, err
		}
		reps[i%len(p.seeds)] = append(reps[i%len(p.seeds)], r)
		if i >= len(p.seeds) && time.Since(start)+time.Since(t0) > p.budget {
			break
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, rs := range reps {
		for _, r := range rs {
			res.Attempted += r.TestCases
			res.Failed += r.Failed
		}
	}
	vals := endToEndMetrics(reps)
	for _, m := range endToEndDefs {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// traced measures the per-layer metrics. Every pass runs, per campaign
// seed, the real campaign (untraced, as the reference for the driver's
// counts and for the tracing overhead) and the traced driver, each in a
// fresh process; the sharded workload adds a 1-worker run and a run
// without checkpoint. Timing metrics are medians over passes.
func (p *plan) traced() (*result, error) {
	var passes []map[string]float64
	seen := digests{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	err := p.repeat(func() error {
		var tp tracedPass
		for _, seed := range p.seeds {
			if err := p.tracedSeed(seed, seen, &tp); err != nil {
				return err
			}
		}
		res.Attempted += tp.ref.cases
		res.Failed += tp.failed
		passes = append(passes, tp.metrics(p.w))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, m := range perLayerDefs {
		vs := make([]float64, len(passes))
		for i, pm := range passes {
			vs[i] = pm[m.name]
		}
		res.Metrics[m.name] = metric{Value: median(vs), Unit: m.unit}
	}
	return res, nil
}

// tracedSeed runs one campaign seed's processes for a traced pass and
// cross-checks them.
func (p *plan) tracedSeed(seed int64, seen digests, tp *tracedPass) error {
	what := fmt.Sprintf("%s seed %d", p.w.name, seed)
	std, err := spawn(p.job(seed, false, p.w.workers(), true))
	if err != nil {
		return err
	}
	if err := checkReport(what, std); err != nil {
		return err
	}
	if err := seen.check(what, seed, std.Digest); err != nil {
		return err
	}
	tr, err := spawn(p.job(seed, true, 0, false))
	if err != nil {
		return err
	}
	if tr.TestCases != std.TestCases || tr.ValidCases != std.ValidCases || tr.Detected != std.Detected {
		return fmt.Errorf("%s: traced driver counted %d cases, %d valid, %d detected; the campaign %d, %d, %d",
			what, tr.TestCases, tr.ValidCases, tr.Detected, std.TestCases, std.ValidCases, std.Detected)
	}
	ref := std
	if p.w.sharded {
		// The determinism contract: the report does not depend on the
		// worker count or on checkpointing.
		serial, err := spawn(p.job(seed, false, 1, false))
		if err != nil {
			return err
		}
		noCkpt, err := spawn(p.job(seed, false, shardWorkers, false))
		if err != nil {
			return err
		}
		for _, r := range []childResult{serial, noCkpt} {
			if r.Digest != std.Digest {
				return fmt.Errorf("%s: report digest %s at %d worker(s) without checkpoint differs from %s at %d workers with checkpoint",
					what, r.Digest, r.Workers, std.Digest, std.Workers)
			}
		}
		tp.serial.add(serial)
		tp.noCkpt.add(noCkpt)
		// The driver replays shards one after another, like one worker.
		ref = serial
	}
	tp.ref.add(std)
	tp.traceWall += tr.WallS
	tp.refWall += ref.WallS
	tp.failed += std.Failed
	tp.layers.add(tr.Layers)
	return nil
}

// job describes one child process of this plan.
func (p *plan) job(seed int64, traced bool, workers int, checkpoint bool) job {
	return job{Workload: p.w.name, Seed: seed, Cases: p.w.cases, Traced: traced,
		Workers: workers, Checkpoint: checkpoint && p.w.sharded, TmpDir: p.tmpDir}
}
