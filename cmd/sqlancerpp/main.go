// Command sqlancerpp runs a SQLancer++ testing campaign against one of
// the simulated DBMS dialects and prints the prioritized bug reports.
//
// Usage:
//
//	sqlancerpp -dbms cratedb [-cases 20000] [-oracle all|tlp-family|<names>]
//	           [-seed 1] [-no-feedback] [-baseline] [-reduce] [-plans 6]
//	           [-pairsched=false] [-state feedback.json] [-workers 8]
//	           [-batch 64] [-budget 100000] [-checkpoint run.ckpt]
//	           [-resume] [-timeout 2s] [-shard-retries 2] [-chaos spec]
//	           [-max-print 5] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	           [-list] [-list-oracles]
//
// -state names a feature-probability file: a missing file starts cold,
// any other read error or a failed write exits non-zero.
//
// -cpuprofile and -memprofile write pprof profiles of the campaign (CPU
// time while it runs, and the heap once it returns) for 'go tool pprof'.
//
// With -checkpoint, SIGINT/SIGTERM stops the campaign at the next shard
// boundary after saving progress; re-running with -resume continues it
// and produces a final report byte-identical to an uninterrupted run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"sqlancerpp"
)

func main() {
	dbms := flag.String("dbms", "", "dialect under test (see -list)")
	cases := flag.Int("cases", 10000, "number of oracle test cases")
	oracleName := flag.String("oracle", "all",
		"test oracles: all, tlp-family, or a comma-separated list of registered names (see -list-oracles)")
	seed := flag.Int64("seed", 1, "random seed")
	noFeedback := flag.Bool("no-feedback", false, "disable validity feedback (SQLancer++ Rand)")
	baselineMode := flag.Bool("baseline", false, "use the per-DBMS baseline generator (SQLancer)")
	reduceBugs := flag.Bool("reduce", true, "reduce prioritized logic and harness bugs")
	maxPlans := flag.Int("plans", 0,
		"cap enumerated plans per PlanDiff query (0 = oracle default, negative = unlimited)")
	pairSched := flag.Bool("pairsched", true,
		"rank plan specs whose (query shape, plan) pair is not yet diffed ahead of the canonical order (false = truncate canonical order)")
	statePath := flag.String("state", "", "load/persist learned feature probabilities (JSON)")
	workers := flag.Int("workers", 0, "run the campaign as deterministic parallel shards over N workers (0 = serial)")
	batch := flag.Int("batch", 0,
		"columnar batch width for the engine's scan filter (0 = engine default, negative = row-at-a-time)")
	budget := flag.Int64("budget", 0,
		"deterministic per-statement rows-touched budget (0 = unlimited); exceeded statements are skipped, counted, never reported as bugs")
	checkpoint := flag.String("checkpoint", "",
		"persist campaign progress to this file after every completed shard (SIGINT/SIGTERM saves and exits cleanly)")
	resume := flag.Bool("resume", false, "continue an interrupted campaign from -checkpoint")
	caseTimeout := flag.Duration("timeout", 0,
		"per-case wall-clock watchdog; cases exceeding it are canceled and reported as hangs with their seed (0 = disabled)")
	shardRetries := flag.Int("shard-retries", 0,
		"retries before a failing shard is quarantined and the campaign completes degraded (0 = default 2, negative = no retries)")
	chaosSpec := flag.String("chaos", "",
		"inject deterministic harness faults, e.g. 'ckpt-write=~8;shard-error=1x2' (testing the harness itself; see internal/chaos)")
	list := flag.Bool("list", false, "list registered dialects and exit")
	listOracles := flag.Bool("list-oracles", false, "list registered oracles and exit")
	maxPrint := flag.Int("max-print", 5, "bug reports to print in full")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken when the campaign returns, to this file")
	flag.Parse()

	if *list {
		for _, d := range sqlancerpp.Dialects() {
			fmt.Println(d)
		}
		return
	}
	if *listOracles {
		for _, o := range sqlancerpp.Oracles() {
			fmt.Println(o)
		}
		return
	}
	if *dbms == "" {
		fmt.Fprintln(os.Stderr, "sqlancerpp: -dbms is required (use -list to see options)")
		os.Exit(2)
	}

	opts := sqlancerpp.Options{
		DBMS:            *dbms,
		Oracle:          *oracleName,
		TestCases:       *cases,
		Seed:            *seed,
		NoFeedback:      *noFeedback,
		Baseline:        *baselineMode,
		Reduce:          *reduceBugs,
		MaxPlans:        *maxPlans,
		NoPlanPairSched: !*pairSched,
		Workers:         *workers,
		RowBudget:       *budget,
		BatchSize:       *batch,
		Checkpoint:      *checkpoint,
		Resume:          *resume,
		CaseTimeout:     *caseTimeout,
		ShardRetries:    *shardRetries,
		Chaos:           *chaosSpec,
	}
	if *statePath != "" {
		data, err := os.ReadFile(*statePath)
		switch {
		case err == nil:
			opts.FeedbackState = data
		case !errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(os.Stderr, "sqlancerpp: reading state: %v\n", err)
			os.Exit(1)
		}
	}
	if *checkpoint != "" {
		// SIGINT/SIGTERM closes the interrupt channel; the campaign stops
		// at the next shard boundary with the completed shards up to the
		// first one that did not run already checkpointed, and the
		// process exits cleanly.
		interrupt := make(chan struct{})
		opts.Interrupt = interrupt
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		//lint:allow containment body is a blocking receive plus close and cannot panic; a recover boundary could swallow the close and hang shutdown
		go func() {
			<-sigs
			signal.Stop(sigs)
			close(interrupt)
		}()
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlancerpp: %v\n", err)
		os.Exit(1)
	}
	report, err := sqlancerpp.Run(opts)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintf(os.Stderr, "sqlancerpp: %v\n", perr)
		os.Exit(1)
	}
	if errors.Is(err, sqlancerpp.ErrInterrupted) {
		fmt.Fprintf(os.Stderr, "sqlancerpp: interrupted; progress saved to %s (continue with -resume)\n", *checkpoint)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlancerpp: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("== %s (%s) ==\n", report.DBMS, report.Mode)
	fmt.Printf("test cases: %d  valid: %d (%.1f%%)\n",
		report.TestCases, report.ValidCases, 100*report.ValidityRate)
	fmt.Printf("bug-inducing cases: %d  prioritized: %d  unique bugs (ground truth): %d\n",
		report.Detected, report.Prioritized, report.UniqueBugs)
	var quarantined strings.Builder
	for _, q := range report.QuarantinedShards {
		fmt.Fprintf(&quarantined, "   shard %d (seed %d, %d cases): %s\n", q.Shard, q.Seed, q.TestCases, q.Err)
	}
	for _, c := range []struct {
		n            int
		line, detail string
	}{
		{n: report.FalsePositives, line: "WARNING: %d false positives — engine defect!\n"},
		{n: report.HarnessCrashes, line: "harness crashes contained: %d (panics recovered, engine restarted)\n"},
		{n: report.BudgetExceeded, line: "statements over the -budget row limit: %d (skipped deterministically)\n"},
		{n: report.Hangs, line: "hangs: %d cases exceeded the -timeout watchdog (reported as hang-class bugs)\n"},
		{n: report.ShardRetries, line: "shard attempts retried: %d\n"},
		{n: report.ShardsQuarantined, line: "WARNING: %d shards quarantined; results are degraded\n", detail: quarantined.String()},
		{n: report.CheckpointWriteFailures, line: "WARNING: %d checkpoint writes failed (campaign continued; -resume may lose progress)\n"},
	} {
		if c.n > 0 {
			fmt.Printf(c.line, c.n)
			fmt.Print(c.detail)
		}
	}
	if report.PlanPairsNovel+report.PlanPairsRepeated > 0 {
		fmt.Printf("plan pairs diffed: %d novel, %d repeated\n",
			report.PlanPairsNovel, report.PlanPairsRepeated)
	}
	if len(report.UnsupportedFeatures) > 0 {
		fmt.Printf("learned unsupported features: %s\n",
			strings.Join(report.UnsupportedFeatures, ", "))
	}
	for i, b := range report.Bugs {
		if i >= *maxPrint {
			fmt.Printf("... and %d more prioritized reports\n", len(report.Bugs)-i)
			break
		}
		fmt.Printf("\n-- bug #%d [%s/%s] %s\n", b.ID, b.Class, b.Oracle, b.Detail)
		if b.PlanSpec != "" {
			fmt.Printf("   losing plan: %s\n", b.PlanSpec)
		}
		fmt.Printf("   ground truth: %s\n", strings.Join(b.GroundTruthFaults, ", "))
		stmts := b.Reduced
		if len(stmts) == 0 {
			stmts = append(append([]string{}, b.Setup...), b.Queries...)
		}
		for _, s := range stmts {
			fmt.Printf("   %s;\n", s)
		}
	}

	if *statePath != "" && report.FeedbackState != nil {
		if err := os.WriteFile(*statePath, report.FeedbackState, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sqlancerpp: persisting state: %v\n", err)
			os.Exit(1)
		}
	}
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that stops it and writes a heap profile to memPath. An empty path skips
// that profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		runtime.GC() // up-to-date live-heap statistics
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}
