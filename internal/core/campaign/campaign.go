// Package campaign orchestrates a SQLancer++ testing run (paper Figure
// 2): the adaptive statement generator builds a database state while
// maintaining the schema model, issues oracle-checked queries, feeds
// execution statuses back into the Bayesian tracker, prioritizes
// bug-inducing cases by feature-set subsumption, and — in one pass over
// the finished report's bugs — reduces the prioritized ones.
package campaign

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/core/prioritize"
	"sqlancerpp/internal/core/reduce"
	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/par"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// Mode selects the generator policy, matching the paper's configurations.
type Mode int

// Modes.
const (
	// Adaptive is SQLancer++ with validity feedback enabled.
	Adaptive Mode = iota
	// Rand is SQLancer++ without feedback ("SQLancer++ Rand").
	Rand
	// Baseline is the hand-written per-DBMS generator stand-in
	// ("SQLancer"): it knows the dialect's exact feature matrix.
	Baseline
)

// String returns the paper's label for the mode.
func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "SQLancer++"
	case Rand:
		return "SQLancer++ Rand"
	default:
		return "SQLancer"
	}
}

// Config parameterizes a campaign run.
type Config struct {
	Dialect *dialect.Dialect
	Mode    Mode
	// Policy overrides the mode's default policy (used by the baseline
	// package and by tests).
	Policy gen.Policy
	// ExtraFunctions extends the generator grammar (baseline mode).
	ExtraFunctions []string
	// TypeCorrect forces type-correct generation (baseline mode on
	// statically typed dialects).
	TypeCorrect bool
	// RiskyProb forwards to the generator (baseline mode sets it high).
	RiskyProb float64

	// TestCases is the number of oracle checks to run (the time-budget
	// stand-in; the paper uses wall-clock hours).
	TestCases int
	// SetupStmts is the number of DDL/DML statements per database state.
	SetupStmts int
	// CasesPerDB re-creates the database state every N test cases.
	CasesPerDB int
	// SmokeEvery issues one free-form (non-oracle) query every N cases,
	// exercising the full clause grammar.
	SmokeEvery int

	Seed int64
	// Oracles selects oracles by registry name; empty runs every
	// registered oracle (TLP, TLPComposed, TLPAggregate, NoREC,
	// PlanDiff). Dispatch rotates deterministically over the selection,
	// weighted by each oracle's registered rotation weight.
	Oracles []oracle.Name

	// Threshold, Confidence, UpdateInterval, DDLMaxFailures configure the
	// Bayesian tracker (zero selects the paper defaults).
	Threshold      float64
	Confidence     float64
	UpdateInterval int
	DDLMaxFailures int

	// Depth schedule overrides (zero selects 1→3, the paper's setting).
	StartDepth    int
	MaxDepth      int
	DepthInterval int

	// MaxPlansPerQuery caps the plan specs the PlanDiff oracle diffs per
	// query (the -plans flag): 0 selects oracle.DefaultMaxPlans, negative
	// is unlimited. With the plan-pair scheduler on (the default), the
	// cap buys unseen (shape, spec) pairs first; Report.PlanPairsNovel /
	// PlanPairsRepeated show the split.
	MaxPlansPerQuery int
	// NoPlanPairSched disables the plan-pair novelty scheduler: PlanDiff
	// falls back to truncating the canonical enumeration order, with no
	// pair tracking or enumeration memo. The zero value keeps the
	// scheduler on.
	NoPlanPairSched bool

	// ReduceBugs runs the reducer on prioritized logic and harness bugs.
	ReduceBugs bool
	// RowBudget caps the rows any single statement may touch (scans, join
	// probes, DML collection) before the engine aborts it with
	// ErrBudgetExceeded. The budget is counted in rows, not wall-clock
	// time, so budget-exceeded cases skip identically at any worker count;
	// they are tallied in Report.BudgetExceeded and never reported as
	// bugs. 0 disables the budget.
	RowBudget int64
	// BatchSize is read by nothing.
	//
	// Deprecated: the engine filters row at a time and has no batch
	// width. The field exists only so the frozen benchmark harness
	// (perfbench/workload.go) builds, and goes when perfbench/driver.go
	// does.
	BatchSize int
	// PerfCostLimit flags queries whose executor cost exceeds the limit
	// as performance bugs (0 disables).
	PerfCostLimit int64
	// CaseTimeout bounds each contained execution unit's wall-clock time
	// (the -timeout flag): a watchdog timer armed per oracle case (and
	// per setup/smoke statement) sets a cooperative cancel flag that the
	// engine polls at its zero-alloc row-budget sites, failing the case
	// with ErrTimeout. Timed-out cases are tallied in Report.Hangs and
	// recorded as ClassHang bugs with their seed for offline replay; they
	// are never logic bugs and never false positives. 0 disables the
	// watchdog. Unlike RowBudget this is wall-clock and therefore
	// host-dependent; it is excluded from the checkpoint fingerprint.
	CaseTimeout time.Duration
	// Chaos, when set, injects *infrastructure* faults (checkpoint
	// write/corruption failures, shard errors and panics, case stalls) to
	// exercise the supervisor's recovery paths — see internal/chaos. It
	// is entirely separate from the dialect's DBMS logic-fault catalog:
	// chaos faults must be survived, never reported as bugs. nil (the
	// default) injects nothing; excluded from the checkpoint fingerprint
	// so a chaos-free resume can recover a chaos-interrupted run.
	Chaos *chaos.Injector

	// Coverage, when set, records engine coverage.
	Coverage *coverage.Recorder
	// KeepAllCases retains every detected case (features + ground truth
	// only) in Report.AllCases — used by the prioritizer ablation.
	KeepAllCases bool
	// FeedbackState, when set, seeds the tracker (paper Figure 5: the
	// learned probabilities can be persisted and reloaded).
	FeedbackState []byte
	// PlanPairState, when set, seeds the plan-pair tracker with a prior
	// run's Report.PlanPairState — the resume path that keeps a restarted
	// campaign from re-diffing pairs it already covered.
	PlanPairState []byte
}

// BugClass labels a bug-inducing case.
type BugClass string

// Bug classes (paper §6).
const (
	ClassLogic BugClass = "logic"
	ClassCrash BugClass = "crash"
	ClassError BugClass = "error"
	ClassPerf  BugClass = "perf"
	// ClassHarness marks a Go panic recovered at the campaign's
	// containment boundary: the engine (or an oracle) panicked instead of
	// returning an error. The report carries the statement trace and a
	// sanitized stack; the poisoned instance is restarted and the
	// campaign continues.
	ClassHarness BugClass = "harness"
	// ClassHang marks a case aborted by the per-case wall-clock watchdog
	// (Config.CaseTimeout): execution exceeded its time bound and was
	// cooperatively canceled. The report carries the case's seed and
	// ordinal so the hang can be replayed offline without a timeout.
	// Hangs carry no ground-truth fault by construction and are exempt
	// from false-positive accounting.
	ClassHang BugClass = "hang"
)

// BugCase is one bug-inducing test case.
type BugCase struct {
	ID     int
	Class  BugClass
	Oracle oracle.Name
	// Seq is the originating test case's ordinal within the runner that
	// detected it (logic, hang and harness bugs): oracles that derive
	// internal choices from the ordinal (TLPAggregate) are replayed with
	// it during reduction. In a sharded campaign's merged report it stays
	// shard-local, unlike ID.
	Seq      int
	Setup    []string // DDL/DML statements that built the database state
	Queries  []string // the oracle's queries (or the failing statement)
	Features []string
	Detail   string
	// PlanSpec is the serialized losing plan spec of a PlanDiff bug (the
	// enumerated plan whose result diverged from the baseline); the
	// reducer replays the case against exactly this plan pair.
	PlanSpec string
	// Triggered is ground truth: the injected fault IDs that fired.
	Triggered []string
	// Duplicate marks cases the prioritizer deprioritized.
	Duplicate bool
	// Reduced holds the reduced statement sequence of a prioritized logic
	// or harness bug, when reduction is enabled.
	Reduced []string
	// Carrier is the pending reduction input of a prioritized logic or
	// harness bug, when reduction is enabled: the statement that follows
	// Setup in the sequence the reducer shrinks — the case's base query
	// with the predicate as WHERE for a logic bug, the triggering
	// statement for a harness bug. The reduce pass (reduceBugs) sets
	// Reduced from it and clears it, so only shard reports and
	// checkpoints carry it.
	Carrier string `json:",omitempty"`
}

// Counters are a campaign's additive tallies: every field sums across
// shards, so Add is their whole merge. Report and the public
// sqlancerpp.Report embed this one declaration.
type Counters struct {
	// Validity statistics (paper Table 4): a test case is valid when all
	// its oracle queries executed.
	TestCases  int
	ValidCases int
	// Setup statement statistics.
	SetupTotal int
	SetupOK    int

	// Detected counts all bug-inducing test cases.
	Detected int
	// FalsePositives counts bug reports with no ground-truth fault — any
	// non-zero value indicates a defect in this engine, not a found bug.
	FalsePositives int

	// PlanPairsNovel and PlanPairsRepeated count the plan specs PlanDiff
	// executed whose (query shape, spec) pair its tracker had not / had
	// already diffed; the ratio is the scheduler's effectiveness
	// ("observations per unit of budget").
	PlanPairsNovel    int
	PlanPairsRepeated int

	// HarnessCrashes counts Go panics recovered at the containment
	// boundary and converted into ClassHarness bug cases.
	HarnessCrashes int
	// BudgetExceeded counts statements aborted by the deterministic
	// rows-touched budget (Config.RowBudget). Budget-exceeded cases are
	// skipped — no validity feedback, never a bug report.
	BudgetExceeded int

	// The robustness counters below are zero on fault-free runs and
	// tagged omitempty, so a chaos-free report's JSON stays byte-identical
	// to reports from builds that predate them.

	// Hangs counts cases aborted by the per-case wall-clock watchdog
	// (Config.CaseTimeout); each also appears as a ClassHang bug case.
	Hangs int `json:",omitempty"`
	// ShardRetries counts shard attempts that failed and were retried by
	// the supervisor.
	ShardRetries int `json:",omitempty"`
	// CheckpointWriteFailures counts checkpoint saves that failed and
	// were degraded to a warning (the campaign keeps running, and the
	// next save appends what the failed one could not; a crash before
	// then loses those shards' progress).
	CheckpointWriteFailures int `json:",omitempty"`
}

// Add sums o into c.
func (c *Counters) Add(o Counters) {
	c.TestCases += o.TestCases
	c.ValidCases += o.ValidCases
	c.SetupTotal += o.SetupTotal
	c.SetupOK += o.SetupOK
	c.Detected += o.Detected
	c.FalsePositives += o.FalsePositives
	c.PlanPairsNovel += o.PlanPairsNovel
	c.PlanPairsRepeated += o.PlanPairsRepeated
	c.HarnessCrashes += o.HarnessCrashes
	c.BudgetExceeded += o.BudgetExceeded
	c.Hangs += o.Hangs
	c.ShardRetries += o.ShardRetries
	c.CheckpointWriteFailures += o.CheckpointWriteFailures
}

// Report summarizes a campaign. Its Counters sum across shards; the
// fields below them are recomputed by the shard merge.
type Report struct {
	Dialect string
	Mode    string

	Counters

	// Prioritized counts the cases the prioritizer reported;
	// UniqueGroundTruth the distinct injected faults among the detected
	// cases (the paper's "unique bugs", determined there by fix commits).
	Prioritized        int
	UniqueGroundTruth  int
	UniquePrioritized  int
	DetectedByClass    map[BugClass]int
	PrioritizedByClass map[BugClass]int

	// ShardsQuarantined counts shards whose every attempt failed; the
	// campaign completed degraded without their results. QuarantinedShards
	// records their seed ranges for offline replay. Zero on fault-free
	// runs, like the robustness counters.
	ShardsQuarantined int                `json:",omitempty"`
	QuarantinedShards []QuarantinedShard `json:",omitempty"`

	// Quarantined marks a per-shard placeholder report: the shard's
	// supervisor exhausted its retries and this report carries no results,
	// only ShardRetries and QuarantineErr. Merged reports never set it;
	// they count such placeholders in ShardsQuarantined instead.
	Quarantined   bool   `json:",omitempty"`
	QuarantineErr string `json:",omitempty"`

	// Bugs holds the prioritized cases (duplicates are counted, not kept).
	Bugs []*BugCase
	// AllCases holds every detected case when Config.KeepAllCases is set.
	AllCases []*BugCase

	// FeedbackState is the tracker's final state for persistence.
	FeedbackState []byte
	// PlanPairState is the plan-pair tracker's final state (nil with the
	// scheduler disabled). It rides shard checkpoints losslessly and
	// merges by union, so resumed and sharded campaigns schedule — and
	// count — identically to uninterrupted serial ones.
	PlanPairState []byte
	// tracker and pairs are the trackers behind FeedbackState and
	// PlanPairState; their JSON is written where the state leaves the
	// process (saveState), and a shard hands them to the merge as they are.
	tracker *feedback.Tracker
	pairs   *feedback.PairTracker
	// Unsupported lists the features learned to be unsupported.
	Unsupported []string
	// GroundTruthFaults lists the distinct injected fault IDs among all
	// detected cases, sorted (len == UniqueGroundTruth). Shard merging
	// unions these sets.
	GroundTruthFaults []string
}

// QuarantinedShard records one quarantined shard's seed range so the
// lost work can be replayed offline (the shard's derived seed plus its
// test-case count fully determine what it would have run).
type QuarantinedShard struct {
	Shard     int
	Seed      int64
	TestCases int
	Err       string
}

// ValidityRate returns valid/total test cases.
func (r *Report) ValidityRate() float64 {
	if r.TestCases == 0 {
		return 0
	}
	return float64(r.ValidCases) / float64(r.TestCases)
}

// Runner executes a campaign.
type Runner struct {
	cfg     Config
	tracker *feedback.Tracker
	g       *gen.Generator
	pri     *prioritize.Prioritizer
	report  *Report
	// sched is one cycle of the deterministic weighted oracle rotation;
	// test case n dispatches to sched[(n-1) % len(sched)].
	sched []oracle.Oracle

	// pairs and planMemo are the plan-pair novelty scheduler's state:
	// pairs persists across database epochs (shapes recur across states),
	// planMemo is reset with each epoch (it caches against the catalog).
	// Both nil with Config.NoPlanPairSched.
	pairs    *feedback.PairTracker
	planMemo *oracle.PlanEnumMemo

	// parse is the runner's own statement cache, shared by its engine
	// instances and by no other runner.
	parse *sqlparse.Cache

	// cancel is the per-case watchdog's cooperative cancellation flag,
	// shared with the main engine instance via WithCancel. nil when
	// Config.CaseTimeout is unset; replay instances never get it.
	cancel *atomic.Bool

	db    *engine.DB
	setup []*gen.Statement // successfully executed setup statements
	bugID int
	// allFaults accumulates every ground-truth fault triggered by a
	// detected bug case (unique-bug accounting).
	allFaults map[string]bool
}

// parseCacheSize bounds each runner's statement cache, and the reduce
// pass's. Campaign reuse is short-range: oracle variants re-run the
// case's base query, and the reducer replays shrinking copies of one
// setup-plus-carrier sequence.
// Hit rates by size, seeds 1-4 x 3000 cases of each perfbench workload
// (bughunt-sharded counts its shards' caches and its 2-worker reduce
// pass's together):
//
//	entries per cache      16     64    256   1024  unbounded  one shared 4096
//	oracle-loop          1.5%   4.1%   7.1%   9.4%     11.7%       11.4%
//	plan-diff           50.2%  50.3%  50.6%  51.1%     51.3%       51.3%
//	bughunt-sharded     58.1%  66.1%  67.1%  67.2%     67.2%       69.5%
//
// A bughunt shard never holds more than 452 distinct statements, nor its
// reduce pass more than 859, and oracle-loop's lost hits cost 0.12 extra
// parses per case. At ~1.5 KB an entry, 256 entries keep under 0.4 MB of
// ASTs live per cache, where the shared cache kept ~6 MB per process
// behind one lock.
const parseCacheSize = 256

// withDefaults resolves the zero-value configuration knobs. RunShardedOpts
// applies it before partitioning so the shard layout is a function of the
// resolved configuration only.
func (cfg Config) withDefaults() Config {
	if cfg.TestCases == 0 {
		cfg.TestCases = 1000
	}
	if cfg.SetupStmts == 0 {
		cfg.SetupStmts = 14
	}
	if cfg.CasesPerDB == 0 {
		cfg.CasesPerDB = 200
	}
	if cfg.SmokeEvery == 0 {
		cfg.SmokeEvery = 5
	}
	if len(cfg.Oracles) == 0 {
		cfg.Oracles = oracle.DefaultNames()
	}
	if cfg.Threshold == 0 {
		// The paper's p = 1% needs ~300 zero-success observations per
		// feature — proportionate to its 100K-statement update windows.
		// Scaled-down budgets use 5% so the posterior concludes after
		// ~60 observations; see EXPERIMENTS.md.
		cfg.Threshold = 0.05
	}
	return cfg
}

// newTracker builds the Bayesian tracker for a resolved configuration
// (shared by New and the shard merger).
func newTracker(cfg Config) *feedback.Tracker {
	var topts []feedback.Option
	if cfg.Threshold > 0 {
		topts = append(topts, feedback.WithThreshold(cfg.Threshold))
	}
	if cfg.Confidence > 0 {
		topts = append(topts, feedback.WithConfidence(cfg.Confidence))
	}
	if cfg.UpdateInterval > 0 {
		topts = append(topts, feedback.WithUpdateInterval(cfg.UpdateInterval))
	}
	if cfg.DDLMaxFailures > 0 {
		topts = append(topts, feedback.WithDDLMaxFailures(cfg.DDLMaxFailures))
	}
	if cfg.Mode != Adaptive {
		topts = append(topts, feedback.Disabled())
	}
	return feedback.New(topts...)
}

// warmStart is a configuration's prior state decoded: the trackers
// behind Config.FeedbackState and Config.PlanPairState, nil where the
// configuration has none. A sharded campaign decodes it once and starts
// every shard from a copy; nothing modifies it.
type warmStart struct {
	tracker *feedback.Tracker
	pairs   *feedback.PairTracker
}

// decodeWarmStart decodes cfg's prior state. The plan-pair state is
// read only when plan-pair scheduling is on.
func decodeWarmStart(cfg Config) (warmStart, error) {
	var w warmStart
	if cfg.FeedbackState != nil {
		w.tracker = feedback.New()
		if err := w.tracker.Load(cfg.FeedbackState); err != nil {
			return warmStart{}, fmt.Errorf("campaign: loading feedback state: %w", err)
		}
	}
	if cfg.PlanPairState != nil && !cfg.NoPlanPairSched {
		w.pairs = feedback.NewPairTracker()
		if err := w.pairs.LoadState(cfg.PlanPairState); err != nil {
			return warmStart{}, fmt.Errorf("campaign: loading plan-pair state: %w", err)
		}
	}
	return w, nil
}

// New prepares a campaign runner.
func New(cfg Config) (*Runner, error) {
	if cfg.Dialect == nil {
		return nil, fmt.Errorf("campaign: no dialect configured")
	}
	warm, err := decodeWarmStart(cfg)
	if err != nil {
		return nil, err
	}
	return newRunner(cfg, warm)
}

// newRunner prepares a runner for cfg, whose prior state warm holds
// decoded. The runner's trackers start as copies of warm's.
func newRunner(cfg Config, warm warmStart) (*Runner, error) {
	cfg = cfg.withDefaults()

	tracker := newTracker(cfg)
	if warm.tracker != nil {
		tracker.Merge(warm.tracker)
	}

	policy := cfg.Policy
	if policy == nil {
		switch cfg.Mode {
		case Adaptive:
			policy = tracker
		default:
			policy = gen.AllowAll{}
		}
	}

	selected, err := oracle.Select(cfg.Oracles)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	var pairs *feedback.PairTracker
	var planMemo *oracle.PlanEnumMemo
	if !cfg.NoPlanPairSched {
		pairs = feedback.NewPairTracker()
		if warm.pairs != nil {
			pairs.Merge(warm.pairs)
		}
		planMemo = oracle.NewPlanEnumMemo()
	}

	g := gen.New(gen.Config{
		Seed:           cfg.Seed,
		Policy:         policy,
		StartDepth:     cfg.StartDepth,
		MaxDepth:       cfg.MaxDepth,
		DepthInterval:  cfg.DepthInterval,
		ExtraFunctions: cfg.ExtraFunctions,
		TypeCorrect:    cfg.TypeCorrect,
		RiskyProb:      cfg.RiskyProb,
	})

	var cancel *atomic.Bool
	if cfg.CaseTimeout > 0 {
		cancel = new(atomic.Bool)
	}

	return &Runner{
		sched:    oracle.Schedule(selected),
		cfg:      cfg,
		tracker:  tracker,
		g:        g,
		pri:      prioritize.New(),
		pairs:    pairs,
		planMemo: planMemo,
		parse:    sqlparse.NewCache(parseCacheSize),
		cancel:   cancel,
		report: &Report{
			Dialect:            cfg.Dialect.Name,
			Mode:               cfg.Mode.String(),
			DetectedByClass:    map[BugClass]int{},
			PrioritizedByClass: map[BugClass]int{},
		},
	}, nil
}

// Run executes the campaign, reduces its prioritized bugs, and returns
// its report with its trackers' state. A state that fails to serialize,
// or a reduction that cannot parse its bug's statements or that panics
// outside the reducer's own recovery boundaries, fails Run.
func (r *Runner) Run() (*Report, error) {
	rep := r.run()
	if err := rep.saveState(); err != nil {
		return nil, err
	}
	if err := reduceBugs(r.cfg, rep.Bugs, 1, sqlparse.NewCache(parseCacheSize)); err != nil {
		return nil, err
	}
	return rep, nil
}

// run executes the campaign without the reduce pass: prioritized bugs
// keep their pending Carrier. Shards run this; the merge reduces.
func (r *Runner) run() *Report {
	casesInDB := r.cfg.CasesPerDB // force a fresh DB on the first case
	for i := 0; i < r.cfg.TestCases; i++ {
		if casesInDB >= r.cfg.CasesPerDB {
			r.newDatabase()
			casesInDB = 0
		}
		if r.cfg.SmokeEvery > 0 && i%r.cfg.SmokeEvery == 0 {
			r.runSmokeQuery()
		}
		r.runOracleCase()
		casesInDB++
	}
	r.finishReport()
	return r.report
}

// replayOpts assembles the engine options reduction replays run with:
// the execution budget and the given statement cache but not coverage,
// so reducer replays skip the same statements the campaign skipped
// without polluting coverage counts.
func replayOpts(cfg Config, cache *sqlparse.Cache) []engine.Option {
	opts := []engine.Option{engine.WithParseCache(cache)}
	if cfg.RowBudget > 0 {
		opts = append(opts, engine.WithRowBudget(cfg.RowBudget))
	}
	return opts
}

// engineOpts assembles the engine options for the campaign's main
// instances: the replay set plus coverage recording and the watchdog's
// cancel flag. Replay instances deliberately get neither — reduction
// must shrink against deterministic failures only.
func (r *Runner) engineOpts() []engine.Option {
	opts := replayOpts(r.cfg, r.parse)
	if r.cfg.Coverage != nil {
		opts = append(opts, engine.WithCoverage(r.cfg.Coverage))
	}
	if r.cancel != nil {
		opts = append(opts, engine.WithCancel(r.cancel))
	}
	return opts
}

// armWatchdog starts the per-case wall-clock watchdog: after
// Config.CaseTimeout the timer sets the shared cancel flag and the
// engine fails the running statement with ErrTimeout at its next
// per-row checkpoint. Returns nil (nothing to disarm) when no timeout
// is configured.
func (r *Runner) armWatchdog() *time.Timer {
	if r.cancel == nil {
		return nil
	}
	c := r.cancel
	// The canonical sanctioned wall-clock site: timed-out cases are
	// reported as hangs (never logic bugs, exempt from false-positive
	// accounting) and replays never arm the watchdog, so the clock cannot
	// leak into a deterministic report.
	//lint:allow nondeterminism watchdog timer is hang-detection infrastructure; ErrTimeout never feeds reports or validity
	return time.AfterFunc(r.cfg.CaseTimeout, func() { c.Store(true) })
}

// disarmWatchdog stops the case's timer and clears the cancel flag so
// the next case starts with a clean slate. It runs before the panic
// containment handler (deferred after it, LIFO), so even a recovered
// crash's reduction replays never observe a set flag.
func (r *Runner) disarmWatchdog(t *time.Timer) {
	if t == nil {
		return
	}
	t.Stop()
	r.cancel.Store(false)
}

// stallUntilCanceled simulates a hung case (the chaos case-stall site):
// it burns wall-clock until the watchdog fires, making timeout tests
// deterministic — the stall cannot outlive the timer.
func (r *Runner) stallUntilCanceled() {
	for !r.cancel.Load() {
		time.Sleep(50 * time.Microsecond)
	}
}

// newDatabase opens a fresh DBMS instance and generates a database state
// (Figure 2 step 1), keeping the learned feedback across states.
func (r *Runner) newDatabase() {
	r.db = engine.Open(r.cfg.Dialect, r.engineOpts()...)
	if r.planMemo != nil {
		// The memo caches enumerations against the old instance's catalog;
		// the pair tracker survives (shapes recur across states).
		r.planMemo.Reset()
	}
	r.g.ResetModel()
	r.setup = nil
	for i := 0; i < r.cfg.SetupStmts; i++ {
		st := r.g.GenSetup()
		r.execSetup(st)
	}
	// Guarantee at least one table with rows so oracle cases exist.
	if r.g.Model().NumTables() == 0 {
		for i := 0; i < 10 && r.g.Model().NumTables() == 0; i++ {
			st := r.g.GenSetup()
			r.execSetup(st)
		}
	}
}

// execSetup runs one setup statement, records feedback, updates the
// model on success, and issues the dialect's REFRESH adapter statement
// after inserts (paper §6, "Manual effort": ~16 LOC per DBMS).
func (r *Runner) execSetup(st *gen.Statement) {
	err, crashed := r.execContained(st)
	if crashed {
		return
	}
	r.report.SetupTotal++
	if engine.IsBudgetExceeded(err) {
		// The statement was aborted by the deterministic execution
		// budget, not rejected by the dialect: skip it without teaching
		// the tracker anything.
		r.report.BudgetExceeded++
		return
	}
	if engine.IsTimeout(err) {
		r.recordHang("", []string{st.SQL}, &st.FeatureSet)
		return
	}
	ok := err == nil
	if ok {
		r.report.SetupOK++
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
		r.setup = append(r.setup, st)
	}
	// The paper's simple consecutive-failure rule applies to the DDL/DML
	// *statement* features; expression features inside DML statements are
	// judged by the Bayesian query model, so that, say, a streak of
	// failing UPDATEs cannot condemn AND or CASE.
	ddlFeats, exprFeats := splitSetupFeatures(&st.FeatureSet)
	r.tracker.RecordDDLSet(&ddlFeats, ok)
	if !exprFeats.Empty() {
		r.tracker.RecordQuerySet(&exprFeats, ok)
	}
	r.handleExecError(st, err)

	if ok {
		if ins, isInsert := st.Stmt.(*sqlast.Insert); isInsert && r.cfg.Dialect.RequiresRefresh {
			ref := r.g.GenRefresh(ins.Table)
			if rerr, rcrashed := r.execContained(ref); !rcrashed && rerr == nil {
				r.setup = append(r.setup, ref)
			}
		}
	}
}

// execContained runs one generated statement under the harness recovery
// boundary: a panic in the engine is converted into a ClassHarness bug
// and the poisoned instance restarted, instead of killing the campaign.
// The statement's text runs with its generated tree seeded as the parse
// (engine.DB.SeedParse), so the engine does not parse it back.
func (r *Runner) execContained(st *gen.Statement) (err error, crashed bool) {
	defer r.containStmt(st, &crashed)
	wd := r.armWatchdog()
	defer r.disarmWatchdog(wd)
	r.db.SeedParse(st.SQL, st.Stmt)
	return r.db.Exec(st.SQL), false
}

// containStmt is the deferred recovery boundary for a single generated
// statement.
func (r *Runner) containStmt(st *gen.Statement, crashed *bool) {
	if p := recover(); p != nil {
		*crashed = true
		r.recordHarnessCrash(p, "", st.Stmt, &st.FeatureSet)
	}
}

// runSmokeQuery issues one free-form query for feedback and coverage —
// every third one a compound (set-operation) query.
func (r *Runner) runSmokeQuery() {
	st := r.g.GenQuery()
	if r.report.TestCases%3 == 0 {
		if cq := r.g.GenCompoundQuery(); cq != nil {
			st = cq
		}
	}
	err, crashed := r.execContained(st)
	if crashed {
		return
	}
	if engine.IsBudgetExceeded(err) {
		r.report.BudgetExceeded++
		return
	}
	if engine.IsTimeout(err) {
		r.recordHang("", []string{st.SQL}, &st.FeatureSet)
		return
	}
	r.tracker.RecordQuerySet(&st.FeatureSet, err == nil)
	if err == nil {
		r.checkPerf("", []string{st.SQL}, r.db.TriggeredFaults(), r.db.LastCost(), &st.FeatureSet)
		return
	}
	r.handleExecError(st, err)
}

// checkPerf is the performance watchdog: with Config.PerfCostLimit set,
// a query that ran but cost the executor more than the limit is a
// ClassPerf bug. Oracle checks and smoke queries both go through it.
func (r *Runner) checkPerf(o oracle.Name, queries, triggered []string, cost int64, feats *feature.Set) {
	if r.cfg.PerfCostLimit <= 0 || cost <= r.cfg.PerfCostLimit {
		return
	}
	r.recordBug(&BugCase{
		Class:     ClassPerf,
		Oracle:    o,
		Queries:   queries,
		Triggered: triggered,
		Detail:    fmt.Sprintf("executor cost %d exceeds limit %d", cost, r.cfg.PerfCostLimit),
	}, feats, nil)
}

// runOracleCase runs one oracle check (Figure 2 steps 2–5), dispatching
// through the deterministic weighted rotation over the selected oracle
// registrations.
func (r *Runner) runOracleCase() {
	oc := r.g.GenOracleCase()
	r.report.TestCases++
	if oc == nil {
		return
	}
	c := &oracle.Case{Base: oc.Base, Pred: oc.Pred, Seq: r.report.TestCases,
		MaxPlans: r.cfg.MaxPlansPerQuery, Pairs: pairsOrNil(r.pairs), Enum: r.planMemo}
	res, crashed := r.checkContained(r.pickOracle(c), c, oc)
	if crashed {
		return
	}
	r.report.PlanPairsNovel += res.PairsNovel
	r.report.PlanPairsRepeated += res.PairsRepeated

	switch res.Outcome {
	case oracle.OK:
		r.report.ValidCases++
		r.tracker.RecordQuerySet(&oc.FeatureSet, true)
		r.checkPerf(res.Oracle, res.Queries, res.Triggered, res.MaxCost, &oc.FeatureSet)
	case oracle.Invalid:
		if engine.IsBudgetExceeded(res.Err) {
			r.report.BudgetExceeded++
			return
		}
		if engine.IsTimeout(res.Err) {
			// The watchdog canceled the case: report the hang, but teach
			// the tracker nothing — a timeout says the case was slow on
			// this host, not that its features are unsupported.
			r.recordHang(res.Oracle, res.Queries, &oc.FeatureSet)
			return
		}
		r.tracker.RecordQuerySet(&oc.FeatureSet, false)
		if res.Err != nil {
			if engine.IsCrash(res.Err) {
				r.recordErrorBug(ClassCrash, res, &oc.FeatureSet)
				r.db.Restart()
			} else if engine.IsInternal(res.Err) {
				r.recordErrorBug(ClassError, res, &oc.FeatureSet)
			}
		}
	case oracle.Bug:
		r.report.ValidCases++
		r.tracker.RecordQuerySet(&oc.FeatureSet, true)
		r.recordBug(&BugCase{
			Class:     ClassLogic,
			Oracle:    res.Oracle,
			Seq:       c.Seq,
			Queries:   res.Queries,
			Triggered: res.Triggered,
			Detail:    res.Detail,
			PlanSpec:  res.PlanSpec,
		}, &oc.FeatureSet, carrierOf(oc))
	}
}

// carrierOf returns the query a logic bug is reduced through: the case's
// base query with the predicate as WHERE. It shares the case's subtrees,
// so it is only rendered, never changed.
func carrierOf(oc *gen.OracleCase) *sqlast.Select {
	carrier := *oc.Base
	carrier.Where = oc.Pred
	return &carrier
}

// pickOracle returns the test case's oracle: the rotation slot, or —
// when that oracle is inapplicable here (e.g. PlanDiff with index paths
// suppressed) — the next applicable one in rotation order.
func (r *Runner) pickOracle(c *oracle.Case) oracle.Oracle {
	n := len(r.sched)
	start := (r.report.TestCases - 1) % n
	for i := 0; i < n; i++ {
		if o := r.sched[(start+i)%n]; o.Applicable(r.db, c) {
			return o
		}
	}
	return r.sched[start]
}

// checkContained runs one oracle check under the harness recovery
// boundary. On panic the recovered crash is attributed to the oracle and
// the case's carrier query (base plus predicate), mirroring what the
// oracle was executing when the engine went down.
func (r *Runner) checkContained(orc oracle.Oracle, c *oracle.Case, oc *gen.OracleCase) (res oracle.Result, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			crashed = true
			r.recordHarnessCrash(p, orc.Name(), carrierOf(oc), &oc.FeatureSet)
		}
	}()
	wd := r.armWatchdog()
	defer r.disarmWatchdog(wd)
	// The chaos stall site hangs this case until the watchdog cancels it
	// — the deterministic stand-in for a genuinely wedged execution. It
	// is a no-op unless a watchdog is armed: a stall with no timeout
	// would hang the campaign, which is the failure mode under test, not
	// a test of it.
	if r.cancel != nil && r.cfg.Chaos.StallCase(c.Seq) {
		r.stallUntilCanceled()
	}
	return orc.Check(r.db, c), false
}

// recordHang converts a watchdog cancellation into a ClassHang bug case
// carrying the case's seed and ordinal — everything needed to replay the
// hang offline without a timeout. Hangs have no ground-truth fault by
// construction (wall-clock is not in the fault catalog), so recordBug
// exempts them from false-positive accounting.
func (r *Runner) recordHang(orc oracle.Name, queries []string, feats *feature.Set) {
	r.report.Hangs++
	r.recordBug(&BugCase{
		Class:   ClassHang,
		Oracle:  orc,
		Seq:     r.report.TestCases,
		Queries: queries,
		Detail: fmt.Sprintf("case exceeded wall-clock timeout %s (seed %d, case %d)",
			r.cfg.CaseTimeout, r.cfg.Seed, r.report.TestCases),
	}, feats, nil)
}

// recordHarnessCrash converts a recovered panic into a ClassHarness bug
// report carrying the triggering statement and a sanitized stack, then
// restarts the poisoned instance so the campaign continues. Ground truth
// still attributes: the panic fault sites trigger before panicking, so
// TriggeredFaults reflects the injected fault even though the statement
// never completed.
func (r *Runner) recordHarnessCrash(p any, orc oracle.Name, trigger sqlast.Stmt, feats *feature.Set) {
	r.report.HarnessCrashes++
	r.recordBug(&BugCase{
		Class:     ClassHarness,
		Oracle:    orc,
		Seq:       r.report.TestCases,
		Queries:   []string{trigger.SQL()},
		Triggered: r.db.TriggeredFaults(),
		Detail:    fmt.Sprintf("harness panic: %v\n%s", p, sanitizeStack(debug.Stack())),
	}, feats, trigger)
	r.db.Restart()
}

// handleExecError turns crashes and internal errors of non-oracle
// statements into bug cases.
func (r *Runner) handleExecError(st *gen.Statement, err error) {
	if err == nil {
		return
	}
	if engine.IsCrash(err) {
		r.recordBug(&BugCase{
			Class:     ClassCrash,
			Queries:   []string{st.SQL},
			Triggered: r.db.TriggeredFaults(),
			Detail:    err.Error(),
		}, &st.FeatureSet, nil)
		r.db.Restart()
		return
	}
	if engine.IsInternal(err) {
		r.recordBug(&BugCase{
			Class:     ClassError,
			Queries:   []string{st.SQL},
			Triggered: r.db.TriggeredFaults(),
			Detail:    err.Error(),
		}, &st.FeatureSet, nil)
	}
}

func (r *Runner) recordErrorBug(class BugClass, res oracle.Result, feats *feature.Set) {
	r.recordBug(&BugCase{
		Class:     class,
		Oracle:    res.Oracle,
		Queries:   res.Queries,
		Triggered: res.Triggered,
		Detail:    fmt.Sprint(res.Err),
	}, feats, nil)
}

// recordBug names the case's features feats, runs the prioritizer and
// stores prioritized cases. When reduction is enabled, a prioritized bug
// with a carrier (logic and harness bugs) keeps its rendering as the
// pending reduction input.
func (r *Runner) recordBug(bug *BugCase, feats *feature.Set, carrier sqlast.Stmt) {
	r.bugID++
	bug.ID = r.bugID
	bug.Features = feats.Names()
	r.report.Detected++
	r.report.DetectedByClass[bug.Class]++
	// Hangs are exempt: a wall-clock timeout never has a ground-truth
	// fault, and counting it as a false positive would make the
	// "FalsePositives == 0" invariant unsatisfiable under a watchdog.
	if len(bug.Triggered) == 0 && bug.Class != ClassHang {
		r.report.FalsePositives++
	}
	r.noteFaults(bug.Triggered)
	if r.cfg.KeepAllCases {
		r.report.AllCases = append(r.report.AllCases, &BugCase{
			ID: bug.ID, Class: bug.Class, Features: bug.Features,
			Triggered: bug.Triggered,
		})
	}

	if core := prioritizerFeatures(feats); !r.pri.ReportSet(&core) {
		bug.Duplicate = true
		return
	}
	r.report.Prioritized++
	r.report.PrioritizedByClass[bug.Class]++
	for _, s := range r.setup {
		bug.Setup = append(bug.Setup, s.SQL)
	}
	if r.cfg.ReduceBugs && carrier != nil {
		bug.Carrier = carrier.SQL()
	}
	r.report.Bugs = append(r.report.Bugs, bug)
}

// reduceBugs is the campaign's reduce pass (Figure 2's last step): it
// reduces every bug that carries a pending Carrier, at most workers at a
// time, sets its Reduced and clears the Carrier. Each reduction is a
// pure function of its BugCase and cfg, so the pass's result depends on
// neither workers nor the order in which bugs are reduced. Parses and
// replays go through cache, which the pass owns.
func reduceBugs(cfg Config, bugs []*BugCase, workers int, cache *sqlparse.Cache) error {
	var pending []*BugCase
	for _, b := range bugs {
		if b.Carrier != "" {
			pending = append(pending, b)
		}
	}
	opts := replayOpts(cfg, cache)
	return par.ForEach(len(pending), workers, func(i int) error {
		bug := pending[i]
		stmts := make([]sqlast.Stmt, 0, len(bug.Setup)+1)
		for _, sql := range append(slices.Clip(bug.Setup), bug.Carrier) {
			st, err := cache.Parse(sql)
			if err != nil {
				return fmt.Errorf("campaign: reducing bug %d: %w", bug.ID, err)
			}
			stmts = append(stmts, st)
		}
		switch bug.Class {
		case ClassLogic:
			bug.Reduced = reduceLogicBug(cfg, opts, bug, stmts)
		case ClassHarness:
			bug.Reduced = reduceHarnessBug(cfg, opts, bug, stmts)
		}
		bug.Carrier = ""
		return nil
	})
}

// replayHook, when non-nil, is called each time a reduction property
// replays a candidate on the engine (a replay memo miss), with the bug
// under reduction and the candidate's memo key. openHook is called each
// time the reduce pass opens an engine instance for a bug, and
// checkHook each time a logic bug's property runs its oracle check,
// with the carrier text checked and whether the carrier was cloned for
// it. All three are nil outside tests.
var (
	replayHook func(bug *BugCase, key string)
	openHook   func(bug *BugCase)
	checkHook  func(bug *BugCase, carrier string, cloned bool)
)

// replayDB opens the engine instance the reduce pass replays bug's
// candidates on; each property call Resets it first.
func replayDB(cfg Config, opts []engine.Option, bug *BugCase) *engine.DB {
	if openHook != nil {
		openHook(bug)
	}
	return engine.Open(cfg.Dialect, opts...)
}

// memoReplays wraps a reduction property of bug in a per-bug memo keyed
// by the candidate's texts: a candidate whose texts the reducer has
// already tested gets the recorded verdict, and any other is replayed
// from those texts by prop. The verdict is a pure function of the texts:
// every replay starts on an instance Reset to the state Open leaves,
// and the texts are what it runs.
func memoReplays(bug *BugCase, prop reduce.TextProperty) reduce.TextProperty {
	verdicts := map[string]bool{}
	var key []byte
	return func(cand []sqlast.Stmt, texts []string) bool {
		key = key[:0]
		for _, sql := range texts {
			// Each text after its length, so no two sequences share a key.
			key = strconv.AppendInt(key, int64(len(sql)), 10)
			key = append(append(key, ':'), sql...)
		}
		if v, ok := verdicts[string(key)]; ok {
			return v
		}
		if replayHook != nil {
			replayHook(bug, string(key))
		}
		v := prop(cand, texts)
		verdicts[string(key)] = v
		return v
	}
}

// reduceLogicBug shrinks the setup-plus-carrier sequence stmts while the
// *same* oracle — looked up by the bug's attributed registry name —
// keeps failing, replaying on one instance opened with opts and Reset
// before each replay. The query under reduction is carried as a SELECT
// statement holding the predicate in WHERE; the property re-splits it.
func reduceLogicBug(cfg Config, opts []engine.Option, bug *BugCase, stmts []sqlast.Stmt) []string {
	orc, ok := oracle.Get(bug.Oracle)
	if !ok {
		return nil
	}
	db := replayDB(cfg, opts, bug)
	// The check runs on a clone of the carrier split into base and
	// predicate, not on the carrier: the oracles seed the reduce pass's
	// statement cache with trees built from it, and the reducer later
	// mutates the carrier in place, which must not reach a cached tree.
	// The oracles never mutate Base or Pred, so a clone stays the tree
	// of its text, and a candidate whose carrier text equals the last
	// clone's reuses it.
	var base *sqlast.Select
	var pred sqlast.Expr
	var baseText string
	prop := memoReplays(bug, func(cand []sqlast.Stmt, texts []string) bool {
		if len(cand) == 0 {
			return false
		}
		carrier, ok := cand[len(cand)-1].(*sqlast.Select)
		if !ok || carrier.Where == nil {
			return false
		}
		db.Reset()
		replayStmts(db, texts[:len(texts)-1])
		text := texts[len(texts)-1]
		cloned := base == nil || text != baseText
		if cloned {
			base, baseText = sqlast.CloneSelect(carrier), text
			pred, base.Where = base.Where, nil
		}
		if checkHook != nil {
			checkHook(bug, text, cloned)
		}
		// The bug's recorded losing plan spec rides along verbatim, so a
		// PlanDiff replay re-executes the exact plan pair that diverged
		// instead of re-enumerating a (possibly different) plan space for
		// the shrunken statement.
		res, panicked := checkNoPanic(orc, db, &oracle.Case{Base: base, Pred: pred, Seq: bug.Seq,
			MaxPlans: cfg.MaxPlansPerQuery, PlanSpec: bug.PlanSpec})
		// A shrunken candidate that panics the engine does not exhibit
		// the logic bug under reduction.
		return !panicked && res.Outcome == oracle.Bug
	})
	return reduceWith(stmts, prop)
}

// reduceWith reduces stmts under prop and returns the reduced texts, or
// nil when stmts does not satisfy prop (the bug does not reproduce from
// a pristine state).
func reduceWith(stmts []sqlast.Stmt, prop reduce.TextProperty) []string {
	texts := make([]string, len(stmts))
	for i, st := range stmts {
		texts[i] = st.SQL()
	}
	if !prop(stmts, texts) {
		return nil
	}
	_, reduced := reduce.ReduceTexts(stmts, prop)
	return reduced
}

// checkNoPanic runs an oracle check on a replay instance under a
// recovery boundary, reporting panics instead of propagating them into
// the reducer.
func checkNoPanic(orc oracle.Oracle, db *engine.DB, c *oracle.Case) (res oracle.Result, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return orc.Check(db, c), false
}

// reduceHarnessBug shrinks the setup-plus-trigger sequence stmts to the
// smallest one whose replay still panics the engine, replaying on one
// instance opened with opts (the same dialect faults and execution
// budget) and Reset before each replay. The property recovers per
// statement, so each shrink step stays inside the containment boundary.
func reduceHarnessBug(cfg Config, opts []engine.Option, bug *BugCase, stmts []sqlast.Stmt) []string {
	db := replayDB(cfg, opts, bug)
	return reduceWith(stmts, memoReplays(bug, func(_ []sqlast.Stmt, texts []string) bool {
		db.Reset()
		for _, sql := range texts {
			if execPanics(db, sql) {
				return true
			}
		}
		return false
	}))
}

// execPanics executes one statement under a recovery boundary,
// restarting on simulated crashes as the campaign loop does, and reports
// whether the statement panicked the engine.
func execPanics(db *engine.DB, sql string) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if err := db.Exec(sql); err != nil && engine.IsCrash(err) {
		db.Restart()
	}
	return false
}

// replayStmts replays setup statements on a pristine instance. Ordinary
// failures are fine during replay, but a simulated crash latches the
// engine's crashed flag and would fail every subsequent statement —
// poisoning the rest of the sequence and blocking reduction — so the
// replay restarts the server exactly as the campaign loop does. A panic
// during replay is contained the same way: the instance restarts and the
// replay moves on.
func replayStmts(db *engine.DB, stmts []string) {
	for _, sql := range stmts {
		if execPanics(db, sql) {
			db.Restart()
		}
	}
}

// sanitizeStack reduces a debug.Stack dump to a deterministic trace: the
// frames between the panic site and the campaign's recovery boundary,
// with the goroutine header, argument values, code offsets, and runtime
// internals stripped. Scheduling-dependent content (goroutine IDs, heap
// addresses, worker-pool frames below the boundary) never appears, so
// harness-crash reports stay byte-identical across worker counts.
func sanitizeStack(stack []byte) string {
	var out []string
	seenPanic := false
	for _, line := range strings.Split(string(stack), "\n") {
		if line == "" || line[0] == '\t' || strings.HasPrefix(line, "goroutine ") {
			continue // source locations and the goroutine header
		}
		fn := line
		if j := strings.LastIndexByte(fn, '('); j >= 0 {
			fn = fn[:j] // drop argument values
		}
		if !seenPanic {
			seenPanic = fn == "panic"
			continue // recovery machinery above the panic frame
		}
		if strings.HasPrefix(fn, "runtime.") {
			continue
		}
		if strings.Contains(fn, "campaign.(*Runner)") {
			break // everything below the boundary is scheduling-dependent
		}
		out = append(out, fn)
	}
	return strings.Join(out, "\n")
}

// finishReport hands the report the runner's trackers and computes the
// ground-truth uniqueness statistics.
func (r *Runner) finishReport() {
	r.report.tracker, r.report.pairs = r.tracker, r.pairs
	r.report.Unsupported = r.tracker.Unsupported()

	// UniquePrioritized counts distinct injected faults among the
	// prioritized cases; UniqueGroundTruth among all detected ones is
	// tracked incrementally via allFaults.
	pri := map[string]bool{}
	for _, b := range r.report.Bugs {
		for _, id := range b.Triggered {
			pri[id] = true
		}
	}
	r.report.UniquePrioritized = len(pri)
	r.report.UniqueGroundTruth = len(r.allFaults)
	r.report.GroundTruthFaults = sortedKeys(r.allFaults)
}

// saveState writes the report's trackers as FeedbackState and
// PlanPairState, for where the state leaves the process.
func (rep *Report) saveState() (err error) {
	if rep.tracker != nil {
		rep.FeedbackState, err = rep.tracker.Save()
	}
	if rep.pairs != nil && err == nil {
		rep.PlanPairState, err = rep.pairs.SaveState()
	}
	return err
}

// loadState decodes a restored report's FeedbackState and PlanPairState
// into its trackers.
func (rep *Report) loadState() (err error) {
	if rep.FeedbackState != nil {
		rep.tracker = feedback.New()
		err = rep.tracker.Load(rep.FeedbackState)
	}
	if rep.PlanPairState != nil && err == nil {
		rep.pairs = feedback.NewPairTracker()
		err = rep.pairs.LoadState(rep.PlanPairState)
	}
	return err
}

// pairsOrNil converts the runner's tracker pointer to the oracle-facing
// interface without the typed-nil pitfall: a nil *PairTracker must reach
// the oracle as a nil interface, not a non-nil interface wrapping nil.
func pairsOrNil(p *feedback.PairTracker) oracle.PlanPairs {
	if p == nil {
		return nil
	}
	return p
}

// sortedKeys returns the keys of a string set, sorted.
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// noteFaults records triggered ground-truth faults for unique-bug
// accounting.
func (r *Runner) noteFaults(ids []string) {
	if r.allFaults == nil {
		r.allFaults = map[string]bool{}
	}
	for _, id := range ids {
		r.allFaults[id] = true
	}
}
