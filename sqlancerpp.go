// Package sqlancerpp is a Go implementation of SQLancer++ — the
// automated DBMS-testing platform of "Scaling Automated Database System
// Testing" (ASPLOS 2026) — together with the full substrate it needs to
// run self-contained: an in-memory SQL engine configurable with 19 DBMS
// dialect profiles and a ground-truth fault-injection catalogue.
//
// The platform finds logic bugs with the TLP and NoREC metamorphic test
// oracles, driven by an adaptive statement generator that learns, via
// Bayesian inference over execution feedback, which SQL features the
// system under test supports. Bug-inducing cases are prioritized by
// feature-set subsumption and automatically reduced.
//
// Quick start:
//
//	report, err := sqlancerpp.Run(sqlancerpp.Options{
//		DBMS:      "cratedb",
//		TestCases: 20000,
//	})
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package sqlancerpp

import (
	"fmt"
	"time"

	"sqlancerpp/internal/baseline"
	"sqlancerpp/internal/chaos"
	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/feature"
)

// Options configures a testing campaign.
type Options struct {
	// DBMS names the dialect under test (see Dialects).
	DBMS string
	// Oracle selects the test oracles: "" (or "both"/"all") for every
	// registered oracle — TLP, TLPComposed, TLPAggregate, NoREC, and
	// PlanDiff — "tlp-family" for the TLP variants, or a comma-separated
	// list of registry names (e.g. "tlp,plandiff"); registered names
	// resolve to themselves, so "tlp" is classic TLP alone and "norec"
	// is NoREC.
	Oracle string
	// TestCases is the number of oracle checks (default 1000).
	TestCases int
	// Seed makes the campaign deterministic.
	Seed int64
	// NoFeedback disables the adaptive validity feedback
	// ("SQLancer++ Rand" in the paper).
	NoFeedback bool
	// Baseline uses the hand-written per-DBMS generator stand-in
	// ("SQLancer" in the paper) instead of the adaptive generator.
	Baseline bool
	// Reduce runs the test-case reducer on prioritized logic and harness
	// bugs.
	Reduce bool
	// MaxPlans caps the equivalent plans the PlanDiff oracle diffs per
	// query (the -plans flag): 0 selects the oracle default, negative is
	// unlimited. With the plan-pair scheduler on (the default), the cap
	// buys unseen (query shape, plan spec) pairs first; see
	// Report.PlanPairsNovel / PlanPairsRepeated.
	MaxPlans int
	// NoPlanPairSched disables the plan-pair novelty scheduler (the
	// -pairsched=false flag): PlanDiff truncates the canonical plan
	// enumeration order instead of ranking unseen pairs first.
	NoPlanPairSched bool
	// PlanPairState seeds the plan-pair tracker with a previous run's
	// Report.PlanPairState, so a warm-started campaign skips pairs it
	// already diffed.
	PlanPairState []byte
	// Threshold is the Bayesian minimum success probability p
	// (default 0.05 for scaled runs; the paper uses 0.01).
	Threshold float64
	// FeedbackState seeds the generator with previously learned feature
	// probabilities (Report.FeedbackState of an earlier run).
	FeedbackState []byte
	// CleanEngine disables fault injection — useful for soundness checks;
	// a campaign on a clean engine must report zero bugs.
	CleanEngine bool
	// Workers > 0 runs the campaign as deterministic parallel shards
	// (one shard per database epoch, up to Workers executing
	// concurrently): the same seed produces a byte-identical report for
	// every Workers value, including 1. 0 keeps the serial runner, whose
	// validity feedback flows across database epochs. See DESIGN.md.
	Workers int
	// RowBudget caps the rows any single statement may touch before the
	// engine aborts it deterministically; budget-exceeded cases are
	// skipped identically at every worker count and tallied in
	// Report.BudgetExceeded, never reported as bugs. 0 disables.
	RowBudget int64
	// BatchSize sets the engine's columnar batch width (the -batch flag):
	// 0 selects the engine default, negative selects the row-at-a-time
	// reference executor. Reports are byte-identical at every width.
	BatchSize int
	// Checkpoint, when set, persists campaign progress to this file after
	// every completed shard (implies the sharded runner, with at least
	// one worker) and removes it when the campaign completes.
	Checkpoint string
	// Resume continues an interrupted campaign from Checkpoint; the final
	// report is byte-identical to an uninterrupted run. The shards of the
	// checkpoint's longest intact prefix are kept and a torn tail is
	// re-run; a missing checkpoint file, or one whose header is
	// unreadable, starts the run fresh. Resume without Checkpoint is an
	// error.
	Resume bool
	// Interrupt, when closed, stops a sharded campaign at the next shard
	// boundary: Run returns ErrInterrupted after checkpointing the
	// completed shards up to the first one that did not run.
	Interrupt <-chan struct{}
	// CaseTimeout bounds each test case's wall-clock time (the -timeout
	// flag): a watchdog cancels cases that exceed it, reporting them as
	// "hang"-class bugs with their seed (Report.Hangs). 0 disables.
	CaseTimeout time.Duration
	// ShardRetries is how many times the supervisor re-runs a failing
	// shard before quarantining it and completing the campaign degraded
	// (the -shard-retries flag): 0 selects the default (2), negative
	// disables retries. Quarantined seed ranges are reported for offline
	// replay; fault-free runs are unaffected.
	ShardRetries int
	// Chaos injects deterministic infrastructure faults (the -chaos
	// flag; see internal/chaos for the spec grammar) — a test harness
	// for the harness itself. Off by default; campaign findings are
	// unaffected by injection, only the robustness counters move.
	Chaos string
}

// ErrInterrupted is returned by Run when the Interrupt channel closes
// before the campaign finishes. Progress up to the last completed shard
// is in the checkpoint file.
var ErrInterrupted = campaign.ErrInterrupted

// Bug is one prioritized bug-inducing test case.
type Bug struct {
	ID      int
	Class   string // "logic", "crash", "error", "perf", or "harness"
	Oracle  string // "TLP", "TLPComposed", "TLPAggregate", "NoREC" or "PlanDiff" (empty for non-oracle bugs)
	Setup   []string
	Queries []string
	Reduced []string // reduced statement sequence, when reduction ran
	Detail  string
	// PlanSpec is the serialized losing plan of a PlanDiff bug (the
	// enumerated plan whose result diverged from the baseline plan).
	PlanSpec string
	// Features is the SQL feature set the prioritizer used.
	Features []string
	// GroundTruthFaults lists the injected fault IDs the case triggered
	// (empty only if the engine itself misbehaved).
	GroundTruthFaults []string
}

// Counters are a campaign's additive tallies: test cases and valid
// cases (paper Table 4), setup statements, detected bug-inducing cases,
// false positives (any non-zero value indicates a defect in this
// library), PlanDiff's novel and repeated plan pairs, recovered harness
// crashes, statements over Options.RowBudget, Options.CaseTimeout hangs,
// shard retries, and failed checkpoint writes.
type Counters = campaign.Counters

// QuarantinedShard identifies one abandoned shard's seed range — enough
// to replay its share of the campaign offline.
type QuarantinedShard = campaign.QuarantinedShard

// Report summarizes a campaign.
type Report struct {
	DBMS string
	Mode string

	Counters

	Prioritized  int // cases the prioritizer reported
	UniqueBugs   int // distinct ground-truth faults among detected cases
	ValidityRate float64

	Bugs []Bug

	// FeedbackState holds the learned feature probabilities for reuse.
	FeedbackState []byte
	// UnsupportedFeatures lists features learned to be unsupported.
	UnsupportedFeatures []string
	// PlanPairState holds the plan-pair tracker's final state for reuse
	// via Options.PlanPairState (nil with the scheduler disabled).
	PlanPairState []byte
	// ShardsQuarantined counts shards abandoned after exhausting their
	// retries (the campaign completed degraded). QuarantinedShards holds
	// each abandoned shard's replay recipe.
	ShardsQuarantined int
	QuarantinedShards []QuarantinedShard
}

// Run executes a testing campaign against a registered dialect.
func Run(o Options) (*Report, error) {
	if o.Resume && o.Checkpoint == "" {
		return nil, fmt.Errorf("sqlancerpp: Resume needs a Checkpoint to resume from")
	}
	d, err := dialect.Get(o.DBMS)
	if err != nil {
		return nil, err
	}
	if o.CleanEngine {
		d = d.Clone()
		d.Faults = nil
	}
	names, err := oracle.ParseNames(o.Oracle)
	if err != nil {
		return nil, fmt.Errorf("sqlancerpp: %w", err)
	}
	inj, err := chaos.Parse(o.Chaos, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("sqlancerpp: %w", err)
	}
	cfg := campaign.Config{
		Dialect:          d,
		Oracles:          names,
		TestCases:        o.TestCases,
		Seed:             o.Seed,
		Threshold:        o.Threshold,
		ReduceBugs:       o.Reduce,
		MaxPlansPerQuery: o.MaxPlans,
		NoPlanPairSched:  o.NoPlanPairSched,
		RowBudget:        o.RowBudget,
		BatchSize:        o.BatchSize,
		FeedbackState:    o.FeedbackState,
		PlanPairState:    o.PlanPairState,
		CaseTimeout:      o.CaseTimeout,
		Chaos:            inj,
	}
	switch {
	case o.Baseline:
		cfg = baseline.Configure(cfg, d)
	case o.NoFeedback:
		cfg.Mode = campaign.Rand
	default:
		cfg.Mode = campaign.Adaptive
	}
	var rep *campaign.Report
	if o.Workers > 0 || o.Checkpoint != "" {
		// Checkpointing works at shard granularity, so it implies the
		// sharded runner even when Workers was left zero.
		rep, err = campaign.RunShardedOpts(cfg, campaign.ShardedOptions{
			Workers:         o.Workers,
			CheckpointPath:  o.Checkpoint,
			Resume:          o.Resume,
			Interrupt:       o.Interrupt,
			MaxShardRetries: o.ShardRetries,
		})
		if err != nil {
			return nil, err
		}
	} else {
		runner, err := campaign.New(cfg)
		if err != nil {
			return nil, err
		}
		rep, err = runner.Run()
		if err != nil {
			return nil, err
		}
	}
	out := &Report{
		DBMS:                rep.Dialect,
		Mode:                rep.Mode,
		Counters:            rep.Counters,
		Prioritized:         rep.Prioritized,
		UniqueBugs:          rep.UniqueGroundTruth,
		ValidityRate:        rep.ValidityRate(),
		FeedbackState:       rep.FeedbackState,
		UnsupportedFeatures: rep.Unsupported,
		PlanPairState:       rep.PlanPairState,
		ShardsQuarantined:   rep.ShardsQuarantined,
		QuarantinedShards:   rep.QuarantinedShards,
	}
	for _, b := range rep.Bugs {
		out.Bugs = append(out.Bugs, Bug{
			ID:                b.ID,
			Class:             string(b.Class),
			Oracle:            string(b.Oracle),
			Setup:             b.Setup,
			Queries:           b.Queries,
			Reduced:           b.Reduced,
			Detail:            b.Detail,
			PlanSpec:          b.PlanSpec,
			Features:          b.Features,
			GroundTruthFaults: b.Triggered,
		})
	}
	return out, nil
}

// Dialects returns the registered dialect names.
func Dialects() []string { return dialect.Names() }

// Oracles returns the registered oracle names in rotation-registry
// order (valid values for Options.Oracle, comma-separable).
func Oracles() []string {
	names := oracle.DefaultNames()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}

// PaperDBMSs returns the 18 systems of the paper's Table 2.
func PaperDBMSs() []string {
	return append([]string(nil), dialect.PaperDBMSs...)
}

// DB is a handle to one simulated DBMS instance, for direct SQL use.
type DB struct {
	s *engine.DB
}

// Open creates an empty database with the named dialect's behavior,
// including its injected faults (pass clean=true for a pristine system).
func Open(dbms string, clean bool) (*DB, error) {
	d, err := dialect.Get(dbms)
	if err != nil {
		return nil, err
	}
	var opts []engine.Option
	if clean {
		opts = append(opts, engine.WithoutFaults())
	}
	return &DB{s: engine.Open(d, opts...)}, nil
}

// Exec runs a statement, discarding rows.
func (db *DB) Exec(sql string) error { return db.s.Exec(sql) }

// Query runs a statement and returns column names plus rendered rows.
func (db *DB) Query(sql string) (cols []string, rows [][]string, err error) {
	res, err := db.s.Query(sql)
	if err != nil {
		return nil, nil, err
	}
	rows = make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.Render()
		}
		rows[i] = row
	}
	return res.Columns, rows, nil
}

// TriggeredFaults reports the ground-truth fault IDs the last statement
// fired (evaluation use only).
func (db *DB) TriggeredFaults() []string { return db.s.TriggeredFaults() }

// DialectSpec describes a custom dialect derived from a base profile —
// the paper's core use case: a DBMS team (e.g. Vitess) pointing the
// platform at their own system with a few lines of configuration.
type DialectSpec struct {
	Name string
	// Base names the profile to derive from (e.g. "postgresql",
	// "sqlite", "mysql").
	Base string
	// RemoveFeatures / AddFeatures adjust the feature matrices; names are
	// statement keywords, clause keywords, operator spellings, function
	// names, or data types.
	RemoveFeatures []string
	AddFeatures    []string
	// RequiresRefresh marks CrateDB-style visibility semantics.
	RequiresRefresh bool
}

// RegisterDialect derives and registers a custom dialect.
func RegisterDialect(spec DialectSpec) error {
	base, err := dialect.Get(spec.Base)
	if err != nil {
		return err
	}
	d := base.Clone()
	d.Name = spec.Name
	d.DisplayName = spec.Name
	d.RequiresRefresh = spec.RequiresRefresh
	d.Faults = faults.NewSet(faults.ForDialect(spec.Name))
	for _, f := range spec.RemoveFeatures {
		delete(d.Statements, f)
		delete(d.Clauses, f)
		delete(d.Operators, f)
		delete(d.Functions, f)
		delete(d.Types, f)
	}
	for _, f := range spec.AddFeatures {
		switch {
		case engine.LookupFunc(f) != nil:
			d.Functions[f] = true
		case isStatementFeature(f):
			d.Statements[f] = true
		case f == feature.TypeInteger || f == feature.TypeText || f == feature.TypeBoolean:
			d.Types[f] = true
		default:
			// Clause keywords and operator spellings share a namespace;
			// set both, as lookups are per-map.
			d.Clauses[f] = true
			d.Operators[f] = true
		}
	}
	return dialect.Register(d)
}

func isStatementFeature(f string) bool {
	for _, s := range feature.Statements {
		if s == f {
			return true
		}
	}
	return f == feature.StmtDropTable || f == feature.StmtDropView ||
		f == feature.StmtDropIndex || f == feature.StmtReindex
}
