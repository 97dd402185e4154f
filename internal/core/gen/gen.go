// Package gen implements SQLancer++'s adaptive statement generator
// (paper §4 and Appendix A).
//
// The generator produces SQL from a universal grammar of common features
// (6 statements, ~10 clauses, 58 functions, ~36 operators, 3 data types).
// Every grammar alternative is a *feature*; before generating one, the
// generator consults its Policy (paper Listing 4's shouldGenerate), and
// each generated statement carries the set of features used, which the
// campaign feeds back into the policy with the execution status.
//
// Three policies reproduce the paper's configurations:
//   - feedback.Tracker — the adaptive generator ("SQLancer++")
//   - AllowAll — no suppression ("SQLancer++ Rand")
//   - a dialect-truth policy (internal/baseline) — the hand-written
//     per-DBMS generator stand-in ("SQLancer")
package gen

import (
	"math/rand"
	"sort"

	"sqlancerpp/internal/core/schema"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// Policy decides whether a feature should still be generated.
type Policy interface {
	Supported(feature string) bool
}

// AllowAll is the no-feedback policy ("SQLancer++ Rand").
type AllowAll struct{}

// Supported always returns true.
func (AllowAll) Supported(string) bool { return true }

// Config parameterizes a Generator. Zero values select the paper's
// standard settings.
type Config struct {
	Seed   int64
	Policy Policy
	// MaxTables and MaxViews bound the database state (paper §5: up to
	// two tables and one view, the standard SQLancer settings).
	MaxTables int
	MaxViews  int
	// StartDepth..MaxDepth with DepthInterval implement the execution
	// strategy of Appendix A.3: expressions start shallow and deepen.
	StartDepth    int
	MaxDepth      int
	DepthInterval int
	// MismatchProb is the probability of deliberately generating an
	// argument or operand of a "wrong" data type, which is how the
	// generator learns the composite type features (SIN#1=INTEGER).
	MismatchProb float64
	// TypeCorrect forces type-correct generation (the hand-written
	// baseline generators know the dialect's typing discipline).
	TypeCorrect bool
	// RiskyProb is the probability of generating a failure-prone
	// construct (division by zero, math domain errors, strict casts).
	// The baseline generators set it high: the paper attributes
	// SQLancer's low validity on PostgreSQL to its complex
	// dialect-specific features.
	RiskyProb float64
	// ExtraFunctions extends the function pool beyond the universal
	// grammar (baseline generators know dialect-specific functions).
	ExtraFunctions []string
}

// Statement is one generated statement with its feature set.
type Statement struct {
	Stmt     sqlast.Stmt
	SQL      string
	Features []string
	IsQuery  bool
	// OnSuccess applies the statement's effect to the schema model; the
	// campaign calls it after the DBMS confirms execution (Figure 3).
	OnSuccess func()
}

// OracleCase is a generated test case for the logic-bug oracles: a base
// query without WHERE and a predicate to partition or filter by.
type OracleCase struct {
	Base     *sqlast.Select
	Pred     sqlast.Expr
	Features []string
}

// PlanSpaceCounters tallies generated shapes that widen the PlanDiff
// oracle's enumerable plan space: only probe-eligible shapes give the
// plan enumerator more than the trivial planner-on/off pair, so these
// counters are the generator-side coverage signal for the plan-control
// API (campaign experiments read them to confirm plan-space traffic).
type PlanSpaceCounters struct {
	// SargableHeads counts oracle predicates led by an index-shaped
	// sargable conjunction (per-relation force-scan/force-index plans).
	SargableHeads int
	// CompositeHeads counts sargable heads spanning >= 2 index key
	// columns — the composite-vs-leading PrefixWidth axis.
	CompositeHeads int
	// ProbeEligibleJoins counts ON conditions led by a probe-eligible
	// equality (the per-join probe-on/probe-off axis).
	ProbeEligibleJoins int
	// MultiKeyJoins counts ON conditions with a two-conjunct equality
	// prefix (composite join-probe keys).
	MultiKeyJoins int
}

// Generator produces random SQL statements adaptively.
type Generator struct {
	rnd       *rand.Rand
	cfg       Config
	model     *schema.Model
	generated int
	planSpace PlanSpaceCounters

	intFuncs  []string
	textFuncs []string
	anyFuncs  []string

	// choiceBuf is pickFeature's and pickChoice's reused filter buffer:
	// both run many times per generated statement and consume their
	// filtered list before returning.
	choiceBuf []string
}

// New creates a Generator.
func New(cfg Config) *Generator {
	if cfg.Policy == nil {
		cfg.Policy = AllowAll{}
	}
	if cfg.MaxTables == 0 {
		cfg.MaxTables = 2
	}
	if cfg.MaxViews == 0 {
		cfg.MaxViews = 1
	}
	if cfg.StartDepth == 0 {
		cfg.StartDepth = 1
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 3
	}
	if cfg.DepthInterval == 0 {
		cfg.DepthInterval = 2000
	}
	if cfg.MismatchProb == 0 {
		cfg.MismatchProb = 0.12
	}
	if cfg.TypeCorrect {
		cfg.MismatchProb = 0
	}
	if cfg.RiskyProb == 0 {
		cfg.RiskyProb = 0.1
	}
	g := &Generator{
		rnd:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg,
		model: schema.New(),
	}
	g.indexFunctions()
	return g
}

// indexFunctions buckets the function pool by result kind using the
// engine registry's signatures.
func (g *Generator) indexFunctions() {
	pool := append([]string{}, feature.Functions...)
	pool = append(pool, g.cfg.ExtraFunctions...)
	sort.Strings(pool)
	seen := map[string]bool{}
	for _, fn := range pool {
		if seen[fn] {
			continue
		}
		seen[fn] = true
		def := engine.LookupFunc(fn)
		if def == nil {
			continue
		}
		switch def.Result {
		case engine.KindInt:
			g.intFuncs = append(g.intFuncs, fn)
		case engine.KindText:
			g.textFuncs = append(g.textFuncs, fn)
		default: // result depends on first argument
			g.anyFuncs = append(g.anyFuncs, fn)
		}
	}
}

// Model exposes the internal schema model.
func (g *Generator) Model() *schema.Model { return g.model }

// PlanSpace returns the generator's plan-space coverage counters.
func (g *Generator) PlanSpace() PlanSpaceCounters { return g.planSpace }

// ResetModel clears the schema model (a fresh database state).
func (g *Generator) ResetModel() { g.model = schema.New() }

// depth returns the current expression depth of the ramp-up schedule.
func (g *Generator) depth() int {
	d := g.cfg.StartDepth + g.generated/g.cfg.DepthInterval
	if d > g.cfg.MaxDepth {
		d = g.cfg.MaxDepth
	}
	return d
}

// featSet accumulates the features of one statement.
type featSet map[string]bool

func (fs featSet) add(names ...string) {
	for _, n := range names {
		fs[n] = true
	}
}

func (fs featSet) list() []string {
	out := make([]string, 0, len(fs))
	for f := range fs {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// supported asks the policy (paper Listing 4: shouldGenerate).
func (g *Generator) supported(f string) bool { return g.cfg.Policy.Supported(f) }

// pickFeature selects uniformly among the supported alternatives
// (paper Figure 5 step 4: unsupported alternatives get zero probability,
// the rest are uniform). If everything is suppressed it falls back to
// the full list so generation can still make progress (and re-probe).
func (g *Generator) pickFeature(alts []string) string {
	ok := g.choiceBuf[:0]
	for _, a := range alts {
		if g.supported(a) {
			ok = append(ok, a)
		}
	}
	g.choiceBuf = ok
	if len(ok) == 0 {
		ok = alts
	}
	return ok[g.rnd.Intn(len(ok))]
}

// prob returns true with probability p.
func (g *Generator) prob(p float64) bool { return g.rnd.Float64() < p }

func (g *Generator) intn(n int) int { return g.rnd.Intn(n) }
