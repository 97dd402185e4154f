package engine

import (
	"sort"
	"sqlancerpp/internal/feature"
	"sync/atomic"

	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// Result is a query result: column names and a row multiset in
// deterministic execution order.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// AppendRow appends the canonical textual form of row i to buf, so a
// caller can render rows into one buffer.
func (r *Result) AppendRow(buf []byte, i int) []byte {
	return appendRow(buf, r.Rows[i])
}

// DB is one simulated DBMS instance: a dialect configuration, a catalog,
// and (optionally) injected faults and coverage instrumentation.
//
// DB is the only interface the tester has to the system under test:
// statements go in as SQL text; execution status, rows, and error
// messages come out — exactly the black-box view SQLancer++ has of a real
// DBMS.
type DB struct {
	dialect *dialect.Dialect
	store   *database
	cov     *coverage.Recorder

	faultsEnabled bool
	crashed       bool
	// planSpec is the instance's per-query plan-forcing specification
	// (planspec.go). The zero value plans automatically; the PlanDiff
	// oracle swaps specs between executions of the same query to run it
	// under every enumerated plan on one instance. Index *maintenance*
	// stays on regardless of the spec.
	planSpec PlanSpec
	// openSpec is the spec WithPlanSpec opened the instance with (the
	// zero value without it); Reset restores planSpec to it.
	openSpec PlanSpec

	// triggered holds the fault IDs fired by the last statement
	// (ground truth for the evaluation harness only).
	triggered map[string]bool
	// cost accumulates executor work units for the last statement
	// (the campaign's performance-bug watchdog reads it).
	cost int64
	// rows counts the rows the current statement's exec loops touched;
	// budget is the per-statement ceiling (maxBudget = unlimited). rows
	// is separate from cost so the PerfOnFeature cliff — a simulated
	// *symptom*, not real work — cannot consume the budget, and so the
	// ground-truth precision helpers' save/restore of cost never skews
	// budget accounting.
	rows   int64
	budget int64
	// cancel, when non-nil, is the campaign watchdog's cooperative
	// cancellation flag: the per-row budget check polls it and fails the
	// statement with ErrTimeout once set. nil (the default, and always
	// nil on replay instances) costs one never-taken branch per row.
	cancel *atomic.Bool
	// totalCost is the sum of cost over every finished statement on this
	// instance (never reset) — the denominator for work-normalized
	// metrics like novel plan pairs per rows touched.
	totalCost int64
	// filterProbe, when non-nil, stands in for the WHERE filter's body on
	// every candidate row (filterRow). The package's tests set it to run
	// the filter and its scalar reference side by side; Open leaves it
	// nil. It takes the plan by value so the plan never escapes to the
	// heap on the path where the probe is nil.
	filterProbe func(p filterPlan, ctx *evalCtx) (bool, *Error)
	// feats and maxDepth are what validateStmt recorded of the last
	// statement: the features it uses and its deepest expression nesting
	// (depth counts the validateExpr calls open). checkFeatureFaults
	// reads them, so the statement is walked once.
	feats           feature.Set
	depth, maxDepth int
	// scratch holds the access-path planner's reusable buffers (plan.go):
	// sargable-probe lists and the composite-key arena, reset per planned
	// scan so planning itself allocates nothing on the hot path.
	scratch planScratch
	// st is the statement scratch (scratch.go): what validation and
	// execution build and drop within one statement. run resets it.
	st stmtScratch
	// parse is the statement cache fronting the parser: sqlparse.Shared()
	// unless WithParseCache supplies the opener's own.
	parse *sqlparse.Cache
}

// Option configures a DB.
type Option func(*DB)

// WithCoverage attaches a coverage recorder.
func WithCoverage(rec *coverage.Recorder) Option {
	return func(s *DB) { s.cov = rec }
}

// WithoutFaults opens a pristine instance of the dialect (used by tests
// and the engine's own differential validation).
func WithoutFaults() Option {
	return func(s *DB) { s.faultsEnabled = false }
}

// WithRowBudget bounds every statement to touching at most n rows in
// the engine's exec loops (scan filtering, join pairing and probing,
// DML collection); exceeding it fails the statement with
// ErrBudgetExceeded. n <= 0 leaves the instance unbounded. The budget is
// deterministic — a pure function of the statement and the stored data —
// which is what lets budget-bounded campaigns keep the byte-identical
// report contract at any worker count.
func WithRowBudget(n int64) Option {
	return func(s *DB) {
		if n > 0 {
			s.budget = n
		}
	}
}

// WithBatchSize returns an Option that changes nothing.
//
// Deprecated: the engine filters row at a time and has no batch width.
// It exists only so the frozen benchmark harness (perfbench/driver.go)
// builds, and goes when that driver does.
func WithBatchSize(int) Option { return func(*DB) {} }

// DefaultBatchSize is read by nothing in the engine.
//
// Deprecated: it exists only so the frozen benchmark harness
// (perfbench/workload.go) builds, and goes with perfbench/driver.go.
const DefaultBatchSize = 64

// WithCancel attaches a cooperative cancellation flag. When the flag is
// set (by the campaign's per-case watchdog, from its own goroutine), the
// instance fails the current statement with ErrTimeout at the next
// per-row budget checkpoint and rejects further statements until the
// flag clears. The engine only ever Loads the flag; arming and clearing
// are the watchdog's business.
func WithCancel(c *atomic.Bool) Option {
	return func(s *DB) { s.cancel = c }
}

// WithParseCache parses the instance's statements through c instead of
// the process-wide sqlparse.Shared(). A campaign runner gives its main
// and replay instances one small cache of its own, so concurrent shards
// neither contend on one lock nor keep a large shared set of ASTs alive.
func WithParseCache(c *sqlparse.Cache) Option {
	return func(s *DB) { s.parse = c }
}

// WithPlanSpec opens the instance with a plan-forcing specification
// already applied — the open-time spelling of SetPlanSpec. The
// differential tests and benchmark baselines use it with
// PlanSpec{DisableIndexPaths: true} to pin the pre-planner full-scan
// engine.
func WithPlanSpec(spec PlanSpec) Option {
	return func(s *DB) { s.openSpec, s.planSpec = spec, spec }
}

// Open creates an empty database for the dialect.
// maxBudget disables budget enforcement: the per-row check compares
// against it unconditionally, so "no budget" costs one never-taken
// branch instead of a second flag test.
const maxBudget = int64(1) << 62

func Open(d *dialect.Dialect, opts ...Option) *DB {
	s := &DB{
		dialect:       d,
		store:         newDatabase(),
		faultsEnabled: true,
		triggered:     map[string]bool{},
		budget:        maxBudget,
		parse:         sqlparse.Shared(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Reset returns the instance to the state Open left it in, with the
// options it was opened with: it drops every table, view and index, the
// crashed flag, the plan spec SetPlanSpec installed (restoring the one
// WithPlanSpec gave), the last statement's triggered faults, cost, rows
// and recorded features, and the TotalCost counter. It keeps only
// memory that carries no state into a statement: the statement scratch
// (which the next statement resets, as after a contained panic), the
// planner's scratch, the emptied catalog maps and the statement cache.
// A statement run after Reset therefore behaves as on a fresh Open, so
// a caller that replays many short sequences (the reducer) can reuse
// one instance instead of opening one per sequence.
func (s *DB) Reset() {
	clear(s.store.tables)
	clear(s.store.views)
	clear(s.store.indexes)
	s.crashed = false
	s.planSpec = s.openSpec
	clear(s.triggered)
	s.cost, s.rows, s.totalCost = 0, 0, 0
	s.feats = feature.Set{}
	s.depth, s.maxDepth = 0, 0
}

// Dialect returns the dialect under test.
func (s *DB) Dialect() *dialect.Dialect { return s.dialect }

// faultSet returns the active fault set (nil when disabled).
func (s *DB) faultSet() *faults.Set {
	if !s.faultsEnabled {
		return nil
	}
	return s.dialect.Faults
}

// trigger records a fired fault (ground truth).
func (s *DB) trigger(f *faults.Fault) {
	if f != nil {
		s.triggered[f.ID] = true
	}
}

// TriggeredFaults returns the IDs of faults fired by the last statement,
// sorted. This is evaluation-only ground truth.
func (s *DB) TriggeredFaults() []string {
	out := make([]string, 0, len(s.triggered))
	for id := range s.triggered {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// LastCost returns the executor work units of the last statement.
func (s *DB) LastCost() int64 { return s.cost }

// TotalCost returns the cumulative executor work units charged across
// every statement on this instance. Unlike LastCost it is never reset,
// so campaign-level metrics can normalize by total rows touched.
func (s *DB) TotalCost() int64 { return s.totalCost }

// chargeRow charges one row of executor work against the statement's
// cost and its rows-touched budget, returning the shared errBudget on
// exhaustion or the shared errTimeout when the watchdog's cancel flag is
// set (budget outranks timeout when both hold, keeping the deterministic
// failure deterministic). It is the only place budgeted loops account
// work, so cost, budget, and cancellation can never drift apart — and it
// returns preallocated errors only, keeping the per-row path zero-alloc.
func (s *DB) chargeRow() *Error {
	s.cost++
	s.rows++
	if s.rows > s.budget {
		return errBudget
	}
	if s.cancel != nil && s.cancel.Load() {
		return errTimeout
	}
	return nil
}

// SetPlanSpec installs a per-query plan-forcing specification
// (planspec.go): it stays in effect for every subsequent statement until
// replaced, like a session-scoped planner pragma. The PlanDiff oracle
// uses it to execute the same query under each enumerated plan on one
// instance. This is an oracle/test control surface, not SQL: the
// black-box contract (SQL text in, status and rows out) is unchanged,
// and a forced-but-inapplicable choice degrades to a scan, never errors.
func (s *DB) SetPlanSpec(spec PlanSpec) { s.planSpec = spec }

// PlanSpec returns the active plan-forcing specification.
func (s *DB) PlanSpec() PlanSpec { return s.planSpec }

// IndexPathsEnabled reports whether the access-path planner is active
// (i.e. the current spec does not suppress it wholesale).
func (s *DB) IndexPathsEnabled() bool { return !s.planSpec.DisableIndexPaths }

// Restart brings a crashed server back up (storage survives, as with a
// durable DBMS restarted by the harness).
func (s *DB) Restart() { s.crashed = false }

// Exec parses, validates, and executes a statement. For SELECT it
// discards the rows (built in the statement scratch); use Query to
// retrieve them.
func (s *DB) Exec(sql string) error {
	_, err := s.run(sql, &s.st)
	return err
}

// Query parses, validates, and executes a statement, returning rows for
// SELECT (and an empty result for other statements). The result is the
// caller's: it stays valid across later statements.
func (s *DB) Query(sql string) (*Result, error) {
	return s.run(sql, nil)
}

// QueryScratch is Query for a caller that reads the result and drops it
// before its next statement on the instance: the SELECT's result is
// built in the statement scratch, so it is valid only until the next
// statement starts, which reuses its memory. Everything else (error,
// LastCost, TriggeredFaults) is what Query gives.
func (s *DB) QueryScratch(sql string) (*Result, error) {
	return s.run(sql, &s.st)
}

// run parses, validates, and executes sql, building a SELECT's result
// in out: nil for the heap, or the statement scratch (see
// execSelectEnv).
func (s *DB) run(sql string, out *stmtScratch) (*Result, error) {
	// A statement that panicked half-way left its scratch in use, and a
	// scratch result of the last statement dies here.
	s.st.reset()
	clear(s.triggered)
	s.cost = 0
	s.rows = 0
	// Fold each statement's final cost into the instance-lifetime total:
	// TotalCost is exactly the sum of LastCost over every statement.
	defer func() { s.totalCost += s.cost }()
	if s.crashed {
		return nil, errf(ErrCrash, "server is not running (restart required)")
	}
	// The instance's statement cache (WithParseCache, else the
	// process-wide one) fronts the parser; the cached AST, parsed or
	// seeded (SeedParse), is shared and immutable. Execution never
	// mutates an AST, so most statements run on the shared copy
	// directly; the exceptions are cloned below. The black-box contract
	// is unchanged: SQL text in, status and rows out.
	stmt, perr := s.parse.Parse(sql)
	if perr != nil {
		s.cov.Hit("parse.error")
		return nil, &Error{Class: ErrSyntax, Msg: perr.Error()}
	}
	s.cov.Hit("parse.ok")
	switch stmt.(type) {
	case *sqlast.CreateView, *sqlast.CreateIndex:
		// These retain sub-ASTs in catalog state beyond this statement
		// (the view definition, the partial-index predicate); give the
		// instance its own copy so no live state aliases the cache.
		stmt = sqlast.CloneStmt(stmt)
	}
	// A set cancel flag rejects the statement up front: once the watchdog
	// fires, the whole case is timed out, including statements that would
	// never reach a per-row checkpoint (DDL, empty scans).
	if s.cancel != nil && s.cancel.Load() {
		return nil, errTimeout
	}
	err := s.validateStmt(stmt)
	// Nothing validation built outlives it: execution starts on an
	// empty scratch.
	s.st.release(scratchMark{})
	if err != nil {
		return nil, err
	}
	// Injected crash / internal-error / perf faults fire only for
	// statements that passed validation: the defect is in the executor,
	// not the parser.
	if err := s.checkFeatureFaults(); err != nil {
		return nil, err
	}
	res, err := s.execStmt(stmt, out)
	if err != nil {
		if ee, ok := err.(*Error); ok && ee.Class == ErrCrash {
			s.crashed = true
		}
		return nil, err
	}
	return res, nil
}

// SeedParse hands the instance's statement cache st as the parse of sql
// (sqlparse.Cache.Seed), so a later Query or Exec of sql runs st without
// parsing. st must be exactly what parsing sql builds, and neither the
// caller nor anyone else may modify it afterwards.
func (s *DB) SeedParse(sql string, st sqlast.Stmt) {
	s.parse.Seed(sql, st)
}

// checkFeatureFaults fires CrashOnFeature / CrashOnDeepExpr /
// InternalErrorOnFeature faults and arms PerfOnFeature for the statement
// just validated, from the features and depth validation recorded. When
// the features miss every feature-keyed trigger, one mask test skips the
// feature faults. When several match, they fire in feature-name order.
func (s *DB) checkFeatureFaults() error {
	fs := s.faultSet()
	if fs == nil {
		return nil
	}
	// Only the features that hit a trigger are looked up, in ID order,
	// which is name order.
	hits := s.feats
	hits.Intersect(fs.FeatureTriggers())
	for id, ok := hits.Next(0); ok; id, ok = hits.Next(id + 1) {
		if f := fs.CrashFeature(id); f != nil {
			s.trigger(f)
			s.crashed = true
			ft := feature.Name(id)
			return &Error{Class: ErrCrash, Msg: "server crashed while executing " + ft, Feature: ft, FaultID: f.ID}
		}
	}
	for id, ok := hits.Next(0); ok; id, ok = hits.Next(id + 1) {
		if f := fs.ErrFeature(id); f != nil {
			s.trigger(f)
			ft := feature.Name(id)
			return &Error{Class: ErrInternal, Msg: "internal error: unexpected state in " + ft + " execution", Feature: ft, FaultID: f.ID}
		}
	}
	if f := fs.CrashDeep(); f != nil && s.maxDepth > 6 {
		s.trigger(f)
		s.crashed = true
		return &Error{Class: ErrCrash, Msg: "server crashed: expression nesting overflow", FaultID: f.ID}
	}
	for id, ok := hits.Next(0); ok; id, ok = hits.Next(id + 1) {
		if f := fs.PerfFeature(id); f != nil {
			s.trigger(f)
			s.cost += 1_000_000 // simulated performance cliff
		}
	}
	return nil
}
