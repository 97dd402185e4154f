package main

// The traced driver replays campaign.Runner's per-case pipeline by
// calling each layer's public functions in the order the runner does, and
// times every call as a span named after the layer. The program itself is
// not instrumented. The runner's unexported helpers it needs (feature
// projection, setup-feature split, replay recovery) are re-stated here;
// every traced run checks that the driver reproduces the real campaign's
// TestCases, ValidCases and Detected, so a drift cannot go unnoticed.

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"time"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/core/prioritize"
	"sqlancerpp/internal/core/reduce"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// span names the layer a driver call goes into.
type span int

const (
	spanGen span = iota
	spanEngine
	spanOracle
	spanFeedback
	spanPrioritize
	spanReduce
	// spanCampaign covers the runner's own bookkeeping between layer
	// calls (feature projection, bug records, shard set-up).
	spanCampaign
	nSpans
)

var spanNames = [nSpans]string{"gen", "engine", "oracle", "feedback", "prioritize", "reduce", "campaign"}

// oracleNames indexes the per-oracle tallies.
var oracleNames = []oracle.Name{oracle.TLPName, oracle.TLPComposedName,
	oracle.TLPAggregateName, oracle.NoRECName, oracle.PlanDiffName}

const nOracles = 5

func oracleIndex(n oracle.Name) int {
	for i, o := range oracleNames {
		if o == n {
			return i
		}
	}
	return -1
}

// layerStats is what traced driver runs measured; add sums runs.
type layerStats struct {
	Cases, ValidCases, Detected int
	// DriverNs is the driver's wall time, SpanNs the part of it inside
	// each span kind, and Samples the CPU samples taken inside each span
	// kind by the layer they landed in.
	DriverNs int64
	SpanNs   [nSpans]int64
	Samples  [nSpans][nBuckets]int

	GenStmts                   int
	ParseHits, ParseMisses     uint64
	EngineStmts, EngineRejects int
	// RowsTouched sums engine.DB.TotalCost over the campaign's
	// instances (not the reducer's replay instances).
	RowsTouched int64

	Checks         [nOracles]int
	CheckNs        [nOracles]int64
	OracleQueries  int
	PlanDiffPlans  int
	PairsNovel     int
	PairsRepeated  int
	Unsupported    int
	Prioritized    int
	ReduceAttempts int
	ReduceNs       int64
	Replays        int
	ReduceIn       int
	ReduceOut      int
	// CaseNs holds each oracle case's wall time, including the database
	// rebuild and smoke query that precede it.
	CaseNs []int64
}

func (s *layerStats) add(o *layerStats) {
	s.Cases += o.Cases
	s.ValidCases += o.ValidCases
	s.Detected += o.Detected
	s.DriverNs += o.DriverNs
	for i := range s.SpanNs {
		s.SpanNs[i] += o.SpanNs[i]
		for b := range s.Samples[i] {
			s.Samples[i][b] += o.Samples[i][b]
		}
	}
	s.GenStmts += o.GenStmts
	s.ParseHits += o.ParseHits
	s.ParseMisses += o.ParseMisses
	s.EngineStmts += o.EngineStmts
	s.EngineRejects += o.EngineRejects
	s.RowsTouched += o.RowsTouched
	for i := range s.Checks {
		s.Checks[i] += o.Checks[i]
		s.CheckNs[i] += o.CheckNs[i]
	}
	s.OracleQueries += o.OracleQueries
	s.PlanDiffPlans += o.PlanDiffPlans
	s.PairsNovel += o.PairsNovel
	s.PairsRepeated += o.PairsRepeated
	s.Unsupported += o.Unsupported
	s.Prioritized += o.Prioritized
	s.ReduceAttempts += o.ReduceAttempts
	s.ReduceNs += o.ReduceNs
	s.Replays += o.Replays
	s.ReduceIn += o.ReduceIn
	s.ReduceOut += o.ReduceOut
	s.CaseNs = append(s.CaseNs, o.CaseNs...)
}

// tracer times spans and labels the goroutine with the open span, so the
// CPU profile can split a span's time among the layers it called into.
type tracer struct {
	st     *layerStats
	labels [nSpans]context.Context
	idle   context.Context
	t0     time.Time
}

func newTracer(st *layerStats) *tracer {
	t := &tracer{st: st, idle: pprof.WithLabels(context.Background(), pprof.Labels("span", "none"))}
	for i, n := range spanNames {
		t.labels[i] = pprof.WithLabels(context.Background(), pprof.Labels("span", n))
	}
	return t
}

// begin opens a span; spans do not nest.
func (t *tracer) begin(s span) {
	pprof.SetGoroutineLabels(t.labels[s])
	t.t0 = time.Now()
}

// end closes the open span s and returns its duration.
func (t *tracer) end(s span) time.Duration {
	d := time.Since(t.t0)
	t.st.SpanNs[s] += d.Nanoseconds()
	pprof.SetGoroutineLabels(t.idle)
	return d
}

// bugRec is the part of a campaign.BugCase the driver needs.
type bugRec struct {
	class    campaign.BugClass
	oracle   oracle.Name
	seq      int
	features []string
	planSpec string
	setup    []string
}

// driver is one runner's worth of state, built as campaign.New builds it.
type driver struct {
	cfg      campaign.Config
	tr       *tracer
	st       *layerStats
	tracker  *feedback.Tracker
	g        *gen.Generator
	pri      *prioritize.Prioritizer
	sched    []oracle.Oracle
	pairs    *feedback.PairTracker
	planMemo *oracle.PlanEnumMemo
	opts     []engine.Option

	db        *engine.DB
	setup     []*gen.Statement
	testCases int
	// bugs holds the prioritized bugs' features, in order, for the shard
	// merge.
	bugs [][]string
	// state and pairState are the final tracker states; unsupported is
	// the number of features learned unsupported.
	state, pairState []byte
	unsupported      int
}

func newDriver(cfg campaign.Config, tr *tracer) (*driver, error) {
	selected, err := oracle.Select(cfg.Oracles)
	if err != nil {
		return nil, err
	}
	tracker := feedback.New(feedback.WithThreshold(cfg.Threshold))
	return &driver{
		cfg:      cfg,
		tr:       tr,
		st:       tr.st,
		tracker:  tracker,
		g:        gen.New(gen.Config{Seed: cfg.Seed, Policy: tracker}),
		pri:      prioritize.New(),
		sched:    oracle.Schedule(selected),
		pairs:    feedback.NewPairTracker(),
		planMemo: oracle.NewPlanEnumMemo(),
		opts:     []engine.Option{engine.WithBatchSize(cfg.BatchSize)},
	}, nil
}

// run mirrors campaign.Runner.Run. The workloads set neither a row budget
// nor a case timeout, so the runner's budget and hang branches never fire
// and are left out.
func (d *driver) run() {
	casesInDB := d.cfg.CasesPerDB
	for i := 0; i < d.cfg.TestCases; i++ {
		t0 := time.Now()
		if casesInDB >= d.cfg.CasesPerDB {
			d.newDatabase()
			casesInDB = 0
		}
		if d.cfg.SmokeEvery > 0 && i%d.cfg.SmokeEvery == 0 {
			d.smokeQuery()
		}
		d.oracleCase()
		casesInDB++
		d.st.CaseNs = append(d.st.CaseNs, time.Since(t0).Nanoseconds())
	}
	d.finish()
}

func (d *driver) newDatabase() {
	if d.db != nil {
		d.st.RowsTouched += d.db.TotalCost()
	}
	d.tr.begin(spanEngine)
	d.db = engine.Open(d.cfg.Dialect, d.opts...)
	d.tr.end(spanEngine)
	d.tr.begin(spanOracle)
	d.planMemo.Reset()
	d.tr.end(spanOracle)
	d.tr.begin(spanGen)
	d.g.ResetModel()
	d.tr.end(spanGen)
	d.setup = nil
	for i := 0; i < d.cfg.SetupStmts; i++ {
		d.execSetup(d.genSetup())
	}
	for i := 0; i < 10 && len(d.g.Model().Tables()) == 0; i++ {
		d.execSetup(d.genSetup())
	}
}

func (d *driver) genSetup() *gen.Statement {
	d.tr.begin(spanGen)
	st := d.g.GenSetup()
	d.tr.end(spanGen)
	d.st.GenStmts++
	return st
}

// exec runs one generated statement under a recovery boundary, as the
// runner's execContained does.
func (d *driver) exec(st *gen.Statement) (err error, crashed bool) {
	d.st.EngineStmts++
	d.tr.begin(spanEngine)
	err, crashed = execRecover(d.db, st.SQL)
	d.tr.end(spanEngine)
	if crashed {
		d.harnessCrash(st.Features)
		return nil, true
	}
	if err != nil {
		d.st.EngineRejects++
	}
	return err, false
}

func execRecover(db *engine.DB, sql string) (err error, crashed bool) {
	defer func() {
		if recover() != nil {
			crashed = true
		}
	}()
	return db.Exec(sql), false
}

func (d *driver) execSetup(st *gen.Statement) {
	err, crashed := d.exec(st)
	if crashed {
		return
	}
	ok := err == nil
	if ok {
		d.tr.begin(spanGen)
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
		d.tr.end(spanGen)
		d.setup = append(d.setup, st)
	}
	d.tr.begin(spanCampaign)
	ddl, expr := splitSetupFeatures(st.Features)
	d.tr.end(spanCampaign)
	d.tr.begin(spanFeedback)
	d.tracker.RecordDDL(ddl, ok)
	if len(expr) > 0 {
		d.tracker.RecordQuery(expr, ok)
	}
	d.tr.end(spanFeedback)
	d.execError(st, err)

	if ins, isInsert := st.Stmt.(*sqlast.Insert); ok && isInsert && d.cfg.Dialect.RequiresRefresh {
		d.tr.begin(spanGen)
		ref := d.g.GenRefresh(ins.Table)
		d.tr.end(spanGen)
		d.st.GenStmts++
		if rerr, rcrashed := d.exec(ref); !rcrashed && rerr == nil {
			d.setup = append(d.setup, ref)
		}
	}
}

func (d *driver) smokeQuery() {
	d.tr.begin(spanGen)
	st := d.g.GenQuery()
	d.st.GenStmts++
	if d.testCases%3 == 0 {
		if cq := d.g.GenCompoundQuery(); cq != nil {
			st = cq
			d.st.GenStmts++
		}
	}
	d.tr.end(spanGen)
	err, crashed := d.exec(st)
	if crashed {
		return
	}
	d.tr.begin(spanFeedback)
	d.tracker.RecordQuery(st.Features, err == nil)
	d.tr.end(spanFeedback)
	d.execError(st, err)
}

func (d *driver) oracleCase() {
	d.tr.begin(spanGen)
	oc := d.g.GenOracleCase()
	d.tr.end(spanGen)
	d.testCases++
	d.st.Cases++
	if oc == nil {
		return
	}
	d.st.GenStmts++
	c := &oracle.Case{Base: oc.Base, Pred: oc.Pred, Seq: d.testCases,
		MaxPlans: d.cfg.MaxPlansPerQuery, Pairs: d.pairs, Enum: d.planMemo}

	d.tr.begin(spanOracle)
	orc := d.pickOracle(c)
	res, crashed := checkRecover(orc, d.db, c)
	dt := d.tr.end(spanOracle)
	if i := oracleIndex(orc.Name()); i >= 0 {
		d.st.Checks[i]++
		d.st.CheckNs[i] += dt.Nanoseconds()
	}
	if crashed {
		d.harnessCrash(oc.Features)
		return
	}
	d.st.OracleQueries += len(res.Queries)
	d.st.EngineStmts += len(res.Queries)
	if res.Oracle == oracle.PlanDiffName && len(res.Queries) > 0 {
		d.st.PlanDiffPlans += len(res.Queries) - 1
	}
	d.st.PairsNovel += res.PairsNovel
	d.st.PairsRepeated += res.PairsRepeated

	switch res.Outcome {
	case oracle.OK:
		d.st.ValidCases++
		d.recordQuery(oc.Features, true)
	case oracle.Invalid:
		var ee *engine.Error
		if errors.As(res.Err, &ee) {
			d.st.EngineRejects++
		}
		d.recordQuery(oc.Features, false)
		if res.Err != nil {
			if engine.IsCrash(res.Err) {
				d.recordBug(&bugRec{class: campaign.ClassCrash, features: oc.Features}, nil)
				d.restart()
			} else if engine.IsInternal(res.Err) {
				d.recordBug(&bugRec{class: campaign.ClassError, features: oc.Features}, nil)
			}
		}
	case oracle.Bug:
		d.st.ValidCases++
		d.recordQuery(oc.Features, true)
		d.recordBug(&bugRec{class: campaign.ClassLogic, oracle: res.Oracle, seq: c.Seq,
			features: oc.Features, planSpec: res.PlanSpec}, oc)
	}
}

// pickOracle mirrors the runner's rotation with its applicability skip.
func (d *driver) pickOracle(c *oracle.Case) oracle.Oracle {
	n := len(d.sched)
	start := (d.testCases - 1) % n
	for i := 0; i < n; i++ {
		if o := d.sched[(start+i)%n]; o.Applicable(d.db, c) {
			return o
		}
	}
	return d.sched[start]
}

func checkRecover(orc oracle.Oracle, db *engine.DB, c *oracle.Case) (res oracle.Result, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return orc.Check(db, c), false
}

func (d *driver) recordQuery(features []string, ok bool) {
	d.tr.begin(spanFeedback)
	d.tracker.RecordQuery(features, ok)
	d.tr.end(spanFeedback)
}

func (d *driver) restart() {
	d.tr.begin(spanEngine)
	d.db.Restart()
	d.tr.end(spanEngine)
}

// execError mirrors the runner's handleExecError.
func (d *driver) execError(st *gen.Statement, err error) {
	if err == nil {
		return
	}
	crash := engine.IsCrash(err)
	if !crash && !engine.IsInternal(err) {
		return
	}
	class := campaign.ClassError
	if crash {
		class = campaign.ClassCrash
	}
	d.recordBug(&bugRec{class: class, features: st.Features}, nil)
	if crash {
		d.restart()
	}
}

// harnessCrash records a recovered engine panic and restarts the
// instance. The runner also reduces such bugs; harness crashes count as
// failed cases, so the driver does not.
func (d *driver) harnessCrash(features []string) {
	d.recordBug(&bugRec{class: campaign.ClassHarness, features: features}, nil)
	d.restart()
}

// recordBug mirrors the runner's recordBug: prioritize, keep, reduce.
func (d *driver) recordBug(b *bugRec, oc *gen.OracleCase) {
	d.st.Detected++
	d.tr.begin(spanCampaign)
	feats := prioritizerFeatures(b.features)
	d.tr.end(spanCampaign)
	d.tr.begin(spanPrioritize)
	keep := d.pri.Report(feats)
	d.tr.end(spanPrioritize)
	if !keep {
		return
	}
	d.st.Prioritized++
	d.tr.begin(spanCampaign)
	for _, s := range d.setup {
		b.setup = append(b.setup, s.SQL)
	}
	d.bugs = append(d.bugs, b.features)
	d.tr.end(spanCampaign)
	if d.cfg.ReduceBugs && b.class == campaign.ClassLogic && oc != nil {
		d.reduceLogicBug(b, oc)
	}
}

// reduceLogicBug mirrors the runner's reduceLogicBug, counting property
// calls.
func (d *driver) reduceLogicBug(b *bugRec, oc *gen.OracleCase) {
	d.tr.begin(spanReduce)
	defer func() { d.st.ReduceNs += d.tr.end(spanReduce).Nanoseconds() }()
	d.st.ReduceAttempts++
	orc, ok := oracle.Get(b.oracle)
	if !ok {
		return
	}
	var stmts []sqlast.Stmt
	for _, s := range d.setup {
		stmts = append(stmts, sqlast.CloneStmt(s.Stmt))
	}
	carrier := sqlast.CloneSelect(oc.Base)
	carrier.Where = sqlast.CloneExpr(oc.Pred)
	stmts = append(stmts, carrier)

	prop := func(cand []sqlast.Stmt) bool {
		d.st.Replays++
		if len(cand) == 0 {
			return false
		}
		carrier, ok := cand[len(cand)-1].(*sqlast.Select)
		if !ok || carrier.Where == nil {
			return false
		}
		db := engine.Open(d.cfg.Dialect, d.opts...)
		for _, st := range cand[:len(cand)-1] {
			if execPanics(db, st) {
				db.Restart()
			}
		}
		cb := sqlast.CloneSelect(carrier)
		cp := cb.Where
		cb.Where = nil
		res, panicked := checkRecover(orc, db, &oracle.Case{Base: cb, Pred: cp, Seq: b.seq,
			MaxPlans: d.cfg.MaxPlansPerQuery, PlanSpec: b.planSpec})
		return !panicked && res.Outcome == oracle.Bug
	}
	if !prop(stmts) {
		return
	}
	reduced := reduce.Reduce(stmts, prop)
	for _, st := range reduced {
		_ = st.SQL() // the runner renders the reduced statements into the report
	}
	d.st.ReduceIn += len(stmts)
	d.st.ReduceOut += len(reduced)
}

// execPanics mirrors the runner's replay step: execute, restart after a
// simulated crash, report a panic.
func execPanics(db *engine.DB, st sqlast.Stmt) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	if err := db.Exec(st.SQL()); err != nil && engine.IsCrash(err) {
		db.Restart()
	}
	return false
}

// finish mirrors the runner's finishReport.
func (d *driver) finish() {
	d.st.RowsTouched += d.db.TotalCost()
	d.tr.begin(spanFeedback)
	state, err := d.tracker.Save()
	if err == nil {
		d.state = state
	}
	if ps, err := d.pairs.SaveState(); err == nil {
		d.pairState = ps
	}
	d.unsupported = len(d.tracker.Unsupported())
	d.tr.end(spanFeedback)
}

// driveSharded replays RunShardedOpts one shard after another (as one
// worker would run them, without checkpoint) and then its merge.
func driveSharded(cfg campaign.Config, tr *tracer) error {
	n := campaign.ShardCount(cfg)
	shards := make([]*driver, n)
	seq := uint64(cfg.Seed)
	for i := range shards {
		sc := cfg
		sc.TestCases = cfg.CasesPerDB
		if i == n-1 {
			sc.TestCases = cfg.TestCases - cfg.CasesPerDB*(n-1)
		}
		seq, sc.Seed = splitmix64(seq)
		tr.begin(spanCampaign)
		d, err := newDriver(sc, tr)
		tr.end(spanCampaign)
		if err != nil {
			return err
		}
		d.run()
		shards[i] = d
	}

	tracker := feedback.New(feedback.WithThreshold(cfg.Threshold))
	pairs := feedback.NewPairTracker()
	pri := prioritize.New()
	for _, d := range shards {
		for _, feats := range d.bugs {
			tr.begin(spanCampaign)
			pf := prioritizerFeatures(feats)
			tr.end(spanCampaign)
			tr.begin(spanPrioritize)
			pri.Report(pf)
			tr.end(spanPrioritize)
		}
		tr.begin(spanFeedback)
		err := tracker.MergeState(d.state)
		if err == nil {
			err = pairs.MergeState(d.pairState)
		}
		tr.end(spanFeedback)
		if err != nil {
			return fmt.Errorf("merging shard state: %w", err)
		}
	}
	tr.begin(spanFeedback)
	tracker.Update()
	_, err := tracker.Save()
	if err == nil {
		_, err = pairs.SaveState()
	}
	tr.st.Unsupported += len(tracker.Unsupported())
	tr.end(spanFeedback)
	return err
}

// coreFeatures mirrors the campaign's prioritizer feature set: the
// language elements of a case, not the generator's bookkeeping features.
var coreFeatures = func() map[string]bool {
	m := map[string]bool{"~": true, feature.Subquery: true, feature.DerivedTable: true,
		feature.Distinct: true, feature.GroupBy: true, feature.Having: true, feature.PartialIndex: true}
	for _, list := range [][]string{feature.BinaryOperators, feature.ExprForms, feature.Joins, feature.Aggregates} {
		for _, f := range list {
			m[f] = true
		}
	}
	return m
}()

func prioritizerFeatures(features []string) []string {
	var out []string
	for _, f := range features {
		if strings.ContainsRune(f, '#') {
			continue
		}
		if coreFeatures[f] || engine.LookupFunc(f) != nil {
			out = append(out, f)
		}
	}
	return out
}

// setupFeatures mirrors the campaign's DDL/DML consecutive-failure set.
var setupFeatures = func() map[string]bool {
	m := map[string]bool{}
	for _, f := range feature.Statements {
		m[f] = true
	}
	for _, f := range []string{feature.StmtDropTable, feature.StmtDropView, feature.StmtDropIndex,
		feature.StmtReindex, feature.UniqueIndex, feature.PartialIndex, feature.PrimaryKey,
		feature.NotNullColumn, feature.UniqueColumn, feature.InsertOrIgnore,
		feature.InsertMultiRow, feature.ViewColumnNames} {
		m[f] = true
	}
	return m
}()

func splitSetupFeatures(features []string) (ddl, expr []string) {
	for _, f := range features {
		if setupFeatures[f] {
			ddl = append(ddl, f)
		} else {
			expr = append(expr, f)
		}
	}
	return ddl, expr
}
