package sqlancerpp

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench regenerates its table/figure at a reduced budget and reports
// throughput metrics; run cmd/experiments for full-scale output.

import (
	"fmt"
	"testing"
	"time"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/experiments"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

func benchScale() experiments.Scale {
	s := experiments.DefaultScale()
	s.Table2Cases = 800
	s.Table3Cases = 800
	s.Table4Cases = 1000
	s.Table5Cases = 1200
	s.Table5Runs = 2
	s.Fig6Cases = 600
	s.AblationCases = 800
	return s
}

// BenchmarkFigure1DialectLOC regenerates the per-DBMS LOC comparison
// (paper Figure 1).
func BenchmarkFigure1DialectLOC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[len(rows)-2].PerDBMSLOC), "adapter-loc/dbms")
	}
}

// BenchmarkTable1ToolComparison regenerates the qualitative comparison
// (paper Table 1).
func BenchmarkTable1ToolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1()
		if len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2BugCampaign regenerates the 18-DBMS bug-finding
// campaign (paper Table 2).
func BenchmarkTable2BugCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchScale(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalUnique), "unique-bugs")
		b.ReportMetric(float64(res.TotalLogic), "logic-bugs")
	}
}

// BenchmarkTable3Coverage regenerates the coverage comparison (paper
// Table 3).
func BenchmarkTable3Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchScale(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cells[0].LinePct, "adaptive-sqlite-line%")
	}
}

// BenchmarkTable4Validity regenerates the validity comparison (paper
// Table 4).
func BenchmarkTable4Validity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(benchScale(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Cells[0].Validity, "adaptive-sqlite-validity%")
	}
}

// BenchmarkTable5Prioritization regenerates the CrateDB prioritization
// study (paper Table 5).
func BenchmarkTable5Prioritization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5(benchScale(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Detected, "detected")
		b.ReportMetric(res.Rows[0].Prioritized, "prioritized")
		b.ReportMetric(res.Rows[0].Unique, "unique")
	}
}

// BenchmarkFigure6CrossDBMSValidity regenerates the SQL feature study
// (paper Figure 6).
func BenchmarkFigure6CrossDBMSValidity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchScale(), int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Overall, "cross-validity%")
	}
}

// BenchmarkFigure7FeatureVenn regenerates the feature-overlap study
// (paper Figure 7) and Table 6's feature counts.
func BenchmarkFigure7FeatureVenn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig7()
		rows, _ := experiments.Table6()
		b.ReportMetric(float64(res.FuncRegions["A"]), "adaptive-only-funcs")
		b.ReportMetric(float64(rows[3].Count), "grammar-functions")
	}
}

// BenchmarkAblationThreshold sweeps the Bayesian threshold p.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationThreshold(benchScale(), int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDepthSchedule compares depth schedules.
func BenchmarkAblationDepthSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationDepthSchedule(benchScale(), int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUpdateInterval sweeps the feedback update interval.
func BenchmarkAblationUpdateInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationUpdateInterval(benchScale(), int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPrioritizer compares dedup strategies.
func BenchmarkAblationPrioritizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationPrioritizer(benchScale(), int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignThroughput measures raw oracle checks per second on
// SQLite (context for the statement-budget ↔ wall-clock substitution).
// Cases/second is the product metric of the whole platform, and allocs/op
// is the hot-path signal the engine optimizations are judged against.
func BenchmarkCampaignThroughput(b *testing.B) {
	d := dialect.MustGet("sqlite")
	b.ReportAllocs()
	b.ResetTimer()
	runner, err := campaign.New(campaign.Config{
		Dialect: d, Mode: campaign.Adaptive, TestCases: b.N + 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := runner.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkBudgetedCampaign is BenchmarkCampaignThroughput with the
// deterministic rows-touched budget armed at a ceiling no generated
// statement reaches: it measures the pure overhead of the per-row budget
// check on the exec hot paths. The acceptance bar is throughput within
// 1% of the unbudgeted campaign.
func BenchmarkBudgetedCampaign(b *testing.B) {
	d := dialect.MustGet("sqlite")
	b.ReportAllocs()
	b.ResetTimer()
	runner, err := campaign.New(campaign.Config{
		Dialect: d, Mode: campaign.Adaptive, TestCases: b.N + 1, Seed: 1,
		RowBudget: 1 << 40,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := runner.Run()
	if err != nil {
		b.Fatal(err)
	}
	if rep.BudgetExceeded != 0 {
		b.Fatalf("budget ceiling reached %d times; the overhead measurement is polluted", rep.BudgetExceeded)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkSupervisedCampaign is the sharded campaign with the full
// robustness harness armed — supervisor (default retries), per-case
// watchdog at a ceiling no case reaches, and a checkpoint written after
// every shard — against the fault-free engine. It measures the overhead
// of supervised execution itself: no retries fire, no hangs trip, and
// the acceptance bar is throughput comparable to the unsupervised
// sharded run.
func BenchmarkSupervisedCampaign(b *testing.B) {
	d := dialect.MustGet("sqlite")
	ckpt := b.TempDir() + "/bench.ckpt"
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := campaign.RunShardedOpts(campaign.Config{
		Dialect: d, Mode: campaign.Adaptive, TestCases: b.N + 1, Seed: 1,
		CaseTimeout: time.Hour,
	}, campaign.ShardedOptions{Workers: 2, CheckpointPath: ckpt})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Hangs != 0 || rep.ShardRetries != 0 || rep.ShardsQuarantined != 0 {
		b.Fatalf("supervision fired on a fault-free run: hangs=%d retries=%d quarantined=%d",
			rep.Hangs, rep.ShardRetries, rep.ShardsQuarantined)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkShardedBugHunt is the bug-hunting sharded campaign: cratedb
// (low validity, many bugs), every default oracle, bug reduction on, two
// workers, and a checkpoint after every shard. It exercises the layers
// past the per-case pipeline — prioritizer, reducer, shard merge and
// checkpoint writer — whose allocations B/op and allocs/op track.
func BenchmarkShardedBugHunt(b *testing.B) {
	d := dialect.MustGet("cratedb")
	ckpt := b.TempDir() + "/bench.ckpt"
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := campaign.RunShardedOpts(campaign.Config{
		Dialect: d, Mode: campaign.Adaptive, TestCases: b.N + 1, Seed: 1,
		Oracles: oracle.DefaultNames(), ReduceBugs: true,
	}, campaign.ShardedOptions{Workers: 2, CheckpointPath: ckpt})
	if err != nil {
		b.Fatal(err)
	}
	if rep.FalsePositives != 0 || rep.CheckpointWriteFailures != 0 {
		b.Fatalf("false positives %d, checkpoint write failures %d", rep.FalsePositives, rep.CheckpointWriteFailures)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkExecSelect measures the engine's SELECT hot path in isolation:
// a two-table join with WHERE, ORDER BY, and an aggregate-free projection
// over a populated database, executed from SQL text exactly as the
// campaign does.
func BenchmarkExecSelect(b *testing.B) {
	db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
	setup := []string{
		"CREATE TABLE t0 (c0 INTEGER, c1 TEXT, c2 INTEGER)",
		"CREATE TABLE t1 (c0 INTEGER, c1 TEXT)",
	}
	for _, s := range setup {
		if err := db.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		if err := db.Exec(fmt.Sprintf(
			"INSERT INTO t0 VALUES (%d, 'r%d', %d)", i%13, i, i)); err != nil {
			b.Fatal(err)
		}
		if err := db.Exec(fmt.Sprintf(
			"INSERT INTO t1 VALUES (%d, 'x%d')", i%7, i)); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT t0.c1, t0.c2 + t1.c0 FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 " +
		"WHERE t0.c2 > 10 AND t0.c0 <= 11 ORDER BY t0.c2 DESC LIMIT 20"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkCorrelatedJoinSubquery measures the shape that multiplies the
// execute path's fixed per-statement costs: a correlated subquery whose
// body is a join reruns that join once per outer row. The tables are
// campaign-sized (about ten rows), so B/op and allocs/op show what the
// join steps cost independent of the rows they emit.
func BenchmarkCorrelatedJoinSubquery(b *testing.B) {
	db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
	for _, s := range []string{
		"CREATE TABLE t0 (c0 INTEGER, c1 TEXT)",
		"CREATE TABLE t1 (c0 INTEGER, c1 TEXT)",
		"CREATE TABLE t2 (c0 INTEGER, c1 INTEGER)",
	} {
		if err := db.Exec(s); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		for _, s := range []string{
			fmt.Sprintf("INSERT INTO t0 VALUES (%d, 'r%d')", i%4, i),
			fmt.Sprintf("INSERT INTO t1 VALUES (%d, 'x%d')", i%3, i%5),
			fmt.Sprintf("INSERT INTO t2 VALUES (%d, %d)", i%5, i),
		} {
			if err := db.Exec(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	const q = "SELECT t0.c1, (SELECT COUNT(*) FROM t1 JOIN t2 ON t1.c0 = t2.c0 " +
		"WHERE t2.c1 > t0.c0) FROM t0 WHERE EXISTS (SELECT 1 FROM t1 LEFT JOIN t2 " +
		"ON t1.c0 = t2.c0 WHERE t1.c0 = t0.c0)"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkIndexedSelect measures the access-path planner's win on a
// selective equality predicate: 4096 rows, 512 distinct keys (8 rows per
// key). The "indexed" sub-benchmark probes the ordered index store; the
// "fullscan" one runs the identical state with the planner disabled. The
// rows-touched/op metric is the engine's LastCost — the index path must
// charge only the rows it actually touches.
func BenchmarkIndexedSelect(b *testing.B) {
	setup := func(opts ...engine.Option) *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), append([]engine.Option{engine.WithoutFaults()}, opts...)...)
		if err := db.Exec("CREATE TABLE t (c0 INTEGER, c1 TEXT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4096; i += 16 {
			sql := "INSERT INTO t VALUES "
			for j := i; j < i+16; j++ {
				if j > i {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, 'r%d')", j%512, j)
			}
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Exec("CREATE INDEX i0 ON t (c0)"); err != nil {
			b.Fatal(err)
		}
		return db
	}
	const q = "SELECT * FROM t WHERE c0 = 137"
	run := func(b *testing.B, db *engine.DB) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 8 {
				b.Fatalf("got %d rows, want 8", len(res.Rows))
			}
		}
		b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	}
	b.Run("indexed", func(b *testing.B) { run(b, setup()) })
	b.Run("fullscan", func(b *testing.B) { run(b, setup(engine.WithPlanSpec(engine.PlanSpec{DisableIndexPaths: true}))) })
}

// BenchmarkIndexJoin measures the index-nested-loop join against the
// quadratic candidate loop on a selective equality ON: 48 left rows
// joining 4096 right rows over 512 distinct keys (8 rows per key). The
// "probe" sub-benchmark binary-searches the right table's ordered store
// per left row; "quadratic" runs the identical state with the planner
// suppressed. rows-touched/op is the engine's LastCost — the acceptance
// bar is the probe path touching at most a tenth of the quadratic rows.
func BenchmarkIndexJoin(b *testing.B) {
	setup := func(opts ...engine.Option) *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), append([]engine.Option{engine.WithoutFaults()}, opts...)...)
		if err := db.Exec("CREATE TABLE l (c0 INTEGER, c1 TEXT)"); err != nil {
			b.Fatal(err)
		}
		if err := db.Exec("CREATE TABLE r (k0 INTEGER, k1 TEXT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 48; i++ {
			if err := db.Exec(fmt.Sprintf("INSERT INTO l VALUES (%d, 'l%d')", i%512, i)); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 4096; i += 16 {
			sql := "INSERT INTO r VALUES "
			for j := i; j < i+16; j++ {
				if j > i {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, 'r%d')", j%512, j)
			}
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Exec("CREATE INDEX ik ON r (k0)"); err != nil {
			b.Fatal(err)
		}
		return db
	}
	const q = "SELECT l.c1, r.k1 FROM l INNER JOIN r ON l.c0 = r.k0"
	run := func(b *testing.B, db *engine.DB) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 48*8 {
				b.Fatalf("got %d rows, want %d", len(res.Rows), 48*8)
			}
		}
		b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	}
	b.Run("probe", func(b *testing.B) { run(b, setup()) })
	b.Run("quadratic", func(b *testing.B) { run(b, setup(engine.WithPlanSpec(engine.PlanSpec{DisableIndexPaths: true}))) })
}

// BenchmarkIndexedDML measures index-assisted UPDATE and DELETE against
// the full-scan arms on identical state: 16384 rows over 512 keys (32
// rows per key). The UPDATE keeps its probe key stable and the DELETE's
// trailing conjunct matches nothing, so every iteration sees the same
// table. rows-touched/op is the engine's LastCost — the acceptance bar
// is the indexed arm charging at most a tenth of the full scan.
func BenchmarkIndexedDML(b *testing.B) {
	setup := func(opts ...engine.Option) *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), append([]engine.Option{engine.WithoutFaults()}, opts...)...)
		if err := db.Exec("CREATE TABLE t (c0 INTEGER, c1 INTEGER)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 16384; i += 16 {
			sql := "INSERT INTO t VALUES "
			for j := i; j < i+16; j++ {
				if j > i {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, %d)", j%512, j)
			}
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Exec("CREATE INDEX i0 ON t (c0)"); err != nil {
			b.Fatal(err)
		}
		return db
	}
	run := func(b *testing.B, db *engine.DB, stmt string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stmts/sec")
	}
	const update = "UPDATE t SET c1 = c1 + 1 WHERE c0 = 137"
	const del = "DELETE FROM t WHERE c0 = 137 AND c1 < 0"
	b.Run("update-indexed", func(b *testing.B) { run(b, setup(), update) })
	b.Run("update-fullscan", func(b *testing.B) {
		run(b, setup(engine.WithPlanSpec(engine.PlanSpec{DisableIndexPaths: true})), update)
	})
	b.Run("delete-indexed", func(b *testing.B) { run(b, setup(), del) })
	b.Run("delete-fullscan", func(b *testing.B) { run(b, setup(engine.WithPlanSpec(engine.PlanSpec{DisableIndexPaths: true})), del) })
}

// BenchmarkPlanDiffEnumeration measures the PlanDiff oracle's enumerated
// plan space on a composite-indexed joined state: specs/query is the
// size of the equivalent-plan set the enumerator yields, and
// rows-touched/extra-plan is the mean executor cost each additional plan
// pair adds on top of the baseline execution — the per-plan price the
// -plans cap trades against plan-space coverage.
func BenchmarkPlanDiffEnumeration(b *testing.B) {
	db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
	mustSetup := func(sql string) {
		if err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	mustSetup("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
	mustSetup("CREATE TABLE r (y INTEGER, ry TEXT)")
	for i := 0; i < 1024; i += 16 {
		sql := "INSERT INTO t VALUES "
		for j := i; j < i+16; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, 'r%d')", j%16, (j/16)%16, j)
		}
		mustSetup(sql)
	}
	for i := 0; i < 128; i++ {
		mustSetup(fmt.Sprintf("INSERT INTO r VALUES (%d, 'x%d')", i%16, i))
	}
	mustSetup("CREATE INDEX ia ON t (a)")
	mustSetup("CREATE INDEX iab ON t (a, b)")
	mustSetup("CREATE INDEX iy ON r (y)")

	const q = "SELECT t.c, r.ry FROM t INNER JOIN r ON t.a = r.y WHERE t.a = 7 AND t.b = 3"
	stmt, err := sqlparse.Shared().Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(*sqlast.Select)

	var nSpecs int
	var extraRows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.SetPlanSpec(engine.PlanSpec{})
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
		specs := engine.EnumeratePlans(db, sel)
		nSpecs = len(specs)
		extraRows = 0
		for _, spec := range specs {
			db.SetPlanSpec(spec)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
			extraRows += db.LastCost()
		}
		db.SetPlanSpec(engine.PlanSpec{})
	}
	b.ReportMetric(float64(nSpecs), "specs/query")
	b.ReportMetric(float64(extraRows)/float64(nSpecs), "rows-touched/extra-plan")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cases/sec")
}

// BenchmarkPlanPairNovelty measures what the plan-pair novelty scheduler
// buys at the unchanged -plans cap: a workload of recurring query shapes
// (the same skeleton regenerated with fresh literals, which is exactly
// what the generator produces) runs through the PlanDiff oracle under
// the "scheduled" arm (unseen (shape, spec) pairs rank first) and the
// "canonical" ablation arm (same tracker bookkeeping, canonical
// truncation — the pre-scheduler behavior). Both arms execute the same
// number of plans per case; the scheduler redirects that identical row
// budget toward pairs not yet diffed. The headline metric is
// novel-pairs/krows — novel plan pairs diffed per thousand executor rows
// touched — and the acceptance bar is the scheduled arm scoring at
// least 3x the canonical arm.
func BenchmarkPlanPairNovelty(b *testing.B) {
	build := func() *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
		mustSetup := func(sql string) {
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		mustSetup("CREATE TABLE p0 (a0 INTEGER, x0 TEXT)")
		mustSetup("CREATE TABLE p1 (a1 INTEGER, b1 INTEGER)")
		mustSetup("CREATE TABLE p2 (b2 INTEGER, c2 INTEGER)")
		mustSetup("CREATE TABLE p3 (c3 INTEGER, x3 TEXT)")
		for i := 0; i < 24; i++ {
			mustSetup(fmt.Sprintf("INSERT INTO p0 VALUES (%d, 'p0r%d')", i%6, i))
			mustSetup(fmt.Sprintf("INSERT INTO p1 VALUES (%d, %d)", i%6, i%8))
			mustSetup(fmt.Sprintf("INSERT INTO p2 VALUES (%d, %d)", i%8, i%5))
			mustSetup(fmt.Sprintf("INSERT INTO p3 VALUES (%d, 'p3r%d')", i%5, i))
		}
		mustSetup("CREATE INDEX ip1 ON p1 (a1)")
		mustSetup("CREATE INDEX ip2 ON p2 (b2)")
		mustSetup("CREATE INDEX ip3 ON p3 (c3)")
		return db
	}

	// Three 4-relation chain shapes, each recurring four times with fresh
	// literals — same fingerprint, different Case. A 4-chain enumerates
	// well past the cap (the join-order axis alone yields 23 permutation
	// specs), so the canonical arm re-diffs the same capped prefix on
	// every recurrence while the scheduled arm walks the rest of the
	// shape's enumeration.
	const recurrences = 6
	const chain = " FROM p0 INNER JOIN p1 ON p0.a0 = p1.a1 " +
		"INNER JOIN p2 ON p1.b1 = p2.b2 INNER JOIN p3 ON p2.c2 = p3.c3 "
	shapes := []func(lit int) string{
		func(l int) string {
			return fmt.Sprintf("SELECT p0.x0, p3.x3"+chain+"WHERE p0.a0 = %d", l%6)
		},
		func(l int) string {
			return fmt.Sprintf("SELECT p1.b1, p2.c2"+chain+"WHERE p0.a0 > %d AND p3.c3 = %d",
				l%4, l%5)
		},
		func(l int) string {
			return fmt.Sprintf("SELECT p0.x0, p1.a1, p2.b2"+chain+"WHERE p2.c2 < %d", 2+l%3)
		},
	}
	type preparedCase struct {
		base *sqlast.Select
		pred sqlast.Expr
	}
	var cases []preparedCase
	for _, shape := range shapes {
		for rec := 0; rec < recurrences; rec++ {
			stmt, err := sqlparse.Shared().Parse(shape(rec))
			if err != nil {
				b.Fatal(err)
			}
			// Clone before splitting off the predicate: the shared parse
			// cache hands out one AST per distinct text, and recurrence
			// literals can collide (2+l%3 repeats for l=0 and l=3).
			sel := sqlast.CloneSelect(stmt.(*sqlast.Select))
			pred := sel.Where
			sel.Where = nil
			cases = append(cases, preparedCase{base: sel, pred: pred})
		}
	}

	run := func(b *testing.B, canonical bool) {
		db := build()
		b.ReportAllocs()
		b.ResetTimer()
		var novel, repeated int
		var rows int64
		for i := 0; i < b.N; i++ {
			pairs := feedback.NewPairTracker()
			memo := oracle.NewPlanEnumMemo()
			novel, repeated, rows = 0, 0, -db.TotalCost()
			for seq, pc := range cases {
				res := oracle.PlanDiffCase(db, &oracle.Case{
					Base: pc.base, Pred: pc.pred, Seq: seq,
					Pairs: pairs, Enum: memo, CanonicalPlans: canonical,
				})
				if res.Outcome != oracle.OK {
					b.Fatalf("case %d: %v %v %s", seq, res.Outcome, res.Err, res.Detail)
				}
				novel += res.PairsNovel
				repeated += res.PairsRepeated
			}
			rows += db.TotalCost()
		}
		b.ReportMetric(float64(novel), "novel-pairs/op")
		b.ReportMetric(float64(repeated), "repeated-pairs/op")
		b.ReportMetric(float64(rows), "rows-touched/op")
		b.ReportMetric(float64(novel)/float64(rows)*1000, "novel-pairs/krows")
	}
	b.Run("scheduled", func(b *testing.B) { run(b, false) })
	b.Run("canonical", func(b *testing.B) { run(b, true) })
}

// BenchmarkCompositeProbe measures the composite-key span against the
// leading-column-only span on the same data: 16384 rows, 16 leading
// keys × 128 trailing keys. The filter "c0 = 7 AND c1 < 8" narrows to
// 64 rows under the composite index but to 1024 under the
// single-column index — the acceptance bar is the composite span
// touching at most a tenth of the leading-only span's rows.
func BenchmarkCompositeProbe(b *testing.B) {
	setup := func(index string) *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
		if err := db.Exec("CREATE TABLE t (c0 INTEGER, c1 INTEGER, c2 TEXT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 16384; i += 16 {
			sql := "INSERT INTO t VALUES "
			for j := i; j < i+16; j++ {
				if j > i {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, %d, 'r%d')", j%16, (j/16)%128, j)
			}
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Exec(index); err != nil {
			b.Fatal(err)
		}
		return db
	}
	const q = "SELECT * FROM t WHERE c0 = 7 AND c1 < 8"
	run := func(b *testing.B, db *engine.DB) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 64 {
				b.Fatalf("got %d rows, want 64", len(res.Rows))
			}
		}
		b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	}
	b.Run("composite", func(b *testing.B) { run(b, setup("CREATE INDEX i0 ON t (c0, c1)")) })
	b.Run("leading", func(b *testing.B) { run(b, setup("CREATE INDEX i0 ON t (c0)")) })
}

// BenchmarkFilterScan measures the WHERE filter on a full scan whose
// conjuncts are both resolved column-literal comparisons: 16384 rows, no
// usable index, a two-conjunct WHERE. rows-touched/op is the charged
// cost, which the filter must keep equal to the scalar evaluator's.
func BenchmarkFilterScan(b *testing.B) {
	db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
	if err := db.Exec("CREATE TABLE t (c0 INTEGER, c1 INTEGER, c2 TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16384; i += 16 {
		sql := "INSERT INTO t VALUES "
		for j := i; j < i+16; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, 'r%d')", j%512, j%97, j)
		}
		if err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT c2 FROM t WHERE c0 > 255 AND c1 <= 48"
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows/query")
	b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkCoveringIndexSelect measures covering-index projection against
// heap projection on the same composite-indexed state: 16384 rows over
// 16 leading × 128 trailing keys, a query whose every referenced column
// sits in the index key. The "covering" arm serves results straight from
// the ordered-store entries; "heap" runs the identical state under
// PlanSpec{CoveringOff} — the PlanDiff nocover axis. rows-touched/op is
// the engine's LastCost: the covering arm charges only the index-store
// rows the span visits, with zero projection-evaluation cost on top.
func BenchmarkCoveringIndexSelect(b *testing.B) {
	setup := func(opts ...engine.Option) *engine.DB {
		db := engine.Open(dialect.MustGet("sqlite"), append([]engine.Option{engine.WithoutFaults()}, opts...)...)
		if err := db.Exec("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 16384; i += 16 {
			sql := "INSERT INTO t VALUES "
			for j := i; j < i+16; j++ {
				if j > i {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, %d, 'r%d')", j%16, (j/16)%128, j)
			}
			if err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Exec("CREATE INDEX iab ON t (a, b)"); err != nil {
			b.Fatal(err)
		}
		return db
	}
	const q = "SELECT a, b FROM t WHERE a = 7 ORDER BY b"
	run := func(b *testing.B, db *engine.DB) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1024 {
				b.Fatalf("got %d rows, want 1024", len(res.Rows))
			}
		}
		b.ReportMetric(float64(db.LastCost()), "rows-touched/op")
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
	}
	b.Run("covering", func(b *testing.B) { run(b, setup()) })
	b.Run("heap", func(b *testing.B) {
		run(b, setup(engine.WithPlanSpec(engine.PlanSpec{CoveringOff: true})))
	})
}
