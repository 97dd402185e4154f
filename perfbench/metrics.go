package main

import (
	"math"
	"sort"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists
// the same names and units; the smoke test holds the two in step.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"cases_per_s", "1/s"},
	{"valid_cases_per_s", "1/s"},
	{"validity_pct", "%"},
	{"unique_bugs", "count"},
	{"unique_prioritized", "count"},
	{"setup_s", "s"},
	{"cpu_us_per_case", "us"},
	{"alloc_bytes_per_case", "B"},
	{"allocs_per_case", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"gen.us_per_case", "us"},
	{"gen.stmts_per_case", "count"},
	{"sqlparse.cache_hit_pct", "%"},
	{"sqlparse.misses_per_case", "count"},
	{"sqlparse.us_per_miss", "us"},
	{"engine.us_per_stmt", "us"},
	{"engine.stmts_per_case", "count"},
	{"engine.rows_touched_per_case", "count"},
	{"engine.reject_pct", "%"},
	{"oracle.TLP.us_per_check", "us"},
	{"oracle.TLPComposed.us_per_check", "us"},
	{"oracle.TLPAggregate.us_per_check", "us"},
	{"oracle.NoREC.us_per_check", "us"},
	{"oracle.PlanDiff.us_per_check", "us"},
	{"oracle.compare_us_per_check", "us"},
	{"oracle.queries_per_check", "count"},
	{"oracle.plandiff.plans_per_case", "count"},
	{"oracle.plandiff.novel_pair_pct", "%"},
	{"feedback.us_per_case", "us"},
	{"feedback.unsupported_features", "count"},
	{"prioritize.us_per_bug", "us"},
	{"prioritize.kept_pct", "%"},
	{"reduce.ms_per_bug", "ms"},
	{"reduce.replays_per_bug", "count"},
	{"reduce.stmt_ratio", "ratio"},
	{"campaign.case_p50_us", "us"},
	{"campaign.case_tail_us", "us"},
	{"campaign.case_tail_pctile", "%"},
	{"campaign.case_samples", "count"},
	{"campaign.ckpt_bytes_per_case", "B"},
	{"campaign.ckpt_overhead_pct", "%"},
	{"campaign.shard_speedup", "ratio"},
	{"go.gc_cpu_pct", "%"},
	{"trace.span_coverage_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// endToEndMetrics pools a run's campaigns. Each campaign seed's
// repetitions reduce to their median wall time, CPU time, allocations and
// peak RSS; the rates then pool over the seeds (total checks over total
// time), and the bug counts average the campaigns' reports. Set-up time
// is the median of every repetition.
func endToEndMetrics(reps [][]childResult) map[string]float64 {
	var cases, valid, wall, cpu, allocBytes, allocs, bugs, prioritized float64
	var rss, setups []float64
	for _, rs := range reps {
		med := func(f func(childResult) float64) float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = f(r)
			}
			return median(vs)
		}
		r := rs[0] // repetitions agree on everything but resource use
		cases += float64(r.TestCases)
		valid += float64(r.ValidCases)
		bugs += float64(r.UniqueBugs) / float64(len(reps))
		prioritized += float64(r.UniquePrioritized) / float64(len(reps))
		wall += med(func(r childResult) float64 { return r.WallS })
		cpu += med(func(r childResult) float64 { return r.CPUS })
		allocBytes += med(func(r childResult) float64 { return r.AllocBytes })
		allocs += med(func(r childResult) float64 { return r.Allocs })
		rss = append(rss, med(func(r childResult) float64 { return r.PeakRSSMB }))
		for _, r := range rs {
			setups = append(setups, r.SetupS)
		}
	}
	return map[string]float64{
		"cases_per_s":          cases / wall,
		"valid_cases_per_s":    valid / wall,
		"validity_pct":         100 * valid / cases,
		"unique_bugs":          bugs,
		"unique_prioritized":   prioritized,
		"setup_s":              median(setups),
		"cpu_us_per_case":      1e6 * cpu / cases,
		"alloc_bytes_per_case": allocBytes / cases,
		"allocs_per_case":      allocs / cases,
		"peak_rss_mb":          median(rss),
	}
}

// runSums adds up the real-campaign runs of one traced pass.
type runSums struct {
	cases            int
	wall, writeBytes float64
	gcCPU, busyCPU   float64
}

func (s *runSums) add(r childResult) {
	s.cases += r.TestCases
	s.wall += r.WallS
	s.writeBytes += r.WriteBytes
	s.gcCPU += r.GCCPUS
	s.busyCPU += r.BusyCPUS
}

// tracedPass sums one traced pass over the campaign seeds.
type tracedPass struct {
	// ref is the workload's standard run; serial (1 worker) and noCkpt
	// (no checkpoint) are the sharded workload's comparison runs.
	ref, serial, noCkpt runSums
	// traceWall and refWall are the traced driver's wall time and that of
	// the real campaign doing the same work in the same order.
	traceWall, refWall float64
	failed             int
	layers             layerStats
}

// metrics derives the per-layer metrics from one traced pass.
//
// A span's wall time belongs to its layer, except that the engine and
// the parser also run inside other layers' calls: the oracle executes its
// queries through the engine, and the engine parses every statement. The
// CPU samples taken inside engine and oracle spans split those spans'
// time by the innermost layer frame on each sample's stack.
func (tp *tracedPass) metrics(w workload) map[string]float64 {
	st := &tp.layers
	cases := float64(st.Cases)
	share := func(s span, b bucket) float64 {
		total := 0
		for _, n := range st.Samples[s] {
			total += n
		}
		return ratio(float64(st.Samples[s][b]), float64(total))
	}
	spanUs := func(s span) float64 { return float64(st.SpanNs[s]) / 1e3 }
	engineUs := spanUs(spanEngine)*share(spanEngine, bucketEngine) + spanUs(spanOracle)*share(spanOracle, bucketEngine)
	parseUs := spanUs(spanEngine)*share(spanEngine, bucketParse) + spanUs(spanOracle)*share(spanOracle, bucketParse)
	checks := 0
	for _, n := range st.Checks {
		checks += n
	}
	var covered int64
	for _, ns := range st.SpanNs {
		covered += ns
	}
	p50, tail, tailPct := caseLatency(st.CaseNs)

	m := map[string]float64{
		"gen.us_per_case":              spanUs(spanGen) / cases,
		"gen.stmts_per_case":           float64(st.GenStmts) / cases,
		"sqlparse.cache_hit_pct":       100 * ratio(float64(st.ParseHits), float64(st.ParseHits+st.ParseMisses)),
		"sqlparse.misses_per_case":     float64(st.ParseMisses) / cases,
		"sqlparse.us_per_miss":         ratio(parseUs, float64(st.ParseMisses)),
		"engine.us_per_stmt":           ratio(engineUs, float64(st.EngineStmts)),
		"engine.stmts_per_case":        float64(st.EngineStmts) / cases,
		"engine.rows_touched_per_case": float64(st.RowsTouched) / cases,
		"engine.reject_pct":            100 * ratio(float64(st.EngineRejects), float64(st.EngineStmts)),
		"oracle.compare_us_per_check":  ratio(spanUs(spanOracle)*share(spanOracle, bucketOwn), float64(checks)),
		"oracle.queries_per_check":     ratio(float64(st.OracleQueries), float64(checks)),
		"oracle.plandiff.plans_per_case": ratio(float64(st.PlanDiffPlans),
			float64(st.Checks[oracleIndex("PlanDiff")])),
		"oracle.plandiff.novel_pair_pct": 100 * ratio(float64(st.PairsNovel), float64(st.PairsNovel+st.PairsRepeated)),
		"feedback.us_per_case":           spanUs(spanFeedback) / cases,
		"feedback.unsupported_features":  float64(st.Unsupported) / tracedSeeds,
		"prioritize.us_per_bug":          ratio(spanUs(spanPrioritize), float64(st.Detected)),
		"prioritize.kept_pct":            100 * ratio(float64(st.Prioritized), float64(st.Detected)),
		"reduce.ms_per_bug":              ratio(float64(st.ReduceNs)/1e6, float64(st.ReduceAttempts)),
		"reduce.replays_per_bug":         ratio(float64(st.Replays), float64(st.ReduceAttempts)),
		"reduce.stmt_ratio":              ratio(float64(st.ReduceOut), float64(st.ReduceIn)),
		"campaign.case_p50_us":           p50,
		"campaign.case_tail_us":          tail,
		"campaign.case_tail_pctile":      tailPct,
		"campaign.case_samples":          float64(len(st.CaseNs)),
		"campaign.ckpt_bytes_per_case":   ratio(tp.ref.writeBytes, float64(tp.ref.cases)),
		"go.gc_cpu_pct":                  100 * ratio(tp.ref.gcCPU, tp.ref.busyCPU),
		"trace.span_coverage_pct":        100 * ratio(float64(covered), float64(st.DriverNs)),
		"trace.overhead_pct":             100 * (ratio(tp.traceWall, tp.refWall) - 1),
	}
	for i, n := range oracleNames {
		m["oracle."+string(n)+".us_per_check"] = ratio(float64(st.CheckNs[i])/1e3, float64(st.Checks[i]))
	}
	if w.sharded {
		m["campaign.ckpt_overhead_pct"] = 100 * (ratio(tp.ref.wall, tp.noCkpt.wall) - 1)
		m["campaign.shard_speedup"] = ratio(tp.serial.wall, tp.noCkpt.wall)
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// caseLatency returns the median case time and the highest tail
// percentile that still has at least ten samples beyond it, in
// microseconds, with that percentile.
func caseLatency(ns []int64) (p50, tail, pct float64) {
	if len(ns) == 0 {
		return 0, 0, 0
	}
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e3
	}
	sort.Float64s(xs)
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return nearestRank(xs, 50), nearestRank(xs, p), p
		}
	}
	return nearestRank(xs, 50), xs[len(xs)-1], 100
}

// nearestRank returns the p-th percentile of sorted xs.
func nearestRank(xs []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
