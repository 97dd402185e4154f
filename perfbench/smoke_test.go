package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMain lets spawn re-execute the test binary as a child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// layerUse lists, per workload, per-layer metrics that must read zero
// (the workload does not exercise the layer) or non-zero.
var layerUse = map[string]struct{ zero, nonZero []string }{
	"oracle-loop": {
		zero: []string{"campaign.ckpt_bytes_per_case", "campaign.ckpt_overhead_pct",
			"campaign.shard_speedup", "oracle.PlanDiff.us_per_check",
			"oracle.plandiff.plans_per_case", "oracle.plandiff.novel_pair_pct",
			"reduce.ms_per_bug", "reduce.replays_per_bug", "reduce.stmt_ratio"},
		nonZero: []string{"oracle.TLP.us_per_check", "oracle.NoREC.us_per_check",
			"oracle.compare_us_per_check", "engine.us_per_stmt", "sqlparse.us_per_miss"},
	},
	"plan-diff": {
		zero: []string{"campaign.ckpt_bytes_per_case", "campaign.ckpt_overhead_pct",
			"campaign.shard_speedup", "oracle.TLP.us_per_check", "oracle.TLPComposed.us_per_check",
			"oracle.TLPAggregate.us_per_check", "oracle.NoREC.us_per_check",
			"reduce.ms_per_bug", "reduce.replays_per_bug", "reduce.stmt_ratio"},
		nonZero: []string{"oracle.PlanDiff.us_per_check", "oracle.plandiff.plans_per_case",
			"oracle.plandiff.novel_pair_pct"},
	},
	"bughunt-sharded": {
		nonZero: []string{"campaign.ckpt_bytes_per_case", "campaign.shard_speedup",
			"oracle.TLP.us_per_check", "oracle.PlanDiff.us_per_check", "feedback.unsupported_features"},
	},
}

// declared reads BENCHMARK.json's metric names and units.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at a tiny budget in both modes and checks
// that every declared metric is emitted with its unit, and which layers
// each workload exercises.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := bench(options{workload: w.name, seed: 1, trace: trace, cases: 400, tmpDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json declares %d",
					w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %q", w.name, trace, name, m, unit)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%t: attempted %d, failed %d, correct %t",
					w.name, trace, res.Attempted, res.Failed, res.Correct)
			}
			if !trace {
				for _, name := range []string{"cases_per_s", "setup_s", "cpu_us_per_case", "allocs_per_case", "peak_rss_mb"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
				continue
			}
			use := layerUse[w.name]
			for _, name := range use.zero {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0 (layer not exercised)", w.name, name, v)
				}
			}
			for _, name := range use.nonZero {
				if v := res.Metrics[name].Value; v == 0 {
					t.Errorf("%s: %s = 0, want non-zero", w.name, name)
				}
			}
			if v := res.Metrics["trace.span_coverage_pct"].Value; v < 90 {
				t.Errorf("%s: span coverage %.1f%%, want >= 90%%", w.name, v)
			}
		}
	}
}
