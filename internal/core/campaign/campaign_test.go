package campaign

import (
	"slices"
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

// TestCleanDialectNoFalsePositives is the platform's soundness anchor: on
// a fault-free dialect, the TLP partition property and the NoREC
// equivalence are invariants of the engine, so a campaign must report
// zero bugs. Any detection here is a bug in this repository.
func TestCleanDialectNoFalsePositives(t *testing.T) {
	for _, name := range []string{"postgresql", "sqlite", "mysql", "cratedb"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d := dialect.MustGet(name).Clone()
			d.Faults = nil // pristine system
			r, err := New(Config{
				Dialect:   d,
				Mode:      Adaptive,
				TestCases: 600,
				Seed:      7,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected != 0 {
				var detail string
				if len(rep.Bugs) > 0 {
					detail = rep.Bugs[0].Detail + " | " + join(rep.Bugs[0].Queries)
				}
				t.Fatalf("clean %s produced %d bug reports (false positives): %s",
					name, rep.Detected, detail)
			}
			if rep.TestCases == 0 || rep.ValidCases == 0 {
				t.Fatalf("campaign made no progress: %+v", rep)
			}
		})
	}
}

func join(qs []string) string {
	out := ""
	for _, q := range qs {
		out += q + "; "
	}
	return out
}

// TestFaultedDialectFindsBugs checks the whole pipeline end to end: on a
// dialect with injected faults the campaign must detect bugs, attribute
// them to ground-truth faults, and produce zero false positives.
func TestFaultedDialectFindsBugs(t *testing.T) {
	d := dialect.MustGet("cratedb")
	r, err := New(Config{
		Dialect:   d,
		Mode:      Adaptive,
		TestCases: 1500,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected == 0 {
		t.Fatal("no bugs detected on the fault-injected CrateDB dialect")
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("%d false positives (bug cases without ground-truth fault)", rep.FalsePositives)
	}
	if rep.UniqueGroundTruth == 0 {
		t.Fatal("no ground-truth faults attributed")
	}
	if rep.Prioritized == 0 || rep.Prioritized > rep.Detected {
		t.Fatalf("prioritizer out of range: %d of %d", rep.Prioritized, rep.Detected)
	}
	t.Logf("detected=%d prioritized=%d unique=%d validity=%.1f%%",
		rep.Detected, rep.Prioritized, rep.UniqueGroundTruth, 100*rep.ValidityRate())
}

// TestSmokeQueriesReachPerfWatchdog checks that free-form smoke queries
// go through the performance watchdog: umbra's PerfOnFeature fault on
// DISTINCT fires only on SELECT DISTINCT statements, which the oracle
// cases never generate, so a perf bug attributed to it can come only
// from a smoke query. The same campaign on a fault-free engine reports
// no perf bug.
func TestSmokeQueriesReachPerfWatchdog(t *testing.T) {
	d := dialect.MustGet("umbra")
	var faultID string
	for _, f := range d.Faults.All() {
		if f.Kind == faults.PerfOnFeature && f.Param == "DISTINCT" {
			faultID = f.ID
		}
	}
	if faultID == "" {
		t.Fatal("umbra has no PerfOnFeature DISTINCT fault")
	}
	run := func(d *dialect.Dialect) *Report {
		t.Helper()
		r, err := New(Config{Dialect: d, Mode: Adaptive, TestCases: 1000, Seed: 26, PerfCostLimit: 500_000})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	attributed := 0
	for _, b := range run(d).Bugs {
		if b.Class == ClassPerf && slices.Contains(b.Triggered, faultID) {
			attributed++
		}
	}
	if attributed == 0 {
		t.Errorf("no perf bug attributed to %s", faultID)
	}
	clean := d.Clone()
	clean.Faults = nil
	if n := run(clean).DetectedByClass[ClassPerf]; n != 0 {
		t.Errorf("fault-free engine: %d perf bugs", n)
	}
}
