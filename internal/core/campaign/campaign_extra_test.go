package campaign

import (
	"sqlancerpp/internal/feature"
	"testing"

	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/faults"
)

// crashDialect builds a dialect whose only fault crashes on LIKE.
func crashDialect(name string) *dialect.Dialect {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = name
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: name + "-crash", Dialect: name, Class: faults.Crash,
			Kind: faults.CrashOnFeature, Param: "LIKE"},
	})
	return d
}

func TestCampaignSurvivesCrashes(t *testing.T) {
	r, err := New(Config{
		Dialect:   crashDialect("crash-test-1"),
		Mode:      Adaptive,
		TestCases: 800,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedByClass[ClassCrash] == 0 {
		t.Fatal("campaign never hit the crash fault")
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("crash cases without ground truth: %d", rep.FalsePositives)
	}
	// The campaign must keep making progress after crashes (restart).
	if rep.ValidCases == 0 {
		t.Fatal("no valid cases after crashes — restart handling broken")
	}
	// The crash bug is attributed.
	if rep.UniqueGroundTruth != 1 {
		t.Fatalf("unique ground truth = %d, want 1", rep.UniqueGroundTruth)
	}
}

func TestCampaignPerfWatchdog(t *testing.T) {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "perf-test-1"
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: "perf-test-1-p", Dialect: d.Name, Class: faults.Perf,
			Kind: faults.PerfOnFeature, Param: "BETWEEN"},
	})
	r, err := New(Config{
		Dialect:       d,
		Mode:          Adaptive,
		TestCases:     800,
		Seed:          17,
		PerfCostLimit: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedByClass[ClassPerf] == 0 {
		t.Fatal("perf watchdog never fired")
	}
	if rep.FalsePositives != 0 {
		t.Fatalf("perf cases without ground truth: %d", rep.FalsePositives)
	}
}

func TestCampaignInternalErrors(t *testing.T) {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "interr-test-1"
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: "interr-test-1-e", Dialect: d.Name, Class: faults.Error,
			Kind: faults.InternalErrorOnFeature, Param: "COALESCE"},
	})
	r, err := New(Config{
		Dialect: d, Mode: Adaptive, TestCases: 800, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DetectedByClass[ClassError] == 0 {
		t.Fatal("internal-error fault never detected")
	}
}

func TestPrioritizerFeatureProjection(t *testing.T) {
	in := feature.KnownSetOf([]string{
		"NULLIF", "!=", "SELECT", "WHERE", "CONSTANT", "COLUMN",
		"SIN#1=INTEGER", "INTEGER", "LEFT JOIN", "CASE", "IMPLICIT CAST",
	})
	projected := prioritizerFeatures(&in)
	got := projected.Names()
	want := map[string]bool{"NULLIF": true, "!=": true, "LEFT JOIN": true, "CASE": true}
	if len(got) != len(want) {
		t.Fatalf("projected set %v, want keys %v", got, want)
	}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("unexpected feature %q in projection", f)
		}
	}
}

func TestRefreshDialectCampaign(t *testing.T) {
	// CrateDB-style visibility: the campaign's adapter issues REFRESH
	// after inserts, so oracle queries see rows and bugs are findable.
	d := dialect.MustGet("cratedb")
	r, err := New(Config{Dialect: d, Mode: Adaptive, TestCases: 1200, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected == 0 {
		t.Fatal("no bugs found — inserted rows may be invisible (REFRESH adapter broken)")
	}
}

func TestKeepAllCases(t *testing.T) {
	d := dialect.MustGet("cratedb")
	r, err := New(Config{
		Dialect: d, Mode: Adaptive, TestCases: 1200, Seed: 29, KeepAllCases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AllCases) != rep.Detected {
		t.Fatalf("AllCases %d != Detected %d", len(rep.AllCases), rep.Detected)
	}
}

func TestModeLabels(t *testing.T) {
	if Adaptive.String() != "SQLancer++" || Rand.String() != "SQLancer++ Rand" ||
		Baseline.String() != "SQLancer" {
		t.Fatal("mode labels must match the paper's")
	}
}

// TestCampaignExercisesIndexPath: with the raised CREATE INDEX weight,
// a modest campaign must reach database states whose oracle queries go
// through the engine's index-backed access path — otherwise the whole
// index fault family is dead weight.
func TestCampaignExercisesIndexPath(t *testing.T) {
	rec := coverage.NewRecorder()
	r, err := New(Config{
		Dialect: dialect.MustGet("sqlite"), Mode: Adaptive,
		TestCases: 2000, Seed: 5, Coverage: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	for _, p := range rec.HitPoints() {
		hit[p] = true
	}
	if !hit["exec.createindex"] {
		t.Fatal("campaign never created an index")
	}
	if !hit["exec.scan.index"] {
		t.Fatal("campaign never took the index-backed access path")
	}
}

// TestReplayRestartsAfterCrash is the regression test for the reducer's
// replay loop: a crashing setup statement latches the engine's crashed
// flag, and without a restart every subsequent statement fails — one
// crash would poison the whole replay and block reduction.
func TestReplayRestartsAfterCrash(t *testing.T) {
	d := crashDialect("crash-replay-test")
	stmts := []string{
		"CREATE TABLE t0 (c0 TEXT)",
		"INSERT INTO t0 (c0) VALUES ('a')",
		"SELECT * FROM t0 WHERE c0 LIKE 'a%'", // crashes the server
		"INSERT INTO t0 (c0) VALUES ('b')",    // must still execute
	}
	db := engine.Open(d)
	replayStmts(db, stmts)
	res, err := db.Query("SELECT * FROM t0")
	if err != nil {
		t.Fatalf("post-replay query failed (replay poisoned by the crash): %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("replay after crash executed %d of 2 inserts", len(res.Rows))
	}
}
