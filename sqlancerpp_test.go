package sqlancerpp

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanEngineIsQuiet(t *testing.T) {
	report, err := Run(Options{
		DBMS:        "sqlite",
		TestCases:   400,
		Seed:        1,
		CleanEngine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Detected != 0 || report.FalsePositives != 0 {
		t.Fatalf("clean engine produced bugs: %+v", report)
	}
	if report.TestCases != 400 {
		t.Fatalf("test cases = %d, want 400", report.TestCases)
	}
	if report.ValidityRate <= 0 {
		t.Fatal("validity rate must be positive")
	}
}

func TestRunFindsInjectedBugs(t *testing.T) {
	report, err := Run(Options{
		DBMS:      "cratedb",
		TestCases: 2500,
		Seed:      3,
		Reduce:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.UniqueBugs == 0 {
		t.Fatal("no unique bugs on the fault-injected CrateDB dialect")
	}
	if report.FalsePositives != 0 {
		t.Fatalf("%d false positives", report.FalsePositives)
	}
	foundReduced := false
	for _, b := range report.Bugs {
		if len(b.GroundTruthFaults) == 0 && b.Class == "logic" {
			t.Fatalf("logic bug without ground truth: %+v", b)
		}
		if len(b.Reduced) > 0 {
			foundReduced = true
			if len(b.Reduced) > len(b.Setup)+len(b.Queries) {
				t.Fatal("reduction must not grow the case")
			}
		}
	}
	if !foundReduced {
		t.Log("note: no case reproduced from pristine state for reduction")
	}
}

func TestRunOracleSelection(t *testing.T) {
	for _, oracle := range []string{"tlp", "norec", "both", ""} {
		if _, err := Run(Options{DBMS: "sqlite", TestCases: 50, Oracle: oracle, CleanEngine: true}); err != nil {
			t.Fatalf("oracle %q: %v", oracle, err)
		}
	}
	if _, err := Run(Options{DBMS: "sqlite", Oracle: "bogus"}); err == nil {
		t.Fatal("unknown oracle must be rejected")
	}
	if _, err := Run(Options{DBMS: "nope"}); err == nil {
		t.Fatal("unknown dialect must be rejected")
	}
}

func TestFeedbackStateReuse(t *testing.T) {
	first, err := Run(Options{DBMS: "postgresql", TestCases: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.FeedbackState) == 0 {
		t.Fatal("no feedback state returned")
	}
	second, err := Run(Options{
		DBMS: "postgresql", TestCases: 1500, Seed: 10,
		FeedbackState: first.FeedbackState,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.ValidityRate < first.ValidityRate {
		t.Fatalf("warm start regressed validity: %.3f -> %.3f",
			first.ValidityRate, second.ValidityRate)
	}
}

func TestOpenAndQuery(t *testing.T) {
	db, err := Open("sqlite", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("CREATE TABLE t (a INTEGER, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("INSERT INTO t (a, b) VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := db.Query("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(cols, ",") != "a,b" {
		t.Fatalf("columns = %v", cols)
	}
	if len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "'x'" {
		t.Fatalf("rows = %v", rows)
	}
	// Faulted instance exposes ground truth.
	db2, err := Open("sqlite", false)
	if err != nil {
		t.Fatal(err)
	}
	_ = db2.Exec("CREATE TABLE t (a TEXT, PRIMARY KEY (a))")
	_ = db2.Exec("INSERT INTO t (a) VALUES ('01')")
	_, _, _ = db2.Query("SELECT * FROM t WHERE t.a = REPLACE('1', ' ', '0')")
	if len(db2.TriggeredFaults()) == 0 {
		t.Fatal("REPLACE fault should have triggered on faulted sqlite")
	}
}

func TestRegisterDialect(t *testing.T) {
	err := RegisterDialect(DialectSpec{
		Name:            "unit-test-dbms",
		Base:            "mysql",
		RemoveFeatures:  []string{"XOR", "INSTR"},
		AddFeatures:     []string{"||", "GCD"},
		RequiresRefresh: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range Dialects() {
		if d == "unit-test-dbms" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered dialect not listed")
	}
	db, err := Open("unit-test-dbms", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("SELECT 'a' || 'b'"); err != nil {
		t.Fatalf("added || must work: %v", err)
	}
	if err := db.Exec("SELECT GCD(4, 6)"); err != nil {
		t.Fatalf("added GCD must work: %v", err)
	}
	if err := db.Exec("SELECT TRUE XOR FALSE"); err == nil {
		t.Fatal("removed XOR must fail")
	}
	if err := db.Exec("SELECT INSTR('ab', 'b')"); err == nil {
		t.Fatal("removed INSTR must fail")
	}
	// Refresh semantics inherited from the spec.
	_ = db.Exec("CREATE TABLE t (a INTEGER)")
	_ = db.Exec("INSERT INTO t (a) VALUES (1)")
	_, rows, _ := db.Query("SELECT * FROM t")
	if len(rows) != 0 {
		t.Fatal("RequiresRefresh dialect must hide rows before REFRESH")
	}
	// Duplicate registration fails; unknown base fails.
	if err := RegisterDialect(DialectSpec{Name: "unit-test-dbms", Base: "mysql"}); err == nil {
		t.Fatal("duplicate dialect must be rejected")
	}
	if err := RegisterDialect(DialectSpec{Name: "x", Base: "nope"}); err == nil {
		t.Fatal("unknown base must be rejected")
	}
}

func TestPaperDBMSList(t *testing.T) {
	list := PaperDBMSs()
	if len(list) != 18 {
		t.Fatalf("paper DBMS count = %d", len(list))
	}
	list[0] = "mutated"
	if PaperDBMSs()[0] == "mutated" {
		t.Fatal("PaperDBMSs must return a copy")
	}
}

func TestBaselineMode(t *testing.T) {
	report, err := Run(Options{
		DBMS: "sqlite", TestCases: 400, Seed: 2, Baseline: true, CleanEngine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Mode != "SQLancer" {
		t.Fatalf("mode = %q, want SQLancer", report.Mode)
	}
	report2, err := Run(Options{
		DBMS: "sqlite", TestCases: 400, Seed: 2, NoFeedback: true, CleanEngine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report2.Mode != "SQLancer++ Rand" {
		t.Fatalf("mode = %q, want SQLancer++ Rand", report2.Mode)
	}
}

func TestRunWorkersDeterministic(t *testing.T) {
	opts := func(workers int) Options {
		return Options{DBMS: "sqlite", TestCases: 600, Seed: 11, Workers: workers}
	}
	serial, err := Run(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(opts(4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Workers=4 report differs from Workers=1")
	}
	if serial.Detected == 0 || serial.UniqueBugs == 0 {
		t.Fatalf("sharded campaign found nothing: %+v", serial)
	}
	if serial.FalsePositives != 0 {
		t.Fatalf("false positives: %d", serial.FalsePositives)
	}
}

func TestRunWorkersCleanEngineIsQuiet(t *testing.T) {
	rep, err := Run(Options{DBMS: "postgresql", TestCases: 400, Seed: 5,
		Workers: 3, CleanEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != 0 {
		t.Fatalf("clean engine reported %d bug cases", rep.Detected)
	}
}

// TestRunResumeNeedsCheckpoint: Resume without a Checkpoint is refused
// rather than silently running a fresh sharded campaign.
func TestRunResumeNeedsCheckpoint(t *testing.T) {
	if _, err := Run(Options{DBMS: "sqlite", TestCases: 50, Resume: true}); err == nil {
		t.Fatal("Resume without Checkpoint must be rejected")
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Run(Options{DBMS: "sqlite", TestCases: 50, Checkpoint: path, Resume: true}); err != nil {
		t.Fatalf("Resume with a Checkpoint: %v", err)
	}
}

// TestRegisterDialectUnknownFeature: a feature name outside the table is
// an error that names it, whether added or removed.
func TestRegisterDialectUnknownFeature(t *testing.T) {
	for _, spec := range []DialectSpec{
		{Name: "unknown-add-test", Base: "sqlite", AddFeatures: []string{"NO SUCH FEATURE"}},
		{Name: "unknown-remove-test", Base: "sqlite", RemoveFeatures: []string{"NO SUCH FEATURE"}},
	} {
		err := RegisterDialect(spec)
		if err == nil || !strings.Contains(err.Error(), `"NO SUCH FEATURE"`) {
			t.Errorf("%s: error = %v, want one naming the feature", spec.Name, err)
		}
	}
}
