//go:build !race

// The race detector instruments allocation, so the gate only builds
// without it.

package sqlancerpp

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
)

var updateLedger = flag.Bool("update", false, "append a row to testdata/perf_ledger.json")

// ledgerPath is the performance ledger: one row per recorded change,
// each holding the exact fixed-work counters of ledgerConfigs.
const ledgerPath = "testdata/perf_ledger.json"

// ledgerTolerance is how far a counter may rise above the ledger's last
// row before the gate fails. Repeated runs agree to under 0.1%.
const ledgerTolerance = 0.005

// ledgerCases and ledgerSeed fix the work each configuration does.
const (
	ledgerCases = 3000
	ledgerSeed  = 1
)

// perfLedger is the ledger file.
type perfLedger struct {
	Comment string      `json:"_comment"`
	Rows    []ledgerRow `json:"rows"`
}

// ledgerRow is one recorded measurement. MallocsPerCase is gated;
// Recorded holds figures carried over from earlier records that no
// test recomputes.
type ledgerRow struct {
	Change         string             `json:"change"`
	MallocsPerCase map[string]float64 `json:"mallocs_per_case"`
	Recorded       json.RawMessage    `json:"recorded,omitempty"`
}

// ledgerConfig is one gated campaign configuration. The three mirror
// the benchmark's workloads (sqlite oracle loop, tidb plan diffing,
// cratedb bug hunt).
type ledgerConfig struct {
	name    string
	dialect string
	oracles []oracle.Name
	reduce  bool
	sharded bool
}

var ledgerConfigs = []ledgerConfig{
	{name: "oracle-loop", dialect: "sqlite",
		oracles: []oracle.Name{oracle.TLPName, oracle.TLPComposedName, oracle.TLPAggregateName, oracle.NoRECName}},
	{name: "plan-diff", dialect: "tidb", oracles: []oracle.Name{oracle.PlanDiffName}},
	{name: "bughunt", dialect: "cratedb", oracles: oracle.DefaultNames(), reduce: true, sharded: true},
}

// run executes the configuration's campaign once.
func (c ledgerConfig) run(t *testing.T) {
	t.Helper()
	cfg := campaign.Config{
		Dialect:    dialect.MustGet(c.dialect),
		Mode:       campaign.Adaptive,
		TestCases:  ledgerCases,
		SetupStmts: 14,
		CasesPerDB: 200,
		SmokeEvery: 5,
		Seed:       ledgerSeed,
		Oracles:    c.oracles,
		Threshold:  0.05,
		ReduceBugs: c.reduce,
	}
	var err error
	if c.sharded {
		_, err = campaign.RunShardedOpts(cfg, campaign.ShardedOptions{
			Workers:        2,
			CheckpointPath: filepath.Join(t.TempDir(), "run.ckpt"),
		})
	} else {
		var r *campaign.Runner
		if r, err = campaign.New(cfg); err == nil {
			_, err = r.Run()
		}
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
}

// mallocsPerCase is the runtime.MemStats.Mallocs delta of one run,
// divided by its case count, after one warm-up run.
func (c ledgerConfig) mallocsPerCase(t *testing.T) float64 {
	c.run(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.run(t)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / ledgerCases
}

// TestPerfLedger recomputes the fixed-work allocation counters and
// fails when one rises more than ledgerTolerance above the ledger's
// last row. go test -run TestPerfLedger -update appends the measured
// row instead, so a change records its own effect.
func TestPerfLedger(t *testing.T) {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var ledger perfLedger
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Rows) == 0 && !*updateLedger {
		t.Fatal("the ledger has no rows")
	}
	got := map[string]float64{}
	for _, c := range ledgerConfigs {
		got[c.name] = c.mallocsPerCase(t)
		t.Logf("%s: %.2f mallocs per case", c.name, got[c.name])
	}
	if *updateLedger {
		// The new row's change label is left for its author to fill in.
		for name, v := range got {
			got[name] = math.Round(v*100) / 100
		}
		ledger.Rows = append(ledger.Rows, ledgerRow{MallocsPerCase: got})
		out, err := json.MarshalIndent(ledger, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	last := ledger.Rows[len(ledger.Rows)-1]
	for _, c := range ledgerConfigs {
		want, ok := last.MallocsPerCase[c.name]
		if !ok {
			t.Errorf("%s: no figure in the ledger's last row", c.name)
			continue
		}
		if got[c.name] > want*(1+ledgerTolerance) {
			t.Errorf("%s: %.2f mallocs per case, more than %.1f%% above the ledger's %.2f (%q)",
				c.name, got[c.name], 100*ledgerTolerance, want, last.Change)
		}
	}
}
