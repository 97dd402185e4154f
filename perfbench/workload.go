package main

import (
	"strings"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/core/oracle"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
)

// workload is one fixed-work campaign configuration.
type workload struct {
	name    string
	dialect string
	oracles []oracle.Name
	reduce  bool
	// sharded runs the campaign through RunShardedOpts with shardWorkers
	// workers and a checkpoint in a fresh temporary directory; otherwise
	// it runs on the serial runner.
	sharded bool
	// cases is the oracle-check budget of one campaign call.
	cases int
}

// shardWorkers is the sharded workload's worker count.
const shardWorkers = 2

// Campaign seeds per run, derived from the workload seed. Campaigns
// differ by seed (which features the tracker rejects, which faults fire,
// how heavy each database state's queries are), so an end-to-end run
// pools many; the traced run, whose metrics carry no bound, uses the
// first few.
const (
	endToEndSeeds = 40
	tracedSeeds   = 4
)

var workloads = []workload{
	{
		// The steady-state per-case pipeline: generate, parse, execute
		// full-scan filters, compare, feed back. Few bugs, so prioritize,
		// reduce, plan enumeration and checkpointing stay idle.
		name:    "oracle-loop",
		dialect: "sqlite",
		oracles: []oracle.Name{oracle.TLPName, oracle.TLPComposedName, oracle.TLPAggregateName, oracle.NoRECName},
		cases:   3000,
	},
	{
		// The planner path: index spans, plan enumeration, many plans
		// executed per query, the plan-pair tracker and enumeration memo.
		name:    "plan-diff",
		dialect: "tidb",
		oracles: []oracle.Name{oracle.PlanDiffName},
		cases:   3000,
	},
	{
		// Low validity and many bugs: feedback learns many unsupported
		// features, the prioritizer and reducer work, and every completed
		// shard rewrites the checkpoint.
		name:    "bughunt-sharded",
		dialect: "cratedb",
		oracles: oracle.DefaultNames(),
		reduce:  true,
		sharded: true,
		cases:   3000,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// workers is the worker count of the workload's standard run (0 for the
// serial runner).
func (w workload) workers() int {
	if w.sharded {
		return shardWorkers
	}
	return 0
}

// config is the campaign configuration of one campaign call. Every
// default the traced driver relies on is spelled out, so the driver and
// the runner cannot drift apart through a changed default.
func (w workload) config(d *dialect.Dialect, seed int64, cases int) campaign.Config {
	return campaign.Config{
		Dialect:    d,
		Mode:       campaign.Adaptive,
		TestCases:  cases,
		SetupStmts: 14,
		CasesPerDB: 200,
		SmokeEvery: 5,
		Seed:       seed,
		Oracles:    w.oracles,
		Threshold:  0.05,
		ReduceBugs: w.reduce,
		BatchSize:  engine.DefaultBatchSize,
	}
}

// splitmix64 advances a splitmix64 sequence, as the campaign's shard
// seeding does.
func splitmix64(x uint64) (next uint64, value int64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return x, int64(z)
}

// campaignSeeds derives a run's first n campaign seeds from its workload
// seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	seq := uint64(seed) ^ 0x7065726662656e63 // "perfbenc": keeps these apart from shard seeds
	for i := range out {
		seq, out[i] = splitmix64(seq)
	}
	return out
}
