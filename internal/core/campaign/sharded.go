package campaign

import (
	"fmt"
	"sqlancerpp/internal/feature"

	"sqlancerpp/internal/core/feedback"
	"sqlancerpp/internal/core/prioritize"
)

// splitmix64 advances a seed sequence and returns the new state plus the
// derived value (Steele et al., "Fast splittable pseudorandom number
// generators"). Shard seeds come from this sequence so that shard i's
// generator stream is a pure function of (Config.Seed, i).
func splitmix64(x uint64) (next uint64, value int64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return x, int64(z)
}

// ShardCount returns the number of logical shards RunShardedOpts partitions
// a configuration into: one shard per database epoch (CasesPerDB oracle
// checks). The partition depends on the configuration only — never on
// the worker count — which is what makes the merged report reproducible
// on any machine.
func ShardCount(cfg Config) int {
	cfg = cfg.withDefaults()
	n := (cfg.TestCases + cfg.CasesPerDB - 1) / cfg.CasesPerDB
	if n < 1 {
		n = 1
	}
	return n
}

// shardConfigs partitions a resolved configuration into per-shard
// configurations: one shard per database epoch, each with a seed derived
// from Config.Seed via splitmix64.
func shardConfigs(cfg Config) []Config {
	nShards := ShardCount(cfg)
	shards := make([]Config, nShards)
	seq := uint64(cfg.Seed)
	for i := range shards {
		sc := cfg
		sc.TestCases = cfg.CasesPerDB
		if i == nShards-1 {
			sc.TestCases = cfg.TestCases - cfg.CasesPerDB*(nShards-1)
		}
		seq, sc.Seed = splitmix64(seq)
		shards[i] = sc
	}
	return shards
}

// mergeReports folds per-shard reports, in shard-index order, into one.
//
// Counters add; bug IDs shift by the preceding shards' detected-case
// counts (preserving "ID = position among detected cases"); bugs
// prioritized within their shard replay through a fresh global
// prioritizer so feature-subsumed duplicates across shards are dropped
// exactly as a serial prioritizer would drop them; the shards' trackers
// fold into one (Tracker.Merge, PairTracker.Merge) followed by one
// posterior update over the pooled evidence, whose JSON is the merged
// FeedbackState and PlanPairState. Ground-truth fault sets union. Every
// step is a deterministic function of the shard reports, which are
// themselves deterministic per shard seed.
//
// A quarantined shard's placeholder contributes only its retry count and
// a QuarantinedShards entry (shard ordinal, derived seed, case count —
// the full recipe for offline replay); everything else about the merge
// is computed exactly as if the shard were absent, so the degraded
// report is still a deterministic function of which shards survived.
func mergeReports(cfg Config, prior *feedback.Tracker, reps []*Report) (*Report, error) {
	merged := &Report{
		Dialect:            cfg.Dialect.Name,
		Mode:               cfg.Mode.String(),
		DetectedByClass:    map[BugClass]int{},
		PrioritizedByClass: map[BugClass]int{},
	}
	// The merged tracker starts empty: each shard started from the
	// decoded Config.FeedbackState, prior, so its tracker carries those
	// priors (deduplicated below before the posterior update).
	tracker := newTracker(cfg)
	// Plan-pair union: shards record their own pairs (and, on resume,
	// re-include the warm-start snapshot every shard was seeded with);
	// union is idempotent, so no warm-start discount is needed.
	pairs := feedback.NewPairTracker()
	pri := prioritize.New()
	faults := map[string]bool{}
	priFaults := map[string]bool{}
	shards := shardConfigs(cfg)
	// nLive counts the shards whose tracker made it into the pool
	// — the divisor for the warm-start discount below. Quarantined shards
	// contributed nothing, so counting len(reps) would over-discount.
	nLive := 0

	for i, rep := range reps {
		// Take the ID offset before the add. A quarantined placeholder
		// carries only ShardRetries, so adding it counts nothing else.
		idOffset := merged.Detected
		merged.Counters.Add(rep.Counters)
		if rep.Quarantined {
			merged.ShardsQuarantined++
			merged.QuarantinedShards = append(merged.QuarantinedShards, QuarantinedShard{
				Shard:     i,
				Seed:      shards[i].Seed,
				TestCases: shards[i].TestCases,
				Err:       rep.QuarantineErr,
			})
			continue
		}
		for c, n := range rep.DetectedByClass {
			merged.DetectedByClass[c] += n
		}
		for _, id := range rep.GroundTruthFaults {
			faults[id] = true
		}
		for _, b := range rep.Bugs {
			nb := *b
			nb.ID += idOffset
			feats, err := feature.SetOf(nb.Features)
			if err != nil {
				return nil, fmt.Errorf("campaign: shard %d bug %d: %w", i, b.ID, err)
			}
			if core := prioritizerFeatures(&feats); !pri.ReportSet(&core) {
				continue
			}
			merged.Prioritized++
			merged.PrioritizedByClass[nb.Class]++
			for _, id := range nb.Triggered {
				priFaults[id] = true
			}
			merged.Bugs = append(merged.Bugs, &nb)
		}
		for _, c := range rep.AllCases {
			nc := *c
			nc.ID += idOffset
			merged.AllCases = append(merged.AllCases, &nc)
		}
		if rep.tracker != nil {
			tracker.Merge(rep.tracker)
			nLive++
		}
		if rep.pairs != nil {
			pairs.Merge(rep.pairs)
		}
	}

	merged.UniqueGroundTruth = len(faults)
	merged.GroundTruthFaults = sortedKeys(faults)
	merged.UniquePrioritized = len(priFaults)

	// Every live shard's tracker re-includes the warm-start prior it
	// was seeded with; keep exactly one copy of that prior in the pooled
	// evidence. The divisor is the live shard count, not len(reps):
	// quarantined shards never contributed their copy. With no live
	// shards at all, merge the prior in directly so a fully-degraded run
	// still hands the warm start forward.
	if prior != nil {
		if nLive == 0 {
			tracker.Merge(prior)
		} else {
			tracker.Discount(prior, nLive-1)
		}
	}
	tracker.Update()
	merged.tracker, merged.Unsupported = tracker, tracker.Unsupported()
	if !cfg.NoPlanPairSched {
		merged.pairs = pairs
	}
	// A state that fails to serialize is lost feedback, not a cosmetic
	// miss: fail the merge loudly instead of silently dropping it.
	return merged, merged.saveState()
}
