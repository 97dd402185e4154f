package campaign

import (
	"fmt"
	"sync"

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

// ShardCount returns the number of logical shards RunSharded partitions
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

// RunSharded executes a campaign as deterministic parallel shards and
// merges the results.
//
// The test-case budget splits into ShardCount logical shards; workers
// only bounds how many execute concurrently. Each shard runs a complete
// Runner — its own engine instance, generator, prioritizer, and Bayesian
// tracker (seeded from Config.FeedbackState) — under a per-shard seed
// derived from Config.Seed via splitmix64. The one thing shards share is
// a read-mostly index of finished shards' bug feature sets, which a shard
// consults only to skip reducing bugs the merge is certain to drop (see
// shardIndex); it can change which discarded bugs a shard reduces, never
// a byte of the merged report. Because the merge is a fold in
// shard-index order, the same seed yields a byte-identical report for
// every worker count, including the serial workers == 1 run.
//
// Semantically the difference from Run is that validity feedback does not
// flow across database epochs during the campaign; the merged
// FeedbackState still pools every shard's evidence for reuse in later
// runs (paper Figure 5).
func RunSharded(cfg Config, workers int) (*Report, error) {
	return RunShardedOpts(cfg, ShardedOptions{Workers: workers})
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

// shardIndex holds, for each finished shard, the prioritizer feature
// sets of its prioritized bugs (Report.Bugs); nil marks a shard that has
// not finished. Shard i consults it to skip reducing a bug whose feature
// set contains a set held by some shard j < i.
//
// That skip is sound by transitivity: mergeReports feeds every bug of
// shard j to the global prioritizer before any bug of shard i, so either
// the shard-j bug is kept, or an earlier kept set is a subset of it —
// and in both cases the shard-i bug is dropped. The skip therefore only
// ever touches Reduced on bugs the merged report never contains.
type shardIndex struct {
	mu   sync.Mutex
	sets []*prioritize.Prioritizer
}

func newShardIndex(nShards int) *shardIndex {
	return &shardIndex{sets: make([]*prioritize.Prioritizer, nShards)}
}

// publish records finished shard i's bug feature sets. A quarantined
// placeholder carries no bugs, so it makes no bug redundant, just as it
// contributes none to the merge.
func (x *shardIndex) publish(i int, rep *Report) {
	p := prioritize.New()
	for _, b := range rep.Bugs {
		p.Add(prioritizerFeatures(b.Features))
	}
	x.mu.Lock()
	x.sets[i] = p
	x.mu.Unlock()
}

// mergeDrops returns shard i's predicate: whether some finished shard
// j < i holds a bug feature set that is a subset of features.
func (x *shardIndex) mergeDrops(i int) func(features []string) bool {
	return func(features []string) bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		for _, p := range x.sets[:i] {
			if p != nil && p.IsDuplicate(features) {
				return true
			}
		}
		return false
	}
}

// mergeReports folds per-shard reports, in shard-index order, into one.
//
// Counters add; bug IDs shift by the preceding shards' detected-case
// counts (preserving "ID = position among detected cases"); bugs
// prioritized within their shard replay through a fresh global
// prioritizer so feature-subsumed duplicates across shards are dropped
// exactly as a serial prioritizer would drop them; feedback states merge
// via Tracker.MergeState followed by one posterior update over the
// pooled evidence. Ground-truth fault sets union. Every step is a
// deterministic function of the shard reports, which are themselves
// deterministic per shard seed.
//
// A quarantined shard's placeholder contributes only its retry count and
// a QuarantinedShards entry (shard ordinal, derived seed, case count —
// the full recipe for offline replay); everything else about the merge
// is computed exactly as if the shard were absent, so the degraded
// report is still a deterministic function of which shards survived.
func mergeReports(cfg Config, reps []*Report) (*Report, error) {
	merged := &Report{
		Dialect:            cfg.Dialect.Name,
		Mode:               cfg.Mode.String(),
		DetectedByClass:    map[BugClass]int{},
		PrioritizedByClass: map[BugClass]int{},
	}
	// The merged tracker starts empty: each shard already loaded
	// Config.FeedbackState, so its saved state carries those priors
	// (deduplicated below before the posterior update).
	tracker := newTracker(cfg)
	// Plan-pair union: shards record their own pairs (and, on resume,
	// re-include the warm-start snapshot every shard was seeded with);
	// union is idempotent, so no warm-start discount is needed.
	pairs := feedback.NewPairTracker()
	pri := prioritize.New()
	faults := map[string]bool{}
	priFaults := map[string]bool{}
	shards := shardConfigs(cfg)
	// nLive counts the shards whose feedback state made it into the pool
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
			if !pri.Report(prioritizerFeatures(nb.Features)) {
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
		if rep.FeedbackState != nil {
			if err := tracker.MergeState(rep.FeedbackState); err != nil {
				return nil, fmt.Errorf("campaign: merging shard feedback: %w", err)
			}
			nLive++
		}
		if rep.PlanPairState != nil {
			if err := pairs.MergeState(rep.PlanPairState); err != nil {
				return nil, fmt.Errorf("campaign: merging shard plan pairs: %w", err)
			}
		}
	}

	merged.UniqueGroundTruth = len(faults)
	merged.GroundTruthFaults = sortedKeys(faults)
	merged.UniquePrioritized = len(priFaults)

	// Every live shard's saved state re-includes the warm-start prior it
	// was seeded with; keep exactly one copy of that prior in the pooled
	// evidence. The divisor is the live shard count, not len(reps):
	// quarantined shards never contributed their copy. With no live
	// shards at all, merge the prior in directly so a fully-degraded run
	// still hands the warm start forward.
	if cfg.FeedbackState != nil {
		if nLive > 1 {
			if err := tracker.DiscountState(cfg.FeedbackState, nLive-1); err != nil {
				return nil, fmt.Errorf("campaign: discounting warm-start prior: %w", err)
			}
		} else if nLive == 0 {
			if err := tracker.MergeState(cfg.FeedbackState); err != nil {
				return nil, fmt.Errorf("campaign: preserving warm-start prior: %w", err)
			}
		}
	}
	tracker.Update()
	// A state that fails to serialize is lost feedback, not a cosmetic
	// miss: fail the merge loudly instead of silently dropping it.
	state, err := tracker.Save()
	if err != nil {
		return nil, fmt.Errorf("campaign: saving merged feedback state: %w", err)
	}
	merged.FeedbackState = state
	if !cfg.NoPlanPairSched {
		state, err := pairs.SaveState()
		if err != nil {
			return nil, fmt.Errorf("campaign: saving merged plan-pair state: %w", err)
		}
		merged.PlanPairState = state
	}
	merged.Unsupported = tracker.Unsupported()
	return merged, nil
}
