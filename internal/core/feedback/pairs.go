package feedback

// Plan-pair coverage. The PlanDiff oracle diffs a query's baseline plan
// against enumerated equivalent plans, and a campaign regenerates the
// same query *shapes* over and over with fresh literals; without
// memory, a capped plan budget re-diffs the same canonical prefix every
// time. PairTracker remembers which (query shape, plan spec) pairs a
// campaign has already diffed so the scheduler can spend the budget on
// pairs that can still find something — QPG's "mutate toward unseen
// plans" signal, keyed on engine.PlanShape fingerprints.
//
// Like Tracker, the state is mergeable: shards start empty, record
// their own pairs, and the shard merge unions their trackers in shard
// order (Merge), so the merged campaign state — and every counter
// derived from per-shard tracker decisions — is byte-identical at any
// worker count.

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strconv"
)

// PairTracker records the (query shape, plan spec) pairs a campaign has
// diffed. The zero value is not ready; use NewPairTracker. Like Tracker,
// it is not safe for concurrent use: each campaign runner owns its own,
// and the shard merge folds finished shard trackers.
type PairTracker struct {
	seen map[uint64]map[string]struct{}
}

// NewPairTracker returns an empty tracker.
func NewPairTracker() *PairTracker {
	return &PairTracker{seen: map[uint64]map[string]struct{}{}}
}

// Seen reports whether the (shape, spec) pair was already recorded.
func (p *PairTracker) Seen(shape uint64, spec string) bool {
	_, ok := p.seen[shape][spec]
	return ok
}

// Mark records a diffed (shape, spec) pair.
func (p *PairTracker) Mark(shape uint64, spec string) {
	specsOf(p.seen, shape)[spec] = struct{}{}
}

// specsOf returns the spec set of shape in seen, adding an empty one.
func specsOf(seen map[uint64]map[string]struct{}, shape uint64) map[string]struct{} {
	m := seen[shape]
	if m == nil {
		m = map[string]struct{}{}
		seen[shape] = m
	}
	return m
}

// Pairs returns the total number of recorded pairs.
func (p *PairTracker) Pairs() int {
	n := 0
	for _, m := range p.seen {
		n += len(m)
	}
	return n
}

// pairSnapshot is the serialized form: shape keys as fixed-width hex
// strings (encoding/json sorts map keys, so equal states serialize
// byte-identically) and spec lists sorted.
type pairSnapshot struct {
	Pairs map[string][]string `json:"pairs"`
}

// SaveState serializes the tracker deterministically.
func (p *PairTracker) SaveState() ([]byte, error) {
	snap := pairSnapshot{Pairs: make(map[string][]string, len(p.seen))}
	for shape, m := range p.seen {
		specs := make([]string, 0, len(m))
		for s := range m {
			specs = append(specs, s)
		}
		sort.Strings(specs)
		snap.Pairs[fmt.Sprintf("%016x", shape)] = specs
	}
	return json.MarshalIndent(snap, "", "  ")
}

// LoadState replaces the tracker contents with a saved snapshot.
func (p *PairTracker) LoadState(data []byte) error {
	var snap pairSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("pair state: %w", err)
	}
	seen := make(map[uint64]map[string]struct{}, len(snap.Pairs))
	for key, specs := range snap.Pairs {
		shape, err := strconv.ParseUint(key, 16, 64)
		if err != nil {
			return fmt.Errorf("pair state: bad shape key %q", key)
		}
		// Keys that spell one shape differently ("ff", "00ff") union.
		m := specsOf(seen, shape)
		for _, s := range specs {
			m[s] = struct{}{}
		}
	}
	p.seen = seen
	return nil
}

// Merge unions o's pairs into p. Union is commutative and idempotent, so
// merging shard trackers in shard order yields the same result as any
// interleaved single-process run.
func (p *PairTracker) Merge(o *PairTracker) {
	for shape, specs := range o.seen {
		maps.Copy(specsOf(p.seen, shape), specs)
	}
}

// MergeState is Merge of a saved snapshot.
func (p *PairTracker) MergeState(data []byte) error {
	o := NewPairTracker()
	if err := o.LoadState(data); err != nil {
		return err
	}
	p.Merge(o)
	return nil
}
