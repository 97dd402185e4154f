// Package prioritize implements SQLancer++'s bug prioritization (paper
// §3, Figure 4): a newly found bug-inducing test case is a *potential
// duplicate* if the feature set of a previously reported case is a
// subset of the new case's feature set — the intuition being that the
// root cause is the faulty implementation of the features that were
// enabled when the earlier bug triggered.
package prioritize

import "sqlancerpp/internal/feature"

// Prioritizer stores the feature sets of reported bug-inducing cases.
type Prioritizer struct {
	sets []feature.Set
}

// New returns an empty prioritizer.
func New() *Prioritizer { return &Prioritizer{} }

// IsDuplicateSet reports whether a stored feature set is a subset of the
// candidate's (stored &^ fs == 0) — the case would then be deprioritized
// (analyzed only after the earlier bugs are fixed).
func (p *Prioritizer) IsDuplicateSet(fs *feature.Set) bool {
	for i := range p.sets {
		if p.sets[i].SubsetOf(fs) {
			return true
		}
	}
	return false
}

// ReportSet combines the check and the update: it returns true (and
// stores the set) when the case should be reported, false when it is a
// potential duplicate.
func (p *Prioritizer) ReportSet(fs *feature.Set) bool {
	if p.IsDuplicateSet(fs) {
		return false
	}
	p.sets = append(p.sets, *fs)
	return true
}

// IsDuplicate is IsDuplicateSet over feature names; names outside the
// feature table are ignored.
func (p *Prioritizer) IsDuplicate(features []string) bool {
	fs := feature.KnownSetOf(features)
	return p.IsDuplicateSet(&fs)
}

// Add stores a new (prioritized) case's feature set, given by name;
// names outside the feature table are ignored.
func (p *Prioritizer) Add(features []string) {
	p.sets = append(p.sets, feature.KnownSetOf(features))
}

// Report is ReportSet over feature names; names outside the feature
// table are ignored.
func (p *Prioritizer) Report(features []string) bool {
	fs := feature.KnownSetOf(features)
	return p.ReportSet(&fs)
}

// Size returns the number of stored feature sets.
func (p *Prioritizer) Size() int { return len(p.sets) }

// Sets returns the stored sets' names, each sorted (for inspection and
// tests).
func (p *Prioritizer) Sets() [][]string {
	out := make([][]string, len(p.sets))
	for i := range p.sets {
		out[i] = p.sets[i].Names()
	}
	return out
}
