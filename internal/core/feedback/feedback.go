// Package feedback implements the validity-feedback mechanism of the
// adaptive statement generator (paper §4).
//
// For every SQL feature it tracks the number of executions N and
// successes y of statements containing the feature. Query features are
// judged by Bayesian inference: with a uniform prior, θ|y ~ Beta(y+1,
// N−y+1); a feature is unsupported if at least `confidence` of the
// posterior mass lies below the user threshold p. DDL/DML features use
// the paper's simpler rule: a feature that fails `ddlMaxFailures` times
// consecutively (without a success) is unsupported.
package feedback

import (
	"encoding/json"
	"fmt"

	"sqlancerpp/internal/feature"
)

// Defaults match the paper's description (§4: p = 1%, 95% credible mass;
// probabilities updated after a fixed number of executions).
const (
	DefaultThreshold      = 0.01
	DefaultConfidence     = 0.95
	DefaultDDLMaxFailures = 25
	DefaultUpdateInterval = 400
)

// featureStats holds per-feature counters.
type featureStats struct {
	N int `json:"n"` // executions
	Y int `json:"y"` // successes
	// ConsecFail counts consecutive failures (DDL/DML rule).
	ConsecFail int  `json:"consecFail"`
	DDL        bool `json:"ddl"`
}

// Tracker accumulates per-feature execution feedback and classifies
// features as supported or unsupported. Its state is indexed by feature
// ID; feature names appear only in its saved state.
//
// A Tracker is not safe for concurrent use: each campaign runner owns
// its own, and shard trackers meet only through saved state.
type Tracker struct {
	threshold   float64
	confidence  float64
	ddlMax      int
	updateEvery int

	// enabled=false gives the paper's "SQLancer++ Rand" configuration:
	// feedback is recorded but never suppresses anything.
	enabled bool

	// stats[id] is meaningful for the features in known: those recorded
	// or loaded, which the saved state lists.
	stats       *[feature.NumIDs]featureStats
	known       feature.Set
	unsupported feature.Set
	sinceUpdate int
	updates     int
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithThreshold sets the minimum success probability p.
func WithThreshold(p float64) Option {
	return func(t *Tracker) { t.threshold = p }
}

// WithConfidence sets the posterior mass required to deem a feature
// unsupported.
func WithConfidence(c float64) Option {
	return func(t *Tracker) { t.confidence = c }
}

// WithDDLMaxFailures sets the consecutive-failure cutoff for DDL/DML.
func WithDDLMaxFailures(n int) Option {
	return func(t *Tracker) { t.ddlMax = n }
}

// WithUpdateInterval sets how many recorded executions trigger a
// posterior update (the paper's iteration count I).
func WithUpdateInterval(n int) Option {
	return func(t *Tracker) { t.updateEvery = n }
}

// Disabled turns off suppression ("SQLancer++ Rand").
func Disabled() Option {
	return func(t *Tracker) { t.enabled = false }
}

// New returns a Tracker with the paper's default parameters.
func New(opts ...Option) *Tracker {
	t := &Tracker{
		threshold:   DefaultThreshold,
		confidence:  DefaultConfidence,
		ddlMax:      DefaultDDLMaxFailures,
		updateEvery: DefaultUpdateInterval,
		enabled:     true,
		stats:       new([feature.NumIDs]featureStats),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether suppression is active.
func (t *Tracker) Enabled() bool { return t.enabled }

// RecordQuery records the outcome of a query containing the named
// features; names outside the feature table are ignored.
func (t *Tracker) RecordQuery(features []string, ok bool) {
	s := feature.KnownSetOf(features)
	t.record(&s, ok, false)
}

// RecordDDL records the outcome of a DDL/DML statement containing the
// named features; names outside the feature table are ignored.
func (t *Tracker) RecordDDL(features []string, ok bool) {
	s := feature.KnownSetOf(features)
	t.record(&s, ok, true)
}

// RecordQuerySet records the outcome of a query with feature set s.
func (t *Tracker) RecordQuerySet(s *feature.Set, ok bool) { t.record(s, ok, false) }

// RecordDDLSet records the outcome of a DDL/DML statement with feature
// set s.
func (t *Tracker) RecordDDLSet(s *feature.Set, ok bool) { t.record(s, ok, true) }

func (t *Tracker) record(s *feature.Set, ok bool, ddl bool) {
	t.known.Union(s)
	for id, more := s.Next(0); more; id, more = s.Next(id + 1) {
		st := &t.stats[id]
		st.N++
		st.DDL = st.DDL || ddl
		if ok {
			st.Y++
			st.ConsecFail = 0
		} else {
			st.ConsecFail++
		}
	}
	t.sinceUpdate++
	if t.sinceUpdate >= t.updateEvery {
		t.Update()
	}
}

// Update forces a posterior update (step 3 of Figure 5).
func (t *Tracker) Update() {
	t.sinceUpdate = 0
	t.updates++
	for id, ok := t.known.Next(0); ok; id, ok = t.known.Next(id + 1) {
		st := &t.stats[id]
		if st.DDL {
			// DDL/DML rule: repeated consecutive failures ⇒ unsupported.
			if st.ConsecFail >= t.ddlMax {
				t.unsupported.Add(id)
			}
			continue
		}
		if st.N < 20 {
			continue // not enough evidence yet
		}
		// P(θ < threshold | y, N) with θ|y ~ Beta(y+1, N−y+1).
		mass := BetaCDF(t.threshold, float64(st.Y+1), float64(st.N-st.Y+1))
		if mass >= t.confidence {
			t.unsupported.Add(id)
		} else {
			t.unsupported.Remove(id)
		}
	}
}

// Updates returns how many posterior updates have run.
func (t *Tracker) Updates() int { return t.updates }

// SupportedID reports whether the generator should keep producing the
// feature (paper Listing 4's shouldGenerate).
func (t *Tracker) SupportedID(id feature.ID) bool {
	return !t.enabled || !t.unsupported.Has(id)
}

// Supported is SupportedID by name; a name outside the feature table
// has no evidence against it, so it is supported.
func (t *Tracker) Supported(f string) bool {
	id, ok := feature.Lookup(f)
	return !ok || t.SupportedID(id)
}

// Unsupported returns the sorted list of suppressed features.
func (t *Tracker) Unsupported() []string { return t.unsupported.Names() }

// Stats returns (N, y) for a feature.
func (t *Tracker) Stats(f string) (n, y int) {
	id, ok := feature.Lookup(f)
	if !ok {
		return 0, 0
	}
	st := &t.stats[id]
	return st.N, st.Y
}

// snapshot is the persisted form (paper Figure 5: probabilities can be
// persisted and loaded by future executions), keyed by feature name.
type snapshot struct {
	Stats       map[string]*featureStats `json:"stats"`
	Unsupported []string                 `json:"unsupported"`
}

// Save serializes the tracker state.
func (t *Tracker) Save() ([]byte, error) {
	snap := snapshot{Stats: make(map[string]*featureStats, t.known.Len())}
	for id, ok := t.known.Next(0); ok; id, ok = t.known.Next(id + 1) {
		snap.Stats[feature.Name(id)] = &t.stats[id]
	}
	if !t.unsupported.Empty() {
		snap.Unsupported = t.unsupported.Names()
	}
	return json.MarshalIndent(snap, "", "  ")
}

// decoded is a saved state with its feature names resolved to IDs.
type decoded struct {
	stats       [feature.NumIDs]featureStats
	known       feature.Set
	unsupported feature.Set
}

// decode parses a saved state; a feature name outside the table is an
// error that names it.
func decode(data []byte) (*decoded, error) {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	d := &decoded{}
	for name, st := range snap.Stats {
		id, ok := feature.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("feedback state: %w", &feature.UnknownError{Name: name})
		}
		d.known.Add(id)
		if st != nil {
			d.stats[id] = *st
		}
	}
	u, err := feature.SetOf(snap.Unsupported)
	if err != nil {
		return nil, fmt.Errorf("feedback state: %w", err)
	}
	d.unsupported = u
	return d, nil
}

// MergeState folds another tracker's saved state into t: execution
// counts add, the DDL flag ORs, consecutive-failure streaks take their
// maximum (streams cannot be interleaved after the fact), and features
// either side deemed unsupported start out unsupported. Callers merging
// several states should finish with Update() so the Bayesian
// classifications reflect the pooled evidence; the DDL consecutive-
// failure rule is monotone, so union is its exact merge.
func (t *Tracker) MergeState(data []byte) error {
	d, err := decode(data)
	if err != nil {
		return err
	}
	t.known.Union(&d.known)
	for id, ok := d.known.Next(0); ok; id, ok = d.known.Next(id + 1) {
		st := &d.stats[id]
		dst := &t.stats[id]
		dst.N += st.N
		dst.Y += st.Y
		dst.DDL = dst.DDL || st.DDL
		if st.ConsecFail > dst.ConsecFail {
			dst.ConsecFail = st.ConsecFail
		}
	}
	t.unsupported.Union(&d.unsupported)
	return nil
}

// DiscountState subtracts times copies of a saved state's execution
// counts from t (flooring at zero). A shard merge uses it to remove the
// shared warm-start prior that every shard's saved state re-includes, so
// the pooled evidence counts the prior exactly once. DDL flags,
// failure streaks, and unsupported markings are left alone — they are
// monotone under the merge, not additive.
func (t *Tracker) DiscountState(data []byte, times int) error {
	d, err := decode(data)
	if err != nil {
		return err
	}
	if times <= 0 {
		return nil
	}
	for id, ok := d.known.Next(0); ok; id, ok = d.known.Next(id + 1) {
		if !t.known.Has(id) {
			continue
		}
		st := &d.stats[id]
		dst := &t.stats[id]
		dst.N -= times * st.N
		dst.Y -= times * st.Y
		if dst.N < 0 {
			dst.N = 0
		}
		if dst.Y < 0 {
			dst.Y = 0
		}
	}
	return nil
}

// Load restores tracker state saved by Save.
func (t *Tracker) Load(data []byte) error {
	d, err := decode(data)
	if err != nil {
		return err
	}
	t.stats = &d.stats
	t.known = d.known
	t.unsupported = d.unsupported
	return nil
}
