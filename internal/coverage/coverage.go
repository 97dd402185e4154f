// Package coverage provides lightweight instrumentation for the SQL
// engine. Engine code registers named points (≈ lines) and branches at
// init time; a Recorder accumulates hits during a testing run.
//
// This is the stand-in for the gcov line/branch coverage the paper
// collects on C/C++ DBMSs (Table 3): the ratio of exercised points to
// registered points measures how much of the engine a testing approach
// reaches.
package coverage

import (
	"sort"
	"sync"
)

var (
	regMu       sync.Mutex
	regPoints   = map[string]bool{}
	regBranches = map[string]bool{}
)

// RegisterPoint declares a coverage point. Idempotent.
func RegisterPoint(name string) {
	regMu.Lock()
	regPoints[name] = true
	regMu.Unlock()
}

// RegisterBranch declares a two-way branch point. Idempotent.
func RegisterBranch(name string) {
	regMu.Lock()
	regBranches[name] = true
	regMu.Unlock()
}

// RegisteredPoints returns the number of registered points.
func RegisteredPoints() int {
	regMu.Lock()
	defer regMu.Unlock()
	return len(regPoints)
}

// RegisteredBranches returns the number of registered branch sides
// (each branch has two sides).
func RegisteredBranches() int {
	regMu.Lock()
	defer regMu.Unlock()
	return 2 * len(regBranches)
}

// Recorder accumulates coverage over a run. The zero value is not usable;
// use NewRecorder. A nil *Recorder is a valid no-op sink, so the engine
// can be run uninstrumented.
type Recorder struct {
	mu       sync.Mutex
	points   map[string]bool
	branches map[string][2]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{points: map[string]bool{}, branches: map[string][2]bool{}}
}

// Hit records that point name executed.
func (r *Recorder) Hit(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points[name] = true
	r.mu.Unlock()
}

// HitBranch records one side of branch name.
func (r *Recorder) HitBranch(name string, taken bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	sides := r.branches[name]
	if taken {
		sides[0] = true
	} else {
		sides[1] = true
	}
	r.branches[name] = sides
	r.mu.Unlock()
}

// LineCoverage returns hit and total point counts.
func (r *Recorder) LineCoverage() (hit, total int) {
	total = RegisteredPoints()
	if r == nil {
		return 0, total
	}
	r.mu.Lock()
	hit = len(r.points)
	r.mu.Unlock()
	return hit, total
}

// BranchCoverage returns hit and total branch-side counts.
func (r *Recorder) BranchCoverage() (hit, total int) {
	total = RegisteredBranches()
	if r == nil {
		return 0, total
	}
	r.mu.Lock()
	for _, sides := range r.branches {
		if sides[0] {
			hit++
		}
		if sides[1] {
			hit++
		}
	}
	r.mu.Unlock()
	return hit, total
}

// LinePercent returns point coverage in percent.
func (r *Recorder) LinePercent() float64 {
	hit, total := r.LineCoverage()
	if total == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(total)
}

// BranchPercent returns branch coverage in percent.
func (r *Recorder) BranchPercent() float64 {
	hit, total := r.BranchCoverage()
	if total == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(total)
}

// Merge adds all hits from other into r.
func (r *Recorder) Merge(other *Recorder) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	pts := make([]string, 0, len(other.points))
	for p := range other.points {
		pts = append(pts, p)
	}
	type bs struct {
		name  string
		sides [2]bool
	}
	brs := make([]bs, 0, len(other.branches))
	for n, s := range other.branches {
		brs = append(brs, bs{n, s})
	}
	other.mu.Unlock()

	r.mu.Lock()
	for _, p := range pts {
		r.points[p] = true
	}
	for _, b := range brs {
		sides := r.branches[b.name]
		sides[0] = sides[0] || b.sides[0]
		sides[1] = sides[1] || b.sides[1]
		r.branches[b.name] = sides
	}
	r.mu.Unlock()
}

// HitPoints returns the sorted list of hit point names (for tests).
func (r *Recorder) HitPoints() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]string, 0, len(r.points))
	for p := range r.points {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// HitBranches returns the sorted list of hit branch sides, each spelled
// "<name>:taken" or "<name>:not-taken" (for tests).
func (r *Recorder) HitBranches() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]string, 0, 2*len(r.branches))
	for b, sides := range r.branches {
		if sides[0] {
			out = append(out, b+":taken")
		}
		if sides[1] {
			out = append(out, b+":not-taken")
		}
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}
