package engine

import (
	"fmt"
	"strings"

	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/sqlast"
)

// Crashed reports whether the simulated server is down.
func (s *DB) Crashed() bool { return s.crashed }

// RenderRows returns the canonical textual form of each row (renderRow),
// for tests that compare or print whole results.
func (r *Result) RenderRows() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = renderRow(row)
	}
	return out
}

// FilterCheck counts the WHERE candidate rows CheckFilter compared.
type FilterCheck struct {
	// Rows is every row compared; Resolved the rows whose predicate has
	// at least one resolved comparison.
	Rows, Resolved int
}

// filterRun is everything one evaluation of a row's WHERE exposes.
type filterRun struct {
	keep             bool
	err              string
	cost, rows       int64
	points, branches string
	faults           string
}

// CheckFilter makes db compare, on every WHERE candidate row, the
// filter (evalFilterPlan) with the scalar reference (evalFilterConjs):
// both run on the same bound row from the same state, and each
// disagreement in verdict, cost charged, coverage keys hit, error or
// triggered faults goes to fail. Nested filters (subqueries inside a
// conjunct) are checked the same way, inside each run.
func CheckFilter(db *DB, fail func(msg string)) *FilterCheck {
	c := &FilterCheck{}
	db.filterProbe = func(plan filterPlan, ctx *evalCtx) (bool, *Error) {
		p := &plan
		c.Rows++
		if p.cmps != nil {
			c.Resolved++
		}
		cost0, rows0 := db.cost, db.rows
		got, _, _ := db.isolatedFilterRun(func() (bool, *Error) { return db.evalFilterPlan(p, ctx) })
		db.cost, db.rows = cost0, rows0
		want, keep, err := db.isolatedFilterRun(func() (bool, *Error) { return db.evalFilterConjs(p.conjs, ctx) })
		if got != want {
			fail(fmt.Sprintf("filter diverged from evalFilterConjs on %s:\nfilter:    %+v\nreference: %+v",
				conjsSQL(p.conjs), got, want))
		}
		return keep, err
	}
	return c
}

// isolatedFilterRun runs f with a fresh coverage recorder and triggered
// set, records what f charged and hit, and folds both into db's own.
func (s *DB) isolatedFilterRun(f func() (bool, *Error)) (filterRun, bool, *Error) {
	cov, trig := s.cov, s.triggered
	cost0, rows0 := s.cost, s.rows
	s.cov, s.triggered = coverage.NewRecorder(), map[string]bool{}
	defer func() {
		cov.Merge(s.cov)
		for id := range s.triggered {
			trig[id] = true
		}
		s.cov, s.triggered = cov, trig
	}()
	keep, err := f()
	run := filterRun{
		keep:     keep,
		cost:     s.cost - cost0,
		rows:     s.rows - rows0,
		points:   strings.Join(s.cov.HitPoints(), " "),
		branches: strings.Join(s.cov.HitBranches(), " "),
		faults:   fmt.Sprint(s.TriggeredFaults()),
	}
	if err != nil {
		run.err = err.Error()
	}
	return run, keep, err
}

func conjsSQL(conjs []sqlast.Expr) string {
	parts := make([]string, len(conjs))
	for i, e := range conjs {
		parts[i] = e.SQL()
	}
	return strings.Join(parts, " AND ")
}
