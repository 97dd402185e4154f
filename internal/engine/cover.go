package engine

import (
	"strings"

	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/sqlast"
)

// Covering-index projection: when the planner chose an index probe for a
// single-table SELECT and every column the statement references is part
// of the index key, the projection and ORDER BY keys are served straight
// from the ordered store's entries — an index-only read. No projection
// expression is evaluated, so the serving path charges no evaluation
// cost; the WHERE filter is shared with the heap path unchanged, which
// keeps results, errors, and fault behavior identical between the
// covering and non-covering plans of the same query. That makes
// CoveringOff a pure plan axis: EnumeratePlans yields both variants and
// PlanDiff treats any row divergence between them as a bug.

// coverPlan maps each projection and ORDER BY slot to the table column
// position that serves it. Built once per statement by coveringPlan;
// nil means the heap projection path runs.
type coverPlan struct {
	items []int // projection slot → table column position
	keys  []int // ORDER BY slot → table column position
	// fault is the armed CoveringIndexProjSwap defect (nil when clean):
	// the serving column map reads the first two key columns transposed.
	fault  *faults.Fault
	l0, l1 int
	// touches records whether any served slot reads a transposed column;
	// a swap nothing reads is unobservable and never triggers.
	touches bool
}

// coveringPlan decides whether the statement runs index-only under the
// active plan spec and fault set: it builds the pure slot map, applies
// the CoveringOff plan axis, and arms the CoveringIndexProjSwap defect.
func (s *DB) coveringPlan(sel *sqlast.Select, alias string, t *Table, ix *Index) *coverPlan {
	cp := buildCoverPlan(sel, alias, t, ix)
	if cp == nil {
		return nil
	}
	// The statement is coverable; now the plan spec decides. Hitting the
	// off branch only for coverable statements makes the toggle's effect
	// visible to coverage-guided feedback.
	if s.planSpec.CoveringOff {
		s.cov.Hit("plan.cover.off")
		return nil
	}
	s.cov.Hit("plan.cover")
	if f := s.faultSet().CoveringSwap(); f != nil && len(ix.leads) >= 2 {
		cp.fault = f
		cp.l0, cp.l1 = ix.leads[0], ix.leads[1]
		swap := func(c int) int {
			switch c {
			case cp.l0:
				cp.touches = true
				return cp.l1
			case cp.l1:
				cp.touches = true
				return cp.l0
			}
			return c
		}
		for i, c := range cp.items {
			cp.items[i] = swap(c)
		}
		for i, c := range cp.keys {
			cp.keys[i] = swap(c)
		}
	}
	return cp
}

// buildCoverPlan decides covering eligibility and builds the
// slot→column map. Eligibility is a pure function of the statement and
// the catalog: a single-table non-grouped SELECT whose projection items,
// ORDER BY keys, and WHERE references are all plain columns of the
// chosen index's key (star requires every table column covered), and no
// subquery anywhere in the predicate. Anything else returns nil and the
// heap projection runs — covering degrades, never errors, exactly like
// the other plan forcings. EnumeratePlans calls this statically to
// decide whether the nocover plan axis applies.
func buildCoverPlan(sel *sqlast.Select, alias string, t *Table, ix *Index) *coverPlan {
	if len(sel.GroupBy) > 0 || sel.Having != nil || selHasAggregates(sel) {
		return nil
	}
	cp := &coverPlan{}
	slot := func(e sqlast.Expr) int {
		ref, ok := e.(*sqlast.ColumnRef)
		if !ok {
			return -1
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, alias) {
			return -1
		}
		c := t.ColumnIndex(ref.Column)
		if c < 0 || !ix.covers(c) {
			return -1
		}
		return c
	}
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			for c := range t.Columns {
				if !ix.covers(c) {
					return nil
				}
				cp.items = append(cp.items, c)
			}
			continue
		}
		c := slot(item.Expr)
		if c < 0 {
			return nil
		}
		cp.items = append(cp.items, c)
	}
	for i := range sel.OrderBy {
		c := slot(sel.OrderBy[i].Expr)
		if c < 0 {
			return nil
		}
		cp.keys = append(cp.keys, c)
	}
	if sel.Where != nil && !coveredRefsOnly(sel.Where, alias, t, ix) {
		return nil
	}
	return cp
}

// coveredRefsOnly reports whether every column reference in e is a
// covered column of the single FROM table, with no subquery anywhere (a
// subquery's rows come from outside the index and disqualify the
// index-only read).
func coveredRefsOnly(e sqlast.Expr, alias string, t *Table, ix *Index) bool {
	ok := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.Subquery, *sqlast.Exists:
			ok = false
		case *sqlast.ColumnRef:
			if n.Table != "" && !strings.EqualFold(n.Table, alias) {
				ok = false
			} else if c := t.ColumnIndex(n.Column); c < 0 || !ix.covers(c) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// coveringProject serves every kept row's projection and sort keys from
// the entry columns the plan mapped — no expression evaluation, no
// per-row allocation (both outputs subslice two exactly-sized backing
// arrays; the projection goes to out, see execSelectEnv). The
// CoveringIndexProjSwap defect triggers only when a served row actually
// reads a transposed column and the two transposed values render
// differently: the emitted row then differs from the clean engine's, an
// observable divergence.
func (s *DB) coveringProject(cp *coverPlan, rows []jrow, out *stmtScratch) ([][]Value, [][]Value) {
	s.cov.Hit("exec.proj.covering")
	n := len(rows)
	width := len(cp.items)
	klen := len(cp.keys)
	outRows := out.rowList(n)
	flat := out.values(n * width)
	var sortKeys [][]Value
	var kflat []Value
	if klen > 0 {
		sortKeys = s.st.lists.alloc(n)
		kflat = s.st.vals.alloc(n * klen)
	}
	for i, jr := range rows {
		row := jr[0]
		out := flat[i*width : (i+1)*width : (i+1)*width]
		for si, c := range cp.items {
			out[si] = row[c]
		}
		outRows[i] = out
		if klen > 0 {
			keys := kflat[i*klen : (i+1)*klen : (i+1)*klen]
			for si, c := range cp.keys {
				keys[si] = row[c]
			}
			sortKeys[i] = keys
		}
		if cp.fault != nil && cp.touches && row[cp.l0].Render() != row[cp.l1].Render() {
			s.trigger(cp.fault)
		}
	}
	return outRows, sortKeys
}
