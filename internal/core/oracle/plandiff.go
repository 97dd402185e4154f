package oracle

// PlanDiff is a DQP/QPG-style plan-diffing oracle (cf. "Testing Database
// Engines via Query Plan Guidance", ICSE 2023): it executes the *same*
// query on the same instance under every plan of a deterministic
// equivalent-plan space and reports any multiset divergence from the
// baseline (auto-planned) execution. The space comes from
// engine.EnumeratePlans: the legacy planner-off plan, per-relation
// force-scan and force-index variants (including every narrower
// composite equality-prefix width — the composite-vs-leading axis),
// the covering-off plan where an index could serve the statement
// index-only (the covering-projection axis), per-join probe
// suppression, and every non-identity permutation of the leading
// inner-join chain (the join-order axis). Because
// all executions share the statement text, the database state, and the
// reference evaluation semantics, any divergence is a plan-dependent
// defect; several members of the injected index-path fault family are
// observable to no other oracle, and some (PrefixSpanTruncate under a
// width-capped forced plan) are invisible even to the legacy
// index-on/off pair this oracle used to flip.

import (
	"fmt"

	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
)

// DefaultMaxPlans is the per-query cap on enumerated plan specs when
// Case.MaxPlans is unset. It covers the typical enumeration of the
// generator's oracle shapes (one or two matched indexes plus a join
// axis) while bounding the oracle's per-case execution count, so the
// default campaign throughput stays within a small factor of the old
// two-execution oracle.
const DefaultMaxPlans = 6

// PlanDiff runs base WHERE pred under the baseline plan and diffs it
// against each enumerated equivalent plan (see PlanDiffCase).
func PlanDiff(db *engine.DB, base *sqlast.Select, pred sqlast.Expr) Result {
	return PlanDiffCase(db, &Case{Base: base, Pred: pred})
}

// PlanDiffCase applies the plan-diffing oracle to one case. The
// instance's plan spec is restored before returning. With c.PlanSpec
// set, enumeration and scheduling are skipped and the baseline is
// diffed against exactly that plan — the reducer's replay path. With
// c.Pairs set, enumerated specs whose (shape, spec) pair the tracker
// has not seen rank ahead of the canonical order before the MaxPlans
// cap applies (canonical order breaks ties), every executed pair is
// marked, and the Result reports the novel/repeated split.
// Result.MaxCost carries the baseline execution's cost only — the
// alternative plans are deliberate, not a performance symptom — and a
// Bug's Detail reports the serialized losing spec with both costs,
// which Result.PlanSpec repeats verbatim for the bug report.
//
// An alternative plan that *errors* where the baseline succeeded is
// itself a plan-dependent divergence and reports a Bug with the losing
// spec — except for two error classes a correct engine produces
// plan-dependently by design, which stay Invalid: the deterministic
// execution budget (a plan touching more rows may exceed it without any
// defect) and runtime evaluation errors (a plan that filters rows
// earlier never evaluates the failing expression — LN(0) behind an
// index probe is reachable only from the scan plan).
func PlanDiffCase(db *engine.DB, c *Case) Result {
	maxPlans := c.MaxPlans
	if maxPlans == 0 {
		maxPlans = DefaultMaxPlans
	}
	queries := 1 + max(maxPlans, 0) // the baseline, then one per plan
	if c.PlanSpec != "" {
		queries = 2
	}
	r := newRunner(db, queries)

	q := derive(c.Base)
	q.Where = c.Pred
	sql := r.render(q) // every plan executes the same text

	prev := db.PlanSpec()
	defer db.SetPlanSpec(prev)

	db.SetPlanSpec(engine.PlanSpec{})
	baseRes, err := r.query(sql)
	if err != nil {
		return r.result(PlanDiffName, Invalid, err, "")
	}
	baseCost := r.lastCost
	// baseSet is sorted by the first diff and stays sorted; altSet is
	// refilled per plan.
	baseSet, altSet := getRowSet(), getRowSet()
	defer putRowSet(baseSet)
	defer putRowSet(altSet)
	baseSet.add(baseRes)

	var specs []engine.PlanSpec
	var keys []string
	var shape engine.PlanShapeKey
	if c.PlanSpec != "" {
		spec, perr := engine.ParsePlanSpec(c.PlanSpec)
		if perr != nil {
			return r.result(PlanDiffName, Invalid, perr, "")
		}
		specs = []engine.PlanSpec{spec}
		keys = []string{c.PlanSpec}
	} else {
		if c.Pairs != nil || c.Enum != nil {
			shape = engine.PlanShape(q)
		}
		if c.Enum != nil {
			specs, keys = c.Enum.lookup(db, q, shape)
		} else {
			specs = engine.EnumeratePlans(db, q)
			keys = make([]string, len(specs))
			for i := range specs {
				keys[i] = specs[i].String()
			}
		}
		if c.Pairs != nil && !c.CanonicalPlans {
			specs, keys = rankNovelFirst(c.Pairs, shape.Shape, specs, keys)
		}
		if maxPlans > 0 && len(specs) > maxPlans {
			specs = specs[:maxPlans]
			keys = keys[:maxPlans]
		}
	}

	novel, repeated := 0, 0
	for i, spec := range specs {
		if c.Pairs != nil && c.PlanSpec == "" {
			if c.Pairs.Seen(shape.Shape, keys[i]) {
				repeated++
			} else {
				novel++
				c.Pairs.Mark(shape.Shape, keys[i])
			}
		}
		db.SetPlanSpec(spec)
		altRes, err := r.query(sql)
		if err != nil {
			if engine.IsBudgetExceeded(err) || engine.IsTimeout(err) ||
				engine.ClassOf(err) == engine.ErrRuntime {
				return r.result(PlanDiffName, Invalid, err, "")
			}
			res := r.result(PlanDiffName, Bug, nil, fmt.Sprintf(
				"PlanDiff divergence (auto plan succeeded, plan [%s] errored): %v [cost auto=%d]",
				keys[i], err, baseCost))
			res.MaxCost = baseCost
			res.PlanSpec = keys[i]
			res.PairsNovel, res.PairsRepeated = novel, repeated
			return res
		}
		altSet.reset()
		altSet.add(altRes)
		if d := diffMultisets(baseSet, altSet); d != "" {
			res := r.result(PlanDiffName, Bug, nil, fmt.Sprintf(
				"PlanDiff divergence (auto plan vs plan [%s]): %s [cost auto=%d alt=%d]",
				keys[i], d, baseCost, r.lastCost))
			res.MaxCost = baseCost
			res.PlanSpec = keys[i]
			res.PairsNovel, res.PairsRepeated = novel, repeated
			return res
		}
	}
	res := r.result(PlanDiffName, OK, nil, "")
	res.MaxCost = baseCost
	res.PairsNovel, res.PairsRepeated = novel, repeated
	return res
}

// rankNovelFirst stably partitions the enumerated specs into pairs the
// tracker has not seen for this shape followed by pairs it has,
// preserving canonical enumeration order within each partition — the
// deterministic tie-break that keeps equal campaign states scheduling
// equal plans at every worker count.
func rankNovelFirst(pairs PlanPairs, shape uint64, specs []engine.PlanSpec, keys []string) ([]engine.PlanSpec, []string) {
	outS := make([]engine.PlanSpec, 0, len(specs))
	outK := make([]string, 0, len(keys))
	for i := range specs {
		if !pairs.Seen(shape, keys[i]) {
			outS = append(outS, specs[i])
			outK = append(outK, keys[i])
		}
	}
	if len(outS) == len(specs) {
		return specs, keys
	}
	for i := range specs {
		if pairs.Seen(shape, keys[i]) {
			outS = append(outS, specs[i])
			outK = append(outK, keys[i])
		}
	}
	return outS, outK
}
