package engine

// QPG-style plan enumeration. EnumeratePlans yields the deterministic,
// bounded set of PlanSpecs that are semantically equivalent to the auto
// plan for one query on one instance — the plan space the PlanDiff
// oracle diffs the baseline execution against. Widening this set is what
// raises the oracle's discrimination: a plan-dependent defect is
// observable exactly when some pair of equivalent plans disagrees, and
// the legacy index-on/off pair covers only one axis of the space.

import (
	"slices"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// EnumeratePlans returns the equivalent-plan specs for a SELECT on db's
// current catalog, in canonical order: the planner-off spec (the legacy
// pair) first, then the first relation's force-scan and per-index
// forcing variants (each matched index, plus every strictly narrower
// equality-prefix width — the composite-vs-leading axis), then the
// covering-off plan when some matched index could serve the statement
// index-only, then per-join probe suppression, then every non-identity
// permutation of the leading inner-join chain. The list is a
// pure function of (statement, catalog), so equal seeds enumerate equal
// plan spaces; callers that cap it (Config.MaxPlansPerQuery) truncate
// the tail, keeping the earlier, coarser plans.
//
// Every returned spec is semantically equivalent to the auto plan by
// construction: forcing only widens candidate sets or reorders rows in
// ways the unchanged WHERE/ON re-evaluation and multiset comparison
// cannot observe on a clean engine, and inapplicable forcing degrades to
// a scan.
func EnumeratePlans(db *DB, sel *sqlast.Select) []PlanSpec {
	specs := []PlanSpec{{DisableIndexPaths: true}}
	if sel == nil || len(sel.Compound) > 0 || len(sel.From) == 0 {
		return specs
	}
	var conjs []sqlast.Expr
	if sel.Where != nil {
		conjs = splitAnd(sel.Where, nil)
	}

	// First-relation access-path variants.
	if tn, ok := sel.From[0].Ref.(*sqlast.TableName); ok {
		alias := tn.RefName()
		t := db.store.table(tn.Name)
		if t != nil && len(t.indexes) > 0 && len(conjs) > 0 &&
			indexPlannable(sel.From) && indexOrderSafe(sel) {
			var probes []indexProbe
			var conjIdx []int
			for ci, conj := range conjs {
				if p, ok := matchProbe(conj, alias, t); ok {
					probes = append(probes, p)
					conjIdx = append(conjIdx, ci)
				}
			}
			var idxSpecs []PlanSpec
			var arena []Value
			coverable := false
			for _, ix := range t.indexes {
				if len(probes) == 0 {
					break
				}
				if ix.Where != nil {
					continue
				}
				probe, pok := matchComposite(ix, probes, conjIdx, &arena, 0)
				if !pok {
					continue
				}
				idxSpecs = append(idxSpecs, relPlan(alias, RelSpec{
					Force: ForceIndex, Index: ix.Name}))
				for w := 1; w < len(probe.eq); w++ {
					idxSpecs = append(idxSpecs, relPlan(alias, RelSpec{
						Force: ForceIndex, Index: ix.Name, PrefixWidth: w}))
				}
				// The nocover axis applies when some probe-matched index
				// could serve the statement index-only: the auto plan may
				// serve the projection from the index key, and the nocover
				// plan pins the heap projection against it.
				if len(sel.From) == 1 && buildCoverPlan(sel, alias, t, ix) != nil {
					coverable = true
				}
			}
			if len(idxSpecs) > 0 {
				specs = append(specs, relPlan(alias, RelSpec{Force: ForceScan}))
				specs = append(specs, idxSpecs...)
				if coverable {
					specs = append(specs, PlanSpec{CoveringOff: true})
				}
			}
		}
	}

	// Per-join probe suppression, for steps where a probe would apply.
	rels := []matRel{staticRel(db, sel.From[0])}
	for step, item := range sel.From[1:] {
		right := staticRel(db, item)
		switch item.Join {
		case sqlast.JoinComma, sqlast.JoinCross, sqlast.JoinInner, sqlast.JoinNatural:
			if item.On != nil && right.table != nil {
				onConjs := splitAnd(item.On, nil)
				m := db.st.mark()
				_, ok := db.matchJoinProbe(sel, rels, right, onConjs)
				db.st.release(m)
				if ok {
					specs = append(specs, PlanSpec{
						Joins: map[int]JoinSpec{step: {ProbeOff: true}}})
				}
			}
		}
		rels = append(rels, right)
	}

	// Join order of the leading inner-join chain: every non-identity
	// permutation of its first k relations (k capped at 4 to bound the
	// axis at 23 specs). Positions beyond k keep their place, and their
	// ON conditions still see every earlier relation bound.
	if m := permPrefixLen(sel); m >= 2 {
		k := m
		if k > maxPermRels {
			k = maxPermRels
		}
		var buf [maxPermRels]int
		perm := buf[:k]
		for i := range perm {
			perm[i] = i
		}
		// perm starts at the identity, which is not a spec of its own.
		for nextPerm(perm) {
			p := CanonicalPerm(perm)
			specs = append(specs, PlanSpec{JoinPerm: append([]int(nil), p...)})
		}
	}
	return specs
}

// maxPermRels caps the permuted prefix length: 4 relations already
// yield 23 non-identity orders, and the generator never emits more.
const maxPermRels = 4

// nextPerm rearranges perm into the next permutation in lexicographic
// order, in place; it returns false, leaving perm alone, when perm is
// the last one.
func nextPerm(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	slices.Reverse(perm[i+1:])
	return true
}

// relPlan builds a single-relation forcing spec.
func relPlan(alias string, rs RelSpec) PlanSpec {
	return PlanSpec{Relations: map[string]RelSpec{alias: rs}}
}

// staticRel resolves a FROM item to a planning-only matRel (alias and
// table; no rows) — enough for matchJoinProbe's eligibility matching.
func staticRel(db *DB, item sqlast.FromItem) matRel {
	switch r := item.Ref.(type) {
	case *sqlast.TableName:
		return matRel{alias: r.RefName(), table: db.store.table(r.Name)}
	case *sqlast.DerivedTable:
		return matRel{alias: r.Alias}
	default:
		return matRel{}
	}
}

// permPrefixLen returns the length of the leading FROM prefix whose
// relations may be freely reordered (0 or 1 when none may): every join
// in the prefix is inner-like (comma, cross, explicit INNER — outer
// joins are side-sensitive), every prefix ON conjunct references only
// table-qualified columns of prefix relations and contains no subquery
// (relocation changes when a correlated subquery's bindings exist),
// prefix aliases are pairwise distinct so qualified references stay
// unambiguous after reordering, no later join is NATURAL (naturalOn
// binds shared columns against the *first* earlier relation, which
// reordering rebinds), and the statement is order-safe (the same gate
// every candidate-reordering plan uses). SELECT * does not block the
// permutation: the executor restores the original relation order in
// star expansion. An unsafe permutation is ignored, not an error.
func permPrefixLen(sel *sqlast.Select) int {
	if len(sel.Compound) > 0 || len(sel.From) < 2 || !indexOrderSafe(sel) {
		return 0
	}
	for _, item := range sel.From[1:] {
		if item.Join == sqlast.JoinNatural {
			return 0
		}
	}
	m := 1
	for m < len(sel.From) {
		switch sel.From[m].Join {
		case sqlast.JoinComma, sqlast.JoinCross, sqlast.JoinInner:
			m++
		default:
			goto sized
		}
	}
sized:
	if m < 2 {
		return 0
	}
	var aliasBuf [maxPermRels]string
	aliases := permScratch(aliasBuf[:], m)
	for i := 0; i < m; i++ {
		aliases[i] = refAlias(sel.From[i].Ref)
		if aliases[i] == "" {
			return 0
		}
		for j := 0; j < i; j++ {
			if strings.EqualFold(aliases[i], aliases[j]) {
				return 0
			}
		}
	}
	for i := 1; i < m; i++ {
		if sel.From[i].On == nil {
			continue
		}
		for _, conj := range splitAnd(sel.From[i].On, nil) {
			if !permConjSafe(conj, aliases) {
				return 0
			}
		}
	}
	return m
}

// refAlias returns the reference name of a FROM item's relation.
func refAlias(ref sqlast.TableRef) string {
	switch r := ref.(type) {
	case *sqlast.TableName:
		return r.RefName()
	case *sqlast.DerivedTable:
		return r.Alias
	default:
		return ""
	}
}

// permConjSafe reports whether an ON conjunct can be re-attached at a
// different join step: every column reference is qualified with a
// prefix alias (so the binding step is computable and unambiguous) and
// no subquery appears.
func permConjSafe(e sqlast.Expr, aliases []string) bool {
	ok := true
	walkExpr(e, func(x sqlast.Expr) bool {
		switch n := x.(type) {
		case *sqlast.ColumnRef:
			if n.Table == "" {
				ok = false
				return false
			}
			found := false
			for _, a := range aliases {
				if strings.EqualFold(n.Table, a) {
					found = true
					break
				}
			}
			if !found {
				ok = false
				return false
			}
		case *sqlast.Subquery, *sqlast.Exists:
			ok = false
			return false
		}
		return ok
	})
	return ok
}

// walkExpr visits e and its sub-expressions (not descending into
// subquery SELECTs) until visit returns false.
func walkExpr(e sqlast.Expr, visit func(sqlast.Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	switch x := e.(type) {
	case *sqlast.Unary:
		return walkExpr(x.X, visit)
	case *sqlast.Binary:
		return walkExpr(x.L, visit) && walkExpr(x.R, visit)
	case *sqlast.Func:
		for _, a := range x.Args {
			if !walkExpr(a, visit) {
				return false
			}
		}
	case *sqlast.Case:
		if !walkExpr(x.Operand, visit) {
			return false
		}
		for i := range x.Whens {
			if !walkExpr(x.Whens[i].Cond, visit) ||
				!walkExpr(x.Whens[i].Then, visit) {
				return false
			}
		}
		return walkExpr(x.Else, visit)
	case *sqlast.Cast:
		return walkExpr(x.X, visit)
	case *sqlast.Between:
		return walkExpr(x.X, visit) && walkExpr(x.Lo, visit) &&
			walkExpr(x.Hi, visit)
	case *sqlast.InList:
		if !walkExpr(x.X, visit) {
			return false
		}
		for _, le := range x.List {
			if !walkExpr(le, visit) {
				return false
			}
		}
	case *sqlast.IsNull:
		return walkExpr(x.X, visit)
	case *sqlast.IsBool:
		return walkExpr(x.X, visit)
	case *sqlast.Like:
		return walkExpr(x.X, visit) && walkExpr(x.Pattern, visit)
	}
	return true
}

// permutedFrom returns the FROM list reordered by perm — new position j
// holds original relation perm[j], positions beyond len(perm) keep
// their place — with every prefix ON conjunct re-attached at the
// earliest permuted step that binds all relations it references
// (permuted steps join as explicit INNER). The second result marks the
// conjuncts whose set of joined-in relations at their new step differs
// from the original — the "relocated" conjuncts a join-reorderer defect
// can mishandle; a plain two-relation swap relocates nothing.
func permutedFrom(from []sqlast.FromItem, perm []int) ([]sqlast.FromItem, map[sqlast.Expr]bool) {
	k := len(perm)
	out := make([]sqlast.FromItem, len(from))
	copy(out, from)

	// The per-relation lists are bounded by maxPermRels, the longest
	// prefix EnumeratePlans permutes; a longer spec-given perm is sized
	// on the heap.
	var aliasBuf [maxPermRels]string
	var boundBuf [maxPermRels]int
	var onsBuf [maxPermRels]sqlast.Expr
	aliases := permScratch(aliasBuf[:], k)
	bound := permScratch(boundBuf[:], k)
	ons := permScratch(onsBuf[:], k)
	for i := 0; i < k; i++ {
		aliases[i] = refAlias(from[i].Ref)
	}

	// Pool the prefix ON conjuncts with the original relation set each
	// one joined under.
	var conjBuf [2 * maxPermRels]sqlast.Expr
	var stepBuf [2 * maxPermRels]int
	conjs, origStep := conjBuf[:0], stepBuf[:0]
	for i := 1; i < k; i++ {
		if from[i].On != nil {
			n := len(conjs)
			conjs = splitAnd(from[i].On, conjs)
			for range conjs[n:] {
				origStep = append(origStep, i)
			}
		}
	}

	// bound[o] is the new step at which original relation o joins in.
	for j := 0; j < k; j++ {
		out[j] = sqlast.FromItem{Ref: from[perm[j]].Ref}
		if j > 0 {
			out[j].Join = sqlast.JoinInner
		}
		bound[perm[j]] = j
	}

	var moved map[sqlast.Expr]bool
	for ci, conj := range conjs {
		// The conjunct becomes evaluable at the latest new step among
		// the relations it references (step 1 when it references none).
		at := 1
		walkExpr(conj, func(x sqlast.Expr) bool {
			if cr, ok := x.(*sqlast.ColumnRef); ok {
				for o := 0; o < k; o++ {
					if strings.EqualFold(cr.Table, aliases[o]) {
						if bound[o] > at {
							at = bound[o]
						}
						break
					}
				}
			}
			return true
		})
		if ons[at] == nil {
			ons[at] = conj
		} else {
			ons[at] = &sqlast.Binary{Op: sqlast.OpAnd, L: ons[at], R: conj}
		}
		// Relocated: the relations already joined when the conjunct now
		// applies differ from those joined at its original step.
		if !samePrefixSet(perm, at, origStep[ci]) {
			if moved == nil {
				moved = map[sqlast.Expr]bool{}
			}
			moved[conj] = true
		}
	}
	for j := 1; j < k; j++ {
		out[j].On = ons[j]
	}
	return out, moved
}

// permScratch returns buf[:n], or a new list when n exceeds buf.
func permScratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// samePrefixSet reports whether {perm[0..at]} equals {0..orig}.
func samePrefixSet(perm []int, at, orig int) bool {
	if at != orig {
		return false
	}
	for j := 0; j <= at; j++ {
		if perm[j] > orig {
			return false
		}
	}
	return true
}
