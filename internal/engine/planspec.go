package engine

// First-class per-query plan control. A PlanSpec forces access-path and
// join-strategy choices the planner (plan.go) would otherwise make by
// cost: per-relation scan/index forcing with an optional composite
// equality-prefix width cap, per-join-step probe suppression, and the
// join order of the leading inner-join chain. The PlanDiff oracle
// drives it: EnumeratePlans (planenum.go) yields the deterministic set
// of semantically-equivalent specs for a query, and the oracle diffs the
// auto plan against each of them.
//
// Forcing never changes statement semantics on a clean engine: every
// forced plan returns candidate supersets or reorderings that the
// unchanged WHERE/ON re-evaluation filters identically, and a forced
// choice that is inapplicable (unknown index, partial index, no sargable
// conjunct for the index, unsafe swap) degrades to the full scan — it
// never errors. This mirrors how real plan hints (USE INDEX, join-order
// pragmas) behave, and is what lets the oracle treat any divergence
// between two plans of the same query as a bug.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RelForce selects the forced access path of one FROM relation.
type RelForce int

// Relation forcing kinds.
const (
	// ForceAuto keeps the planner's own cost-based choice.
	ForceAuto RelForce = iota
	// ForceScan forces the full scan (no index probe).
	ForceScan
	// ForceIndex forces a probe through the named index; inapplicable
	// forcing (unknown/partial index, no sargable conjunct on its leading
	// column) degrades to the full scan.
	ForceIndex
)

// RelSpec forces the access path of one FROM relation, matched by its
// case-insensitive alias (the table name when unaliased).
type RelSpec struct {
	Force RelForce
	// Index names the forced index (ForceIndex only).
	Index string
	// PrefixWidth caps the composite equality-prefix width the probe may
	// consume (0 = no cap): width 1 turns a composite span into a
	// leading-column span, leaving the remaining conjuncts to the WHERE
	// loop. Applies to both forced and auto-chosen indexes.
	PrefixWidth int
}

// JoinSpec forces one join step; step i combines FROM item i+1 with the
// relations accumulated before it.
type JoinSpec struct {
	// ProbeOff forces the quadratic candidate loop even where an
	// index-nested-loop probe applies.
	ProbeOff bool
}

// PlanSpec is a per-query plan-forcing specification. The zero value
// means fully automatic planning. Specs are applied with DB.SetPlanSpec
// and stay in effect until replaced — exactly like the session-scoped
// planner pragmas of a real DBMS.
type PlanSpec struct {
	// DisableIndexPaths suppresses the access-path planner wholesale:
	// every scan — base-table and join probe alike — is a full scan,
	// while index maintenance continues.
	DisableIndexPaths bool
	// JoinPerm reorders the leading inner-join chain of the FROM list
	// before planning: relation j of the permuted FROM is original
	// relation JoinPerm[j], with positions beyond len(JoinPerm) left in
	// place. The canonical form trims trailing fixed points, so the
	// identity is nil and the legacy two-relation swap is [1, 0]. ON
	// conjuncts are re-attached at the earliest permuted step that binds
	// their relations, and SELECT * output is restored to the original
	// relation order, so the permutation is invisible to results. It is
	// applied only when semantically safe (inner-like chain, explicit
	// qualified ON conditions, order-safe statement); otherwise it is
	// ignored.
	JoinPerm []int
	// CoveringOff suppresses covering-index projection: even when every
	// referenced column is in the chosen index's key, the executor
	// materializes heap rows and evaluates the projection normally. The
	// candidate rows, WHERE evaluation, and results are unchanged — only
	// the serving path (and its cost accounting) differs, which is
	// exactly the axis PlanDiff wants to diff.
	CoveringOff bool
	// Relations maps a relation alias to its access-path forcing.
	Relations map[string]RelSpec
	// Joins maps a join-step index to its forcing.
	Joins map[int]JoinSpec
}

// relSpec returns the forcing for a relation alias (zero value if none).
func (p *PlanSpec) relSpec(alias string) RelSpec {
	for a, rs := range p.Relations {
		if strings.EqualFold(a, alias) {
			return rs
		}
	}
	return RelSpec{}
}

// joinProbeOff reports whether the spec forces the quadratic loop for a
// join step.
func (p *PlanSpec) joinProbeOff(step int) bool {
	return p.Joins[step].ProbeOff
}

// String renders the spec in its canonical serialized form: "auto" for
// the zero spec, otherwise space-separated tokens — "noindex",
// "perm:<i,j,...>", "nocover", "rel:<alias>=scan",
// "rel:<alias>=index(<name>)[/w<k>]", "rel:<alias>=auto/w<k>",
// "join:<step>=probeoff" — with relations sorted by alias and joins by
// step, so equal specs render identically. ParsePlanSpec inverts it; bug
// reports carry the losing spec in this form and the reducer replays
// it verbatim.
func (p PlanSpec) String() string {
	var toks []string
	if p.DisableIndexPaths {
		toks = append(toks, "noindex")
	}
	if len(p.JoinPerm) > 0 {
		ps := make([]string, len(p.JoinPerm))
		for i, v := range p.JoinPerm {
			ps[i] = strconv.Itoa(v)
		}
		toks = append(toks, "perm:"+strings.Join(ps, ","))
	}
	if p.CoveringOff {
		toks = append(toks, "nocover")
	}
	aliases := make([]string, 0, len(p.Relations))
	for a := range p.Relations {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		rs := p.Relations[a]
		var body string
		switch rs.Force {
		case ForceScan:
			body = "scan"
		case ForceIndex:
			body = "index(" + rs.Index + ")"
		default:
			body = "auto"
		}
		if rs.PrefixWidth > 0 && rs.Force != ForceScan {
			body += "/w" + strconv.Itoa(rs.PrefixWidth)
		}
		toks = append(toks, "rel:"+a+"="+body)
	}
	steps := make([]int, 0, len(p.Joins))
	for s := range p.Joins {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	for _, s := range steps {
		if p.Joins[s].ProbeOff {
			toks = append(toks, "join:"+strconv.Itoa(s)+"=probeoff")
		}
	}
	if len(toks) == 0 {
		return "auto"
	}
	return strings.Join(toks, " ")
}

// CanonicalPerm trims trailing fixed points from a permutation and
// returns nil for the identity, so equal join orders compare and render
// identically regardless of how many fixed tail positions the caller
// spelled out.
func CanonicalPerm(perm []int) []int {
	n := len(perm)
	for n > 0 && perm[n-1] == n-1 {
		n--
	}
	if n == 0 {
		return nil
	}
	return perm[:n]
}

// ParsePlanSpec parses the String form back into a PlanSpec.
func ParsePlanSpec(s string) (PlanSpec, error) {
	var p PlanSpec
	s = strings.TrimSpace(s)
	if s == "" || s == "auto" {
		return p, nil
	}
	for _, tok := range strings.Fields(s) {
		switch {
		case tok == "noindex":
			p.DisableIndexPaths = true
		case strings.HasPrefix(tok, "perm:"):
			parts := strings.Split(tok[len("perm:"):], ",")
			perm := make([]int, len(parts))
			seen := make([]bool, len(parts))
			for i, part := range parts {
				v, err := strconv.Atoi(part)
				if err != nil || v < 0 || v >= len(parts) || seen[v] {
					return PlanSpec{}, fmt.Errorf("planspec: bad permutation %q", tok)
				}
				perm[i] = v
				seen[v] = true
			}
			if perm = CanonicalPerm(perm); perm == nil {
				return PlanSpec{}, fmt.Errorf("planspec: identity permutation %q", tok)
			}
			p.JoinPerm = perm
		case tok == "nocover":
			p.CoveringOff = true
		case strings.HasPrefix(tok, "rel:"):
			body := tok[len("rel:"):]
			eq := strings.IndexByte(body, '=')
			if eq <= 0 {
				return PlanSpec{}, fmt.Errorf("planspec: malformed token %q", tok)
			}
			alias, val := body[:eq], body[eq+1:]
			var rs RelSpec
			if i := strings.LastIndex(val, "/w"); i >= 0 {
				w, err := strconv.Atoi(val[i+2:])
				if err != nil || w < 1 {
					return PlanSpec{}, fmt.Errorf("planspec: bad prefix width in %q", tok)
				}
				rs.PrefixWidth = w
				val = val[:i]
			}
			switch {
			case val == "scan":
				rs.Force = ForceScan
			case val == "auto":
				rs.Force = ForceAuto
			case strings.HasPrefix(val, "index(") && strings.HasSuffix(val, ")"):
				rs.Force = ForceIndex
				rs.Index = val[len("index(") : len(val)-1]
				if rs.Index == "" {
					return PlanSpec{}, fmt.Errorf("planspec: empty index name in %q", tok)
				}
			default:
				return PlanSpec{}, fmt.Errorf("planspec: unknown forcing %q", tok)
			}
			if p.Relations == nil {
				p.Relations = map[string]RelSpec{}
			}
			p.Relations[alias] = rs
		case strings.HasPrefix(tok, "join:"):
			body := tok[len("join:"):]
			eq := strings.IndexByte(body, '=')
			if eq <= 0 || body[eq+1:] != "probeoff" {
				return PlanSpec{}, fmt.Errorf("planspec: malformed token %q", tok)
			}
			step, err := strconv.Atoi(body[:eq])
			if err != nil || step < 0 {
				return PlanSpec{}, fmt.Errorf("planspec: bad join step in %q", tok)
			}
			if p.Joins == nil {
				p.Joins = map[int]JoinSpec{}
			}
			p.Joins[step] = JoinSpec{ProbeOff: true}
		default:
			return PlanSpec{}, fmt.Errorf("planspec: unknown token %q", tok)
		}
	}
	return p, nil
}
