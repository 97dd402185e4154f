// Package baseline provides the stand-in for SQLancer's hand-written
// per-DBMS generators (the paper's main point of comparison).
//
// A baseline generator differs from the adaptive one in exactly the ways
// the paper describes:
//
//   - It knows the dialect's feature matrix perfectly (an expert wrote
//     it), so it never emits a syntactically unsupported feature — the
//     counterpart of SQLancer's ~3.7 kLOC of per-DBMS generator code
//     (Figure 1).
//   - It knows the dialect's typing discipline, so on statically typed
//     systems it generates type-correct statements.
//   - It also generates the dialect's *specific* functions, which the
//     adaptive grammar lacks (Figure 7's baseline-only Venn regions and
//     Table 3's coverage edge) — including complex, failure-prone ones
//     (the paper attributes SQLancer's low PostgreSQL validity rate to
//     exactly those dialect-specific features' runtime complexity).
package baseline

import (
	"strings"

	"sqlancerpp/internal/core/campaign"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/feature"
)

// Policy answers feature-support queries from the dialect's ground-truth
// matrix instead of learned feedback.
type Policy struct {
	allowed feature.Set
}

// NewPolicy builds the dialect-truth policy. Composite per-argument type
// features (FN#i=TYPE) are supported iff the function is: the
// expert-written generator does not probe the type system (the type
// discipline itself comes from Config.TypeCorrect). Index widths
// (CREATE INDEX#n) name no function, so they are never generated.
func NewPolicy(d *dialect.Dialect) *Policy {
	p := &Policy{}
	p.allowed.Union(&d.Statements)
	p.allowed.Union(&d.Clauses)
	p.allowed.Union(&d.Operators)
	p.allowed.Union(&d.Functions)
	p.allowed.Union(&d.Types)
	// The baseline generator never experiments with implicit casts on
	// statically typed systems.
	if d.TypeSystem == dialect.Dynamic {
		p.allowed.Add(feature.PropImplicitCastID)
	} else {
		p.allowed.Remove(feature.PropImplicitCastID)
	}
	for id := feature.ID(0); id < feature.NumIDs; id++ {
		name := feature.Name(id)
		if i := strings.IndexByte(name, '#'); i > 0 {
			if base, ok := feature.Lookup(name[:i]); ok && d.Functions.Has(base) {
				p.allowed.Add(id)
			}
		}
	}
	return p
}

// SupportedID consults the dialect's feature matrix.
func (p *Policy) SupportedID(f feature.ID) bool { return p.allowed.Has(f) }

// Supported is SupportedID by name; a name outside the feature table is
// unsupported.
func (p *Policy) Supported(f string) bool {
	id, ok := feature.Lookup(f)
	return ok && p.SupportedID(id)
}

// ExtraFunctions returns the dialect-specific functions outside the
// universal grammar that the baseline generator additionally knows.
func ExtraFunctions(d *dialect.Dialect) []string {
	universal := map[string]bool{}
	for _, f := range feature.Functions {
		universal[f] = true
	}
	for _, f := range feature.Aggregates {
		universal[f] = true
	}
	var out []string
	for _, f := range d.FunctionList() {
		if !universal[f] {
			out = append(out, f)
		}
	}
	return out
}

// Configure fills a campaign config with the baseline generator setup
// for a dialect.
func Configure(cfg campaign.Config, d *dialect.Dialect) campaign.Config {
	cfg.Dialect = d
	cfg.Mode = campaign.Baseline
	cfg.Policy = NewPolicy(d)
	cfg.ExtraFunctions = ExtraFunctions(d)
	cfg.TypeCorrect = d.TypeSystem == dialect.Static
	// The hand-written generators exercise complex, failure-prone
	// dialect constructs without learning to avoid them (the paper's
	// explanation for SQLancer's 25.1% validity on PostgreSQL).
	cfg.RiskyProb = 0.35
	// Mature hand-written generators emit complex expressions from the
	// start — no shallow warm-up phase.
	cfg.StartDepth = 3
	cfg.MaxDepth = 3
	return cfg
}
