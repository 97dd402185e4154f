// Package dialect defines per-DBMS SQL dialect configurations: which
// features each simulated system supports, its type system, its quirks,
// and its injected faults. These configurations are the stand-ins for the
// paper's 18 production DBMSs (plus PostgreSQL, used by the coverage and
// validity experiments).
//
// The feature matrices are intentionally *divergent*: the paper's §5.2
// finding is that even mostly-common SQL features are unsupported on more
// than half of the systems, which is exactly what makes a per-DBMS
// generator necessary — or an adaptive one valuable.
package dialect

import (
	"fmt"
	"sort"
	"sync"

	"sqlancerpp/internal/faults"
	"sqlancerpp/internal/feature"
)

// TypeSystem distinguishes dynamically and statically typed dialects
// (paper Appendix A.1, "abstract properties").
type TypeSystem int

// Type systems.
const (
	// Dynamic: SQLite-like. Values coerce at runtime; almost no statement
	// is ill-typed.
	Dynamic TypeSystem = iota
	// Static: PostgreSQL-like. Expressions are type-checked during
	// validation; mismatches are semantic errors.
	Static
)

// String returns a label for the type system.
func (t TypeSystem) String() string {
	if t == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Dialect is one simulated DBMS configuration.
type Dialect struct {
	// Name is the registry key, e.g. "sqlite".
	Name string
	// DisplayName is the human-readable name, e.g. "SQLite".
	DisplayName string
	// TypeSystem selects runtime coercion vs. validation-time checking.
	TypeSystem TypeSystem

	// Statements, Clauses, Operators, Functions, and Types are the
	// supported feature sets: masks over the feature table. Clause
	// keywords and operator spellings are separate namespaces (SUBQUERY
	// is in both), so each has its own mask.
	Statements feature.Set
	Clauses    feature.Set
	Operators  feature.Set
	Functions  feature.Set
	Types      feature.Set

	// MaxIndexColumns caps the number of columns per index (0 means
	// unlimited). Statements exceeding it fail validation, which is how
	// the adaptive generator learns a dialect's composite-index limits.
	MaxIndexColumns int
	// RequiresRefresh: inserted rows are invisible to queries until a
	// REFRESH TABLE statement runs (CrateDB-style; paper §6).
	RequiresRefresh bool
	// DivZeroError: x/0 raises a runtime error instead of yielding NULL.
	DivZeroError bool
	// CastTextError: CAST of a non-numeric TEXT to INTEGER raises a
	// runtime error instead of yielding 0.
	CastTextError bool
	// MathDomainError: ASIN/ACOS/SQRT/LN out-of-domain arguments raise a
	// runtime error instead of yielding NULL (the paper's ASIN(2)
	// example of a context-dependent failure).
	MathDomainError bool

	// Faults are the injected defects (ground truth for evaluation).
	Faults *faults.Set
}

// SupportsFunction reports whether the named function is supported; a
// name outside the feature table is not.
func (d *Dialect) SupportsFunction(name string) bool {
	id, ok := feature.Lookup(name)
	return ok && d.Functions.Has(id)
}

// FunctionList returns the sorted supported function names.
func (d *Dialect) FunctionList() []string { return d.Functions.Names() }

// OperatorList returns the sorted supported operator spellings.
func (d *Dialect) OperatorList() []string { return d.Operators.Names() }

// Clone returns a copy, so callers can derive custom dialects. The
// feature masks are values, so the copy shares nothing mutable but the
// fault set, which is read-only.
func (d *Dialect) Clone() *Dialect {
	c := *d
	return &c
}

// builtin is a registry entry whose dialect is built on first use.
type builtin struct {
	name  string
	build func() *Dialect
	once  sync.Once
	d     *Dialect
}

// get builds the dialect once and returns the same pointer every time.
func (b *builtin) get() *Dialect {
	b.once.Do(func() { b.d = withFaults(b.build()) })
	return b.d
}

var (
	regMu sync.RWMutex
	// custom holds the dialects added by Register.
	custom map[string]*Dialect
)

// lookupBuiltin returns the built-in entry of that name, if any.
func lookupBuiltin(name string) *builtin {
	for i := range builtins {
		if builtins[i].name == name {
			return &builtins[i]
		}
	}
	return nil
}

// Register adds a dialect to the registry. It returns an error if the
// name is already taken, by a built-in dialect (built or not) or by an
// earlier registration.
func Register(d *Dialect) error {
	if lookupBuiltin(d.Name) != nil {
		return fmt.Errorf("dialect: %q already registered", d.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := custom[d.Name]; ok {
		return fmt.Errorf("dialect: %q already registered", d.Name)
	}
	if custom == nil {
		custom = map[string]*Dialect{}
	}
	custom[d.Name] = d
	return nil
}

// Get returns a registered dialect by name. A built-in dialect is built
// on its first Get; every later Get returns the same pointer.
func Get(name string) (*Dialect, error) {
	if b := lookupBuiltin(name); b != nil {
		return b.get(), nil
	}
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := custom[name]
	if !ok {
		return nil, fmt.Errorf("dialect: unknown dialect %q", name)
	}
	return d, nil
}

// MustGet returns a registered dialect or panics; for tests and tables.
func MustGet(name string) *Dialect {
	d, err := Get(name)
	if err != nil {
		panic(err)
	}
	return d
}

// Names returns all registered dialect names, sorted, without building
// any dialect.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builtins)+len(custom))
	for i := range builtins {
		out = append(out, builtins[i].name)
	}
	for n := range custom {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// set builds a feature mask from ID lists.
func set(lists ...[]feature.ID) feature.Set {
	var s feature.Set
	for _, l := range lists {
		s.AddAll(l)
	}
	return s
}

// without returns the mask less the given features.
func without(m feature.Set, items ...feature.ID) feature.Set {
	for _, it := range items {
		m.Remove(it)
	}
	return m
}

// with returns the mask plus the given features.
func with(m feature.Set, items ...feature.ID) feature.Set {
	m.AddAll(items)
	return m
}

// universalStatements returns the statements every base profile starts
// from (the paper's six core statements plus the DML/DDL extensions).
func universalStatements() feature.Set {
	return set(feature.StatementIDs, []feature.ID{feature.StmtDropTableID,
		feature.StmtDropViewID, feature.StmtDropIndexID, feature.StmtReindexID})
}

func universalClauses() feature.Set {
	return set(feature.ClauseIDs, []feature.ID{feature.ClauseWhereID,
		feature.PrimaryKeyID, feature.NotNullColumnID, feature.UniqueColumnID,
		feature.ViewColumnNamesID})
}

func universalOperators() feature.Set {
	return set(feature.BinaryOperatorIDs, []feature.ID{feature.OpBitNotID}, feature.ExprFormIDs,
		[]feature.ID{feature.ExprIsNullID, feature.ExprIsBoolID, feature.ExprNotID})
}

func universalFunctions() feature.Set {
	return set(feature.FunctionIDs, feature.AggregateIDs)
}
