package faults

import (
	"fmt"
	"sort"
)

// spec is a compact catalogue entry; IDs are assigned per dialect.
type spec struct {
	class Class
	kind  Kind
	param string
	desc  string
}

// catalog lists the injected faults per dialect. The distribution follows
// the *shape* of the paper's Table 2 at roughly half scale for the
// bug-heavy systems (Umbra > MonetDB > CrateDB ≈ Dolt > Firebird ≈ DuckDB
// ≈ Virtuoso > …), with the small counts kept exact. The logic:other
// ratio is ≈72:28, matching the paper's 140:56.
//
// SQLite's three faults are modeled on the paper's two case-study bugs
// (Listings 2 and 3) plus one type-affinity defect.
var catalog = map[string][]spec{
	"sqlite": {
		{Logic, FuncCmpNumeric, "REPLACE", "REPLACE returns an intermediate object compared numerically (paper Listing 2; hidden ~10 years)"},
		{Logic, JoinOnToWhere, "RIGHT JOIN", "query flattener moves a RIGHT JOIN ON term into WHERE (paper Listing 3)"},
		{Logic, CmpMixedText, ">", "affinity defect: INT>TEXT compares textually under index lookup"},
	},
	"mysql": {
		{Logic, CmpNullTrue, "<>", "<> with NULL operand keeps the row in the optimized filter"},
		{Logic, FuncCmpNumeric, "LOWER", "LOWER result constant-folded to a numeric comparison"},
	},
	"mariadb": {
		{Logic, CmpNullEqTrue, "<=", "NULL<=NULL evaluates TRUE in the range optimizer"},
		{Logic, FuncWrongVal, "UPPER", "UPPER value perturbed when folded into an index probe"},
		{Error, UniqueIndexFalseConflict, "", "multi-column unique index checks only the leading key column, raising spurious duplicate-key errors"},
	},
	"percona": {
		{Logic, NotElim, ">=", "NOT(a>=b) rewritten to a<=b, double-counting equal keys"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE instead of NULL"},
	},
	"tidb": {
		{Logic, CmpMixedText, "<", "INT<TEXT compared textually after constant propagation"},
		{Logic, NotElim, "<=", "NOT(a<=b) rewritten to a>=b, double-counting equal keys"},
		{Crash, CrashOnFeature, "~", "bitwise inversion crashes the executor (cf. paper §6 TiDB '~' bug)"},
		{Logic, IndexRangeBoundary, ">=", "index range scan treats >= as an exclusive lower bound, dropping boundary keys"},
		{Logic, CompositeProbePrefixSkip, "", "composite index probe marks the trailing range condition as consumed by the access path without applying it"},
		{Logic, PrefixSpanTruncate, "", "composite index probed through a partial key prefix loses the last entry of the prefix span (short upper fencepost)"},
	},
	"dolt": {
		{Logic, CmpNullTrue, "=", "= with NULL operand keeps the row in the optimized filter"},
		{Logic, CmpMixedText, "<=", "INT<=TEXT compared textually in storage iterator"},
		{Logic, NotElim, "!=", "NOT(a!=b) rewritten to a<b"},
		{Logic, FuncCmpNumeric, "REPLACE", "REPLACE result compared numerically against TEXT key"},
		{Logic, FuncWrongVal, "INSTR", "INSTR off-by-one when folded into a filter"},
		{Logic, JoinOnToWhere, "LEFT JOIN", "LEFT JOIN ON term flattened into WHERE"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE instead of NULL"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Crash, CrashOnFeature, "XOR", "logical XOR crashes the analyzer"},
		{Crash, CrashOnFeature, "&", "bitwise AND crashes the expression compiler"},
		{Crash, CrashOnDeepExpr, "", "deeply nested expressions overflow the analyzer stack"},
		{Error, InternalErrorOnFeature, "COALESCE", "COALESCE raises an internal error during folding"},
		{Error, InternalErrorOnFeature, "OFFSET", "OFFSET raises an internal iterator error"},
		{Perf, PerfOnFeature, "LIKE", "LIKE falls back to a quadratic scan"},
		{Logic, JoinIndexResidual, "", "lookup-join executor drops the non-key ON filters for index-probed rows"},
		{Logic, CompositeProbePrefixSkip, "", "composite index lookup returns the whole equality-prefix span and skips re-checking the trailing range filter"},
	},
	"vitess": {
		{Logic, CmpNullTrue, ">=", ">= with NULL operand keeps the row after query routing"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE on scatter queries"},
	},
	"cubrid": {
		{Logic, NotElim, "=", "NOT(a=b) rewritten to a<b"},
	},
	"cratedb": {
		{Logic, CmpNullTrue, "=", "= with NULL operand keeps the row in the optimized filter"},
		{Logic, CmpNullTrue, "<", "< with NULL operand keeps the row in the optimized filter"},
		{Logic, CmpNullEqTrue, ">=", "NULL>=NULL evaluates TRUE"},
		{Logic, CmpNullEqTrue, "<>", "NULL<>NULL evaluates TRUE"},
		{Logic, NotElim, "<=", "NOT(a<=b) rewritten to a>=b"},
		{Logic, FuncCmpNumeric, "REPLACE", "REPLACE result compared numerically against TEXT column"},
		{Logic, FuncWrongVal, "ABS", "ABS folded with sign error in filters"},
		{Logic, FuncWrongVal, "LENGTH", "LENGTH off-by-one when folded into filters"},
		{Logic, JoinOnToWhere, "LEFT JOIN", "LEFT JOIN ON term flattened into WHERE"},
		{Logic, JoinOnToWhere, "RIGHT JOIN", "RIGHT JOIN ON term flattened into WHERE"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE"},
		{Logic, BetweenExclusive, "", "BETWEEN treated as exclusive range"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Logic, DistinctFromNull, "", "IS DISTINCT FROM treats two NULLs as distinct"},
	},
	"umbra": {
		{Logic, CmpNullTrue, "!=", "!= with NULL operand keeps the row"},
		{Logic, CmpNullTrue, ">", "> with NULL operand keeps the row"},
		{Logic, CmpNullEqTrue, "=", "NULL=NULL evaluates TRUE in codegen"},
		{Logic, CmpNullEqTrue, "<", "NULL<NULL evaluates TRUE in codegen"},
		{Logic, NotElim, "<", "NOT(a<b) rewritten to a>b, dropping equal keys"},
		{Logic, NotElim, ">=", "NOT(a>=b) rewritten to a<=b"},
		{Logic, FuncCmpNumeric, "LOWER", "LOWER result compared numerically"},
		{Logic, FuncCmpNumeric, "TRIM", "TRIM result compared numerically"},
		{Logic, FuncWrongVal, "COALESCE", "COALESCE folded to the wrong argument in filters"},
		{Logic, FuncWrongVal, "SUBSTR", "SUBSTR window shifted when folded into filters"},
		{Logic, JoinOnToWhere, "LEFT JOIN", "LEFT JOIN ON term flattened into WHERE"},
		{Logic, JoinOnToWhere, "FULL JOIN", "FULL JOIN degraded to inner join under WHERE"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE"},
		{Logic, BetweenExclusive, "", "BETWEEN treated as exclusive range"},
		{Logic, LikeUnderscore, "", "LIKE '_' wildcard fails to match"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Crash, CrashOnFeature, "~", "bitwise inversion crashes codegen"},
		{Crash, CrashOnFeature, "<<", "left shift crashes codegen"},
		{Crash, CrashOnDeepExpr, "", "deeply nested expressions crash the compiler"},
		{Error, InternalErrorOnFeature, "NULLIF", "NULLIF raises an internal error"},
		{Error, InternalErrorOnFeature, ">>", "right shift raises an internal error"},
		{Error, InternalErrorOnFeature, "HAVING", "HAVING raises an internal error"},
		{Error, InternalErrorOnFeature, "HEX", "HEX raises an internal error"},
		{Perf, PerfOnFeature, "DISTINCT", "DISTINCT falls off the hash-aggregation fast path"},
		{Logic, IndexRangeBoundary, "<=", "index range scan treats <= as an exclusive upper bound, dropping boundary keys"},
		{Logic, JoinIndexResidual, "", "index-nested-loop join treats the probe equality as the whole ON condition, skipping residual conjuncts"},
		{Logic, CompositeSpanBoundary, "", "composite index span computes its trailing strict range with an off-by-one, dropping the boundary-adjacent key"},
		{Logic, JoinPermConjDrop, "", "join reorderer drops a relocated ON conjunct when the permuted order defers it past its original step"},
	},
	"monetdb": {
		{Logic, CmpNullTrue, "<=", "<= with NULL operand keeps the row"},
		{Logic, CmpNullEqTrue, "!=", "NULL!=NULL evaluates TRUE"},
		{Logic, NotElim, "=", "NOT(a=b) rewritten to a<b"},
		{Logic, FuncCmpNumeric, "UPPER", "UPPER result compared numerically"},
		{Logic, FuncWrongVal, "SIGN", "SIGN folded with inverted sign in filters"},
		{Logic, JoinOnToWhere, "RIGHT JOIN", "RIGHT JOIN ON term flattened into WHERE"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE"},
		{Logic, BetweenExclusive, "", "BETWEEN treated as exclusive range"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Logic, LikeUnderscore, "", "LIKE '_' wildcard fails to match"},
		{Logic, PartialIndexScan, "", "partial index scan drops rows outside the index predicate"},
		{Logic, UnionAllDedup, "", "UNION ALL removes duplicates as if it were UNION"},
		{Crash, CrashOnFeature, "%", "modulo crashes the MAL interpreter"},
		{Crash, CrashOnFeature, "GROUP BY", "GROUP BY crashes the relational algebra rewriter"},
		{Crash, CrashOnDeepExpr, "", "deeply nested expressions crash the parser stack"},
		{Error, InternalErrorOnFeature, "MOD", "MOD raises an internal error"},
		{Error, InternalErrorOnFeature, "CREATE VIEW", "view creation intermittently raises an internal error"},
		{Error, InternalErrorOnFeature, "<<", "left shift raises an internal error"},
		{Perf, PerfOnFeature, "IN", "IN list probes fall back to nested scans"},
		{Logic, StaleIndexAfterUpdate, "", "UPDATE skips secondary-index maintenance, leaving stale index entries behind"},
		{Logic, CompositeSpanBoundary, "", "multi-column index range scan loses the edge key of the trailing strict range (fencepost in the span computation)"},
		{Logic, PrefixSpanTruncate, "", "multi-column index scanned under a shorter key prefix than it was chosen for drops the final matching entry"},
		{Logic, CoveringIndexProjSwap, "", "index-only projection reads the first two key columns of a multi-column index through a transposed column map"},
	},
	"firebird": {
		{Logic, CmpNullEqTrue, "=", "NULL=NULL evaluates TRUE"},
		{Logic, NotElim, "<", "NOT(a<b) rewritten to a>b"},
		{Logic, FuncWrongVal, "TRIM", "TRIM result perturbed when folded into filters"},
		{Logic, BetweenExclusive, "", "BETWEEN treated as exclusive range"},
		{Logic, JoinOnToWhere, "LEFT JOIN", "LEFT JOIN ON term flattened into WHERE"},
		{Error, InternalErrorOnFeature, "SUBSTR", "SUBSTR raises an internal error"},
	},
	"duckdb": {
		{Logic, CmpNullTrue, ">=", ">= with NULL operand keeps the row in the vectorized filter"},
		{Logic, JoinOnToWhere, "FULL JOIN", "FULL JOIN degraded to inner join under WHERE"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Logic, UnionAllDedup, "", "UNION ALL removes duplicates in the vectorized concatenation"},
		{Crash, CrashOnFeature, "<<", "left shift crashes the vector executor"},
		{Error, InternalErrorOnFeature, "HEX", "HEX raises an internal error"},
	},
	"virtuoso": {
		{Logic, CmpNullEqTrue, "<=", "NULL<=NULL evaluates TRUE"},
		{Logic, NotElim, ">", "NOT(a>b) rewritten to a<b"},
		{Logic, NotInNullTrue, "", "NOT IN with NULL element yields TRUE"},
		{Logic, LikeUnderscore, "", "LIKE '_' wildcard fails to match"},
		{Crash, CrashOnFeature, "~", "bitwise inversion crashes the server"},
	},
	"cedardb": {
		{Logic, CmpNullTrue, "<", "< with NULL operand keeps the row"},
		{Crash, CrashOnFeature, "FULL JOIN", "FULL JOIN crashes the compiler"},
		{Crash, CrashOnDeepExpr, "", "deeply nested expressions crash codegen"},
		{Error, InternalErrorOnFeature, "NULLIF", "NULLIF raises an internal error"},
	},
	"h2": {
		{Logic, DistinctFromNull, "", "IS DISTINCT FROM treats two NULLs as distinct"},
		{Error, InternalErrorOnFeature, ">>", "right shift raises an internal error"},
	},
	"oracle": {
		{Logic, BetweenExclusive, "", "BETWEEN treated as exclusive range"},
	},
	"risingwave": {
		{Logic, CmpNullTrue, "!=", "!= with NULL operand keeps the row in the stream filter"},
		{Logic, JoinOnToWhere, "LEFT JOIN", "LEFT JOIN ON term flattened into WHERE"},
		{Logic, CaseNullTrue, "", "CASE takes a branch whose WHEN condition is NULL"},
		{Crash, CrashOnFeature, ">>", "right shift crashes the stream executor"},
	},
	"postgresql": nil, // clean reference system (used for Tables 3–4)

	// panicdb is a synthetic containment-validation profile, not one of
	// the paper's Table 2 systems (it is deliberately absent from
	// dialect.PaperDBMSs, keeping the catalogue totals intact). Its
	// faults panic the harness *process* instead of returning errors:
	// seeded campaigns over it are the ground truth that proves the
	// campaign's recovery boundaries contain, attribute, and reduce
	// panics with zero false positives.
	//lint:allow faultsite panicdb is the synthetic containment-validation profile: deliberately unregistered, built ad hoc by the robustness tests
	"panicdb": {
		{Crash, PanicOnCompositeRebuild, "", "rebuilding a multi-column index overruns the key arena and panics the process (Go panic, not a simulated crash)"},
		{Crash, PanicOnProbeStep, "", "the index-nested-loop probe step dereferences a detached ordered-store entry and panics the process"},
	},
}

// ForDialect returns the injected faults of a dialect (nil for a clean
// system or unknown name). IDs are assigned deterministically as
// "<dialect>-<n>".
func ForDialect(name string) []Fault {
	specs, ok := catalog[name]
	if !ok || len(specs) == 0 {
		return nil
	}
	out := make([]Fault, len(specs))
	for i, sp := range specs {
		out[i] = Fault{
			ID:          fmt.Sprintf("%s-%d", name, i+1),
			Dialect:     name,
			Class:       sp.class,
			Kind:        sp.kind,
			Param:       sp.param,
			Description: sp.desc,
		}
	}
	return out
}

// Dialects returns the dialect names present in the catalogue, sorted.
func Dialects() []string {
	out := make([]string, 0, len(catalog))
	for name := range catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
