// Package feature defines the canonical names of SQL features and the
// table that gives each one a dense ID.
//
// A feature (paper §3, "SQL features") is an element or property of the
// query language expected to be either supported or unsupported by a
// given DBMS: a statement, a clause or keyword, an operator, a function,
// a data type, or an abstract property. The same features are used by the
// dialect feature matrices, the adaptive generator's feature sets, the
// engine's feature scanner, and the fault catalogue's trigger parameters.
//
// Inside the program a feature is an ID and a feature set is a Set
// bitset; names appear only where state crosses a boundary (saved
// feedback state, checkpoints, bug records, fault messages). The table
// (table.go) lists every name in byte order, so ID order is name order.
package feature

import "strconv"

// Statement features (paper Table 6: 6 statements; we additionally expose
// the DML/DDL extensions UPDATE, DELETE, ALTER TABLE, DROP, and REFRESH).
const (
	StmtCreateTable = "CREATE TABLE"
	StmtCreateIndex = "CREATE INDEX"
	StmtCreateView  = "CREATE VIEW"
	StmtInsert      = "INSERT"
	StmtAnalyze     = "ANALYZE"
	StmtSelect      = "SELECT"
	StmtUpdate      = "UPDATE"
	StmtDelete      = "DELETE"
	StmtAlterTable  = "ALTER TABLE"
	StmtDropTable   = "DROP TABLE"
	StmtDropView    = "DROP VIEW"
	StmtDropIndex   = "DROP INDEX"
	StmtReindex     = "REINDEX"
	StmtRefresh     = "REFRESH TABLE"
)

// Clause and keyword features.
const (
	ClauseWhere     = "WHERE"
	JoinComma       = "COMMA JOIN"
	JoinInner       = "INNER JOIN"
	JoinLeft        = "LEFT JOIN"
	JoinRight       = "RIGHT JOIN"
	JoinFull        = "FULL JOIN"
	JoinCross       = "CROSS JOIN"
	JoinNatural     = "NATURAL JOIN"
	Subquery        = "SUBQUERY"
	DerivedTable    = "DERIVED TABLE"
	Distinct        = "DISTINCT"
	GroupBy         = "GROUP BY"
	Having          = "HAVING"
	OrderBy         = "ORDER BY"
	Limit           = "LIMIT"
	Offset          = "OFFSET"
	UniqueIndex     = "UNIQUE INDEX"
	PartialIndex    = "PARTIAL INDEX"
	CompositeIndex  = "COMPOSITE INDEX"
	PrimaryKey      = "PRIMARY KEY"
	NotNullColumn   = "NOT NULL"
	UniqueColumn    = "UNIQUE COLUMN"
	InsertOrIgnore  = "INSERT OR IGNORE"
	InsertMultiRow  = "MULTI-ROW INSERT"
	ViewColumnNames = "VIEW COLUMN NAMES"
	Union           = "UNION"
	UnionAll        = "UNION ALL"
	Intersect       = "INTERSECT"
	Except          = "EXCEPT"
)

// Operator spellings (paper Table 6's operator features). Unary minus,
// unary plus and NOT share the spellings of their binary counterparts.
const (
	OpAdd           = "+"
	OpSub           = "-"
	OpMul           = "*"
	OpDiv           = "/"
	OpMod           = "%"
	OpConcat        = "||"
	OpBitAnd        = "&"
	OpBitOr         = "|"
	OpBitXor        = "^"
	OpShl           = "<<"
	OpShr           = ">>"
	OpEq            = "="
	OpNeq           = "!="
	OpNeq2          = "<>"
	OpLt            = "<"
	OpLe            = "<="
	OpGt            = ">"
	OpGe            = ">="
	OpNullSafeEq    = "<=>"
	OpAnd           = "AND"
	OpOr            = "OR"
	OpXor           = "XOR"
	OpIsDistinct    = "IS DISTINCT FROM"
	OpIsNotDistinct = "IS NOT DISTINCT FROM"
	OpBitNot        = "~"
)

// SetOps lists the compound-query features.
var SetOps = []string{Union, UnionAll, Intersect, Except}

// Expression-form features (operators that are not simple spellings).
const (
	ExprCase     = "CASE"
	ExprCast     = "CAST"
	ExprIn       = "IN"
	ExprNotIn    = "NOT IN"
	ExprBetween  = "BETWEEN"
	ExprLike     = "LIKE"
	ExprGlob     = "GLOB"
	ExprExists   = "EXISTS"
	ExprIsNull   = "IS NULL"
	ExprIsBool   = "IS TRUE"
	ExprNot      = "NOT"
	ExprAggr     = "AGGREGATE"
	ExprConstant = "CONSTANT"
	ExprColumn   = "COLUMN"
)

// Abstract properties (paper Appendix A.1).
const (
	PropDynamicTypes = "DYNAMIC TYPES"
	PropImplicitCast = "IMPLICIT CAST"
)

// Data type features.
const (
	TypeInteger = "INTEGER"
	TypeText    = "TEXT"
	TypeBoolean = "BOOLEAN"
)

// MaxFuncArgPos is the highest argument position with a FuncArg feature
// in the table: no function the generator calls takes more arguments.
const MaxFuncArgPos = 3

// MaxIndexWidth is the widest index with an IndexWidth feature in the
// table. Widths stay single digits, so "CREATE INDEX#n" sorts by n.
const MaxIndexWidth = 9

// FuncArg returns the composite data-type feature for a function argument,
// e.g. FuncArg("SIN", 1, "INTEGER") == "SIN#1=INTEGER" — the paper's
// SIN1INT (Appendix A.1: fine-grained features that learn expected types).
func FuncArg(fn string, pos int, typ string) string {
	return fn + "#" + strconv.Itoa(pos) + "=" + typ
}

// IndexWidth returns the fine-grained feature for an index's column
// count, e.g. IndexWidth(3) == "CREATE INDEX#3". Per-dialect
// column-count limits reject wide indexes at validation, so the
// adaptive generator learns each dialect's cap through these, without
// condemning CREATE INDEX or COMPOSITE INDEX as a whole.
func IndexWidth(n int) string {
	return StmtCreateIndex + "#" + strconv.Itoa(n)
}

// Statements lists the statement features of the adaptive grammar in
// generation order. The first six are the paper's core statements.
var Statements = []string{
	StmtCreateTable, StmtCreateIndex, StmtCreateView, StmtInsert,
	StmtAnalyze, StmtSelect, StmtUpdate, StmtDelete, StmtAlterTable,
	StmtRefresh,
}

// Joins lists join-clause features (paper: six types of join).
var Joins = []string{
	JoinComma, JoinInner, JoinLeft, JoinRight, JoinFull, JoinCross,
	JoinNatural,
}

// Clauses lists the clause/keyword features tracked by the generator.
var Clauses = []string{
	ClauseWhere, JoinComma, JoinInner, JoinLeft, JoinRight, JoinFull,
	JoinCross, JoinNatural, Subquery, DerivedTable, Distinct, GroupBy,
	Having, OrderBy, Limit, Offset, UniqueIndex, PartialIndex,
	CompositeIndex, InsertOrIgnore, InsertMultiRow, Union, UnionAll,
	Intersect, Except,
}

// BinaryOperators lists the universal grammar's binary operator
// spellings. Together with the unary operators and expression forms below
// this yields the paper's 47 operator features.
// The order is sqlast.BinaryOp's.
var BinaryOperators = []string{
	OpAdd, OpSub, OpMul, OpDiv, OpMod,
	OpConcat,
	OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr,
	OpEq, OpNeq, OpNeq2, OpLt, OpLe, OpGt, OpGe, OpNullSafeEq,
	OpAnd, OpOr, OpXor,
	OpIsDistinct, OpIsNotDistinct,
}

// UnaryOperators lists prefix operator spellings. Unary minus and NOT
// share spellings with their binary counterparts; the generator tracks
// them under the same feature, as the paper's features are spellings.
var UnaryOperators = []string{OpSub, OpAdd, OpBitNot, ExprNot}

// ExprForms lists the non-spelling operator features.
var ExprForms = []string{
	ExprCase, ExprCast, ExprIn, ExprNotIn, ExprBetween, ExprLike,
	ExprGlob, ExprExists, ExprIsNull, ExprIsBool, Subquery,
}

// Comparison operator spellings usable as fault parameters.
var ComparisonOperators = []string{OpEq, OpNeq, OpNeq2, OpLt, OpLe, OpGt, OpGe, OpNullSafeEq}

// Functions lists the universal grammar's 58 scalar functions
// (paper Table 6: 58 functions).
var Functions = []string{
	// numeric (fixed-point: trig/log results scaled by 1000)
	"ABS", "SIGN", "MOD", "ROUND", "CEIL", "FLOOR", "SQRT", "POWER", "POW",
	"EXP", "LN", "LOG", "LOG10", "LOG2", "SIN", "COS", "TAN", "COT",
	"ASIN", "ACOS", "ATAN", "ATAN2", "DEGREES", "RADIANS", "PI", "TRUNC",
	"GCD", "LCM",
	// string
	"LENGTH", "CHAR_LENGTH", "BIT_LENGTH", "OCTET_LENGTH", "LOWER",
	"UPPER", "TRIM", "LTRIM", "RTRIM", "REPLACE", "SUBSTR", "INSTR",
	"HEX", "QUOTE", "ASCII", "CHR", "UNICODE", "SPACE", "REVERSE",
	"INITCAP", "STRPOS", "SPLIT_PART", "TRANSLATE", "LPAD", "RPAD",
	// conditional / null handling / misc
	"NULLIF", "COALESCE", "IFNULL", "IIF", "TYPEOF",
}

// ExtraFunctions lists the dialect-specific scalar functions outside the
// universal grammar: only the per-DBMS baseline generators emit them.
var ExtraFunctions = []string{
	"GREATEST", "LEAST", "CONCAT", "CONCAT_WS", "TO_HEX", "REPEAT", "ELT",
	"FIELD", "BIN", "OCT", "PRINTF", "LIKELY", "UNLIKELY",
}

// Aggregates lists aggregate functions (available to the generator for
// non-oracle queries; oracle base queries avoid them, as TLP's row
// partitioning applies to plain multisets).
var Aggregates = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// AllOperatorCount returns the number of operator features in the
// universal grammar (for the Table 6 harness).
func AllOperatorCount() int {
	// Binary spellings + unary ~ (the only unary spelling not shared with
	// a binary one) + expression forms.
	return len(BinaryOperators) + 1 + len(ExprForms)
}
