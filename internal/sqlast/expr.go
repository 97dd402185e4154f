// Package sqlast defines the SQL abstract syntax tree shared by the
// adaptive generator, the parser, the engine, and the reducer.
//
// Every node renders to deterministic SQL text via SQL(). Expressions are
// fully parenthesized on rendering, so rendered text round-trips through
// internal/sqlparse without precedence ambiguity.
//
// Rendering writes the whole tree into one buffer: every node has an
// unexported writeSQL that appends its text to the caller's buffer, and
// SQL() is a thin wrapper that takes a pooled buffer, calls the writer
// and copies the result out. A statement costs one allocation, its
// string, not one string and one concatenation per node.
//
// ASTs are values shared by reference: a tree handed to the engine or
// kept in a parse cache is never mutated, and a derived query (an
// oracle's partition, a reducer candidate) may share sub-trees with the
// tree it came from. Code that must edit a tree edits a copy made by
// CloneSelect, CloneExpr or CloneStmt.
package sqlast

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
)

// Type is a SQL data type name. The platform supports the paper's three
// data types: INTEGER, TEXT, and BOOLEAN (Appendix A.1).
type Type int

// Supported data types.
const (
	TypeUnknown Type = iota
	TypeInt
	TypeText
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "UNKNOWN"
	}
}

// Expr is implemented by all expression nodes.
type Expr interface {
	exprNode()
	// SQL renders the expression as deterministic SQL text.
	SQL() string
	writeSQL(w *bytes.Buffer)
}

// renderBufs recycles rendering buffers, so a rendering allocates once
// — its result string, sized exactly — however many nodes it has. A new
// buffer starts at 1 KiB, above the longest oracle queries the generator
// builds (about 950 bytes), so even after the pool drops a buffer the
// next rendering needs no growth.
var renderBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 1024)) }}

// render runs a node's writer over a pooled buffer.
func render(n interface{ writeSQL(*bytes.Buffer) }) string {
	w := renderBufs.Get().(*bytes.Buffer)
	n.writeSQL(w)
	s := w.String()
	w.Reset()
	renderBufs.Put(w)
	return s
}

// writeInt appends v in decimal without an intermediate string.
func writeInt(w *bytes.Buffer, v int64) {
	w.Write(strconv.AppendInt(w.AvailableBuffer(), v, 10))
}

// writeList renders a comma-separated expression list.
func writeList(w *bytes.Buffer, list []Expr) {
	for i, e := range list {
		if i > 0 {
			w.WriteString(", ")
		}
		e.writeSQL(w)
	}
}

// writeNames renders a comma-separated identifier list.
func writeNames(w *bytes.Buffer, names []string) {
	for i, n := range names {
		if i > 0 {
			w.WriteString(", ")
		}
		w.WriteString(n)
	}
}

// LitKind distinguishes literal constants.
type LitKind int

// Literal kinds.
const (
	LitNull LitKind = iota
	LitInt
	LitText
	LitBool
)

// Literal is a constant: NULL, an integer, a string, or a boolean.
type Literal struct {
	Kind LitKind
	Int  int64
	Text string
	Bool bool
}

// Null, True and False are shared literal constructors.
func Null() *Literal          { return &Literal{Kind: LitNull} }
func IntLit(v int64) *Literal { return &Literal{Kind: LitInt, Int: v} }
func TextLit(s string) *Literal {
	return &Literal{Kind: LitText, Text: s}
}
func BoolLit(b bool) *Literal { return &Literal{Kind: LitBool, Bool: b} }

func (l *Literal) exprNode() {}

// SQL renders the literal. Strings use single quotes with ” escaping.
func (l *Literal) SQL() string { return render(l) }

func (l *Literal) writeSQL(w *bytes.Buffer) {
	switch l.Kind {
	case LitInt:
		writeInt(w, l.Int)
	case LitText:
		w.WriteByte('\'')
		s := l.Text
		for {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				break
			}
			w.WriteString(s[:i+1])
			w.WriteByte('\'')
			s = s[i+1:]
		}
		w.WriteString(s)
		w.WriteByte('\'')
	case LitBool:
		if l.Bool {
			w.WriteString("TRUE")
		} else {
			w.WriteString("FALSE")
		}
	default:
		w.WriteString("NULL")
	}
}

// ColumnRef references a column, optionally qualified by table (or alias).
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

func (c *ColumnRef) exprNode() {}

// SQL renders the (optionally qualified) column reference.
func (c *ColumnRef) SQL() string { return render(c) }

func (c *ColumnRef) writeSQL(w *bytes.Buffer) {
	if c.Table != "" {
		w.WriteString(c.Table)
		w.WriteByte('.')
	}
	w.WriteString(c.Column)
}

// UnaryOp enumerates prefix operators.
type UnaryOp int

// Unary operators.
const (
	UMinus  UnaryOp = iota // -x
	UPlus                  // +x
	UBitNot                // ~x
	UNot                   // NOT x
)

// String returns the SQL spelling of the operator.
func (op UnaryOp) String() string {
	switch op {
	case UMinus:
		return "-"
	case UPlus:
		return "+"
	case UBitNot:
		return "~"
	case UNot:
		return "NOT"
	default:
		return "?"
	}
}

// Unary applies a prefix operator to an operand.
type Unary struct {
	Op UnaryOp
	X  Expr
}

func (u *Unary) exprNode() {}

// SQL renders the unary expression fully parenthesized. A space follows
// the operator so that "-(-2000)" cannot render as the line comment
// "--2000".
func (u *Unary) SQL() string { return render(u) }

func (u *Unary) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	w.WriteString(u.Op.String())
	w.WriteByte(' ')
	u.X.writeSQL(w)
	w.WriteByte(')')
}

// BinaryOp enumerates infix operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd           BinaryOp = iota // +
	OpSub                           // -
	OpMul                           // *
	OpDiv                           // /
	OpMod                           // %
	OpConcat                        // ||
	OpBitAnd                        // &
	OpBitOr                         // |
	OpBitXor                        // ^
	OpShl                           // <<
	OpShr                           // >>
	OpEq                            // =
	OpNeq                           // !=
	OpNeq2                          // <>
	OpLt                            // <
	OpLe                            // <=
	OpGt                            // >
	OpGe                            // >=
	OpNullSafeEq                    // <=> (MySQL-family null-safe equality)
	OpAnd                           // AND
	OpOr                            // OR
	OpXor                           // XOR (logical)
	OpIsDistinct                    // IS DISTINCT FROM
	OpIsNotDistinct                 // IS NOT DISTINCT FROM
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	case OpBitAnd:
		return "&"
	case OpBitOr:
		return "|"
	case OpBitXor:
		return "^"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpNeq2:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpNullSafeEq:
		return "<=>"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpXor:
		return "XOR"
	case OpIsDistinct:
		return "IS DISTINCT FROM"
	case OpIsNotDistinct:
		return "IS NOT DISTINCT FROM"
	default:
		return "?"
	}
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case OpEq, OpNeq, OpNeq2, OpLt, OpLe, OpGt, OpGe, OpNullSafeEq,
		OpIsDistinct, OpIsNotDistinct:
		return true
	}
	return false
}

// IsLogical reports whether the operator combines booleans.
func (op BinaryOp) IsLogical() bool {
	return op == OpAnd || op == OpOr || op == OpXor
}

// IsArithmetic reports whether the operator is numeric (incl. bitwise).
func (op BinaryOp) IsArithmetic() bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpBitAnd, OpBitOr, OpBitXor,
		OpShl, OpShr:
		return true
	}
	return false
}

// Binary applies an infix operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

func (b *Binary) exprNode() {}

// SQL renders the binary expression fully parenthesized.
func (b *Binary) SQL() string { return render(b) }

func (b *Binary) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	b.L.writeSQL(w)
	w.WriteByte(' ')
	w.WriteString(b.Op.String())
	w.WriteByte(' ')
	b.R.writeSQL(w)
	w.WriteByte(')')
}

// Func is a scalar or aggregate function call.
type Func struct {
	Name     string // upper-case function name
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (f *Func) exprNode() {}

// SQL renders the call.
func (f *Func) SQL() string { return render(f) }

func (f *Func) writeSQL(w *bytes.Buffer) {
	w.WriteString(f.Name)
	w.WriteByte('(')
	if f.Star {
		w.WriteByte('*')
	} else {
		if f.Distinct {
			w.WriteString("DISTINCT ")
		}
		writeList(w, f.Args)
	}
	w.WriteByte(')')
}

// When is one WHEN ... THEN ... arm of a CASE expression.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a CASE expression, with or without an operand.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []When
	Else    Expr // nil if absent
}

func (c *Case) exprNode() {}

// SQL renders the CASE expression.
func (c *Case) SQL() string { return render(c) }

func (c *Case) writeSQL(w *bytes.Buffer) {
	w.WriteString("(CASE")
	if c.Operand != nil {
		w.WriteByte(' ')
		c.Operand.writeSQL(w)
	}
	for _, arm := range c.Whens {
		w.WriteString(" WHEN ")
		arm.Cond.writeSQL(w)
		w.WriteString(" THEN ")
		arm.Then.writeSQL(w)
	}
	if c.Else != nil {
		w.WriteString(" ELSE ")
		c.Else.writeSQL(w)
	}
	w.WriteString(" END)")
}

// Cast converts an expression to a type.
type Cast struct {
	X  Expr
	To Type
}

func (c *Cast) exprNode() {}

// SQL renders the CAST expression.
func (c *Cast) SQL() string { return render(c) }

func (c *Cast) writeSQL(w *bytes.Buffer) {
	w.WriteString("CAST(")
	c.X.writeSQL(w)
	w.WriteString(" AS ")
	w.WriteString(c.To.String())
	w.WriteByte(')')
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

func (b *Between) exprNode() {}

// SQL renders the BETWEEN expression.
func (b *Between) SQL() string { return render(b) }

func (b *Between) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	b.X.writeSQL(w)
	if b.Not {
		w.WriteString(" NOT")
	}
	w.WriteString(" BETWEEN ")
	b.Lo.writeSQL(w)
	w.WriteString(" AND ")
	b.Hi.writeSQL(w)
	w.WriteByte(')')
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

func (in *InList) exprNode() {}

// SQL renders the IN expression.
func (in *InList) SQL() string { return render(in) }

func (in *InList) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	in.X.writeSQL(w)
	if in.Not {
		w.WriteString(" NOT")
	}
	w.WriteString(" IN (")
	writeList(w, in.List)
	w.WriteString("))")
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

func (i *IsNull) exprNode() {}

// SQL renders the IS NULL test.
func (i *IsNull) SQL() string { return render(i) }

func (i *IsNull) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	i.X.writeSQL(w)
	if i.Not {
		w.WriteString(" IS NOT NULL)")
	} else {
		w.WriteString(" IS NULL)")
	}
}

// IsBool is x IS [NOT] TRUE/FALSE.
type IsBool struct {
	X   Expr
	Val bool
	Not bool
}

func (i *IsBool) exprNode() {}

// SQL renders the IS TRUE/FALSE test.
func (i *IsBool) SQL() string { return render(i) }

func (i *IsBool) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	i.X.writeSQL(w)
	w.WriteString(" IS ")
	if i.Not {
		w.WriteString("NOT ")
	}
	if i.Val {
		w.WriteString("TRUE)")
	} else {
		w.WriteString("FALSE)")
	}
}

// LikeKind distinguishes pattern-matching operators.
type LikeKind int

// Pattern-matching operators.
const (
	LikeLike LikeKind = iota // LIKE: % and _ wildcards, case-insensitive ASCII
	LikeGlob                 // GLOB: * and ? wildcards, case-sensitive
)

// Like is x [NOT] LIKE/GLOB pattern.
type Like struct {
	X, Pattern Expr
	Kind       LikeKind
	Not        bool
}

func (l *Like) exprNode() {}

// SQL renders the pattern-matching expression.
func (l *Like) SQL() string { return render(l) }

func (l *Like) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	l.X.writeSQL(w)
	if l.Not {
		w.WriteString(" NOT")
	}
	if l.Kind == LikeGlob {
		w.WriteString(" GLOB ")
	} else {
		w.WriteString(" LIKE ")
	}
	l.Pattern.writeSQL(w)
	w.WriteByte(')')
}

// Subquery is a scalar subquery: (SELECT ...) used as an expression.
type Subquery struct {
	Select *Select
}

func (s *Subquery) exprNode() {}

// SQL renders the scalar subquery.
func (s *Subquery) SQL() string { return render(s) }

func (s *Subquery) writeSQL(w *bytes.Buffer) {
	w.WriteByte('(')
	s.Select.writeSQL(w)
	w.WriteByte(')')
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Select *Select
	Not    bool
}

func (e *Exists) exprNode() {}

// SQL renders the EXISTS expression.
func (e *Exists) SQL() string { return render(e) }

func (e *Exists) writeSQL(w *bytes.Buffer) {
	if e.Not {
		w.WriteString("(NOT EXISTS (")
	} else {
		w.WriteString("(EXISTS (")
	}
	e.Select.writeSQL(w)
	w.WriteString("))")
}
