package sqlparse

import (
	"strconv"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// Binding powers of the expression grammar, loosest first. Binary
// operators are left-associative. The IS, IN, BETWEEN, LIKE and GLOB
// tails (and NOT IN, NOT BETWEEN, NOT LIKE, NOT GLOB) are postfix
// operators at comparison strength whose operands bind at bitwise
// strength; unary - + ~ bind tighter than any binary operator.
const (
	precOr      = 1 + iota // OR XOR
	precAnd                // AND
	precNot                // prefix NOT
	precCmp                // = == != <> < <= > >= <=> and the tails
	precBitwise            // | & ^ << >>
	precAdd                // + -
	precMul                // * / %
	precConcat             // ||
)

func (p *Parser) parseExpr() sqlast.Expr { return p.parseBinary(precOr) }

// infix returns the binary operator at the current token and its
// binding power; a tail has power precCmp, and a token that continues
// no expression has power 0.
func (p *Parser) infix() (sqlast.BinaryOp, int) {
	switch p.tok.Kind {
	case TokKeyword:
		switch p.tok.Text {
		case "OR":
			return sqlast.OpOr, precOr
		case "XOR":
			return sqlast.OpXor, precOr
		case "AND":
			return sqlast.OpAnd, precAnd
		case "IS", "IN", "BETWEEN", "LIKE", "GLOB":
			return 0, precCmp
		case "NOT":
			if p.peekKw("IN") || p.peekKw("BETWEEN") || p.peekKw("LIKE") || p.peekKw("GLOB") {
				return 0, precCmp
			}
		}
	case TokOp:
		switch p.tok.Text {
		case "=", "==":
			return sqlast.OpEq, precCmp
		case "!=":
			return sqlast.OpNeq, precCmp
		case "<>":
			return sqlast.OpNeq2, precCmp
		case "<":
			return sqlast.OpLt, precCmp
		case "<=":
			return sqlast.OpLe, precCmp
		case ">":
			return sqlast.OpGt, precCmp
		case ">=":
			return sqlast.OpGe, precCmp
		case "<=>":
			return sqlast.OpNullSafeEq, precCmp
		case "|":
			return sqlast.OpBitOr, precBitwise
		case "&":
			return sqlast.OpBitAnd, precBitwise
		case "^":
			return sqlast.OpBitXor, precBitwise
		case "<<":
			return sqlast.OpShl, precBitwise
		case ">>":
			return sqlast.OpShr, precBitwise
		case "+":
			return sqlast.OpAdd, precAdd
		case "-":
			return sqlast.OpSub, precAdd
		case "*":
			return sqlast.OpMul, precMul
		case "/":
			return sqlast.OpDiv, precMul
		case "%":
			return sqlast.OpMod, precMul
		case "||":
			return sqlast.OpConcat, precConcat
		}
	}
	return 0, 0
}

// parseBinary parses an expression whose operators bind at least as
// tightly as minPrec, by precedence climbing. As in a descent through
// one function per level, an operator continues the expression only if
// it binds no tighter than the one applied last, and after a prefix
// NOT's operand only AND, OR and XOR continue: "NOT EXISTS (SELECT 1)
// = 1" leaves "= 1" unparsed, while "EXISTS (SELECT 1) = 1" parses.
func (p *Parser) parseBinary(minPrec int) sqlast.Expr {
	var left sqlast.Expr
	maxPrec := precConcat
	if minPrec <= precNot && p.isKw("NOT") {
		left, maxPrec = p.parseNot(), precAnd
	} else {
		left = p.parseUnary()
	}
	for {
		op, prec := p.infix()
		if prec < minPrec || prec > maxPrec {
			return left
		}
		maxPrec = prec
		if p.tok.Kind == TokKeyword && prec == precCmp {
			left = p.parseTail(left)
			continue
		}
		p.advance()
		left = &sqlast.Binary{Op: op, L: left, R: p.parseBinary(prec + 1)}
	}
}

// parseNot parses a prefix NOT and its operand; NOT EXISTS is one node.
func (p *Parser) parseNot() sqlast.Expr {
	if p.peekKw("EXISTS") {
		p.advance() // NOT
		ex := p.parseExists()
		ex.Not = true
		return ex
	}
	p.advance() // NOT
	return &sqlast.Unary{Op: sqlast.UNot, X: p.parseBinary(precNot)}
}

// parseTail parses the postfix tail at the current token applied to x.
func (p *Parser) parseTail(x sqlast.Expr) sqlast.Expr {
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		switch {
		case p.acceptKw("NULL"):
			return &sqlast.IsNull{X: x, Not: not}
		case p.acceptKw("TRUE"):
			return &sqlast.IsBool{X: x, Val: true, Not: not}
		case p.acceptKw("FALSE"):
			return &sqlast.IsBool{X: x, Val: false, Not: not}
		case p.acceptKw("DISTINCT"):
			p.expectKw("FROM")
			op := sqlast.OpIsDistinct
			if not {
				op = sqlast.OpIsNotDistinct
			}
			return &sqlast.Binary{Op: op, L: x, R: p.parseBinary(precBitwise)}
		}
		p.errf("expected NULL, TRUE, FALSE or DISTINCT FROM after IS")
		return x
	}
	not := p.acceptKw("NOT")
	kw := p.tok.Text
	p.advance()
	switch kw {
	case "IN":
		p.expectOp("(")
		in := &sqlast.InList{X: x, Not: not, List: p.exprList()}
		p.expectOp(")")
		return in
	case "BETWEEN":
		lo := p.parseBinary(precBitwise)
		p.expectKw("AND")
		return &sqlast.Between{X: x, Lo: lo, Hi: p.parseBinary(precBitwise), Not: not}
	}
	kind := sqlast.LikeLike
	if kw == "GLOB" {
		kind = sqlast.LikeGlob
	}
	return &sqlast.Like{X: x, Pattern: p.parseBinary(precBitwise), Kind: kind, Not: not}
}

func (p *Parser) parseUnary() sqlast.Expr {
	var op sqlast.UnaryOp
	switch {
	case p.acceptOp("-"):
		if p.tok.Kind == TokInt {
			return p.parseNegativeInt()
		}
		x := p.parseUnary()
		// Fold unary minus into integer literals so "-1" and the
		// renderer's negative literals are one canonical form.
		if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt {
			return sqlast.IntLit(-lit.Int)
		}
		return &sqlast.Unary{Op: sqlast.UMinus, X: x}
	case p.acceptOp("+"):
		op = sqlast.UPlus
	case p.acceptOp("~"):
		op = sqlast.UBitNot
	default:
		return p.parsePrimary()
	}
	return &sqlast.Unary{Op: op, X: p.parseUnary()}
}

// parseNegativeInt parses the integer token after a unary minus as one
// signed literal, so the rendering of math.MinInt64, whose magnitude has
// no positive int64, parses back. Any other magnitude gives the same
// literal as folding the minus into the parsed integer.
func (p *Parser) parseNegativeInt() sqlast.Expr {
	u, err := strconv.ParseUint(p.tok.Text, 10, 64)
	if err != nil || u > 1<<63 {
		p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return sqlast.IntLit(-int64(u))
}

func (p *Parser) parsePrimary() sqlast.Expr {
	switch {
	case p.tok.Kind == TokInt:
		return sqlast.IntLit(p.expectInt())
	case p.tok.Kind == TokString:
		s := p.tok.Text
		p.advance()
		return sqlast.TextLit(s)
	case p.acceptKw("NULL"):
		return sqlast.Null()
	case p.acceptKw("TRUE"):
		return sqlast.BoolLit(true)
	case p.acceptKw("FALSE"):
		return sqlast.BoolLit(false)
	case p.isKw("CASE"):
		return p.parseCase()
	case p.acceptKw("CAST"):
		p.expectOp("(")
		c := &sqlast.Cast{X: p.parseExpr()}
		p.expectKw("AS")
		c.To = p.parseType()
		p.expectOp(")")
		return c
	case p.isKw("EXISTS"):
		return p.parseExists()
	case p.isOp("("):
		sub := p.peekKw("SELECT")
		p.advance()
		var e sqlast.Expr
		if sub {
			e = &sqlast.Subquery{Select: p.parseSelect()}
		} else {
			e = p.parseExpr()
		}
		p.expectOp(")")
		return e
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		p.advance()
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.acceptOp(".") {
			return &sqlast.ColumnRef{Table: name, Column: p.expectIdent()}
		}
		return &sqlast.ColumnRef{Column: name}
	}
	p.errf("unexpected token %q in expression", p.tok.Text)
	return nil
}

func (p *Parser) parseFuncCall(name string) sqlast.Expr {
	p.advance() // (
	f := &sqlast.Func{Name: strings.ToUpper(name)}
	if p.acceptOp("*") {
		f.Star = true
	} else {
		f.Distinct = p.acceptKw("DISTINCT")
		if !p.isOp(")") {
			f.Args = p.exprList()
		}
	}
	p.expectOp(")")
	return f
}

func (p *Parser) parseCase() sqlast.Expr {
	p.advance() // CASE
	c := &sqlast.Case{}
	if !p.isKw("WHEN") {
		c.Operand = p.parseExpr()
	}
	for p.acceptKw("WHEN") {
		cond := p.parseExpr()
		p.expectKw("THEN")
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Then: p.parseExpr()})
	}
	if len(c.Whens) == 0 {
		p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		c.Else = p.parseExpr()
	}
	p.expectKw("END")
	return c
}

// parseExists parses EXISTS (subquery); the result is never nil.
func (p *Parser) parseExists() *sqlast.Exists {
	p.advance() // EXISTS
	p.expectOp("(")
	ex := &sqlast.Exists{Select: p.parseSelect()}
	p.expectOp(")")
	return ex
}
