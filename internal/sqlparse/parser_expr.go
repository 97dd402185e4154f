package sqlparse

import (
	"slices"
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

func (p *parser) parseExpr() sqlast.Expr { return p.parseBinary(precOr) }

// infix returns the binary operator at the current token and its
// binding power; a tail has power precCmp, and a token that continues
// no expression has power 0.
func (p *parser) infix() (sqlast.BinaryOp, int) {
	switch p.tok.code {
	case kwOr:
		return sqlast.OpOr, precOr
	case kwXor:
		return sqlast.OpXor, precOr
	case kwAnd:
		return sqlast.OpAnd, precAnd
	case kwIs, kwIn, kwBetween, kwLike, kwGlob:
		return 0, precCmp
	case kwNot:
		switch p.peek().code {
		case kwIn, kwBetween, kwLike, kwGlob:
			return 0, precCmp
		}
	case opEq, opEqEq:
		return sqlast.OpEq, precCmp
	case opNeq:
		return sqlast.OpNeq, precCmp
	case opNeq2:
		return sqlast.OpNeq2, precCmp
	case opLt:
		return sqlast.OpLt, precCmp
	case opLe:
		return sqlast.OpLe, precCmp
	case opGt:
		return sqlast.OpGt, precCmp
	case opGe:
		return sqlast.OpGe, precCmp
	case opNullSafeEq:
		return sqlast.OpNullSafeEq, precCmp
	case opPipe:
		return sqlast.OpBitOr, precBitwise
	case opAmp:
		return sqlast.OpBitAnd, precBitwise
	case opCaret:
		return sqlast.OpBitXor, precBitwise
	case opShl:
		return sqlast.OpShl, precBitwise
	case opShr:
		return sqlast.OpShr, precBitwise
	case opPlus:
		return sqlast.OpAdd, precAdd
	case opMinus:
		return sqlast.OpSub, precAdd
	case opStar:
		return sqlast.OpMul, precMul
	case opSlash:
		return sqlast.OpDiv, precMul
	case opPercent:
		return sqlast.OpMod, precMul
	case opConcat:
		return sqlast.OpConcat, precConcat
	}
	return 0, 0
}

// parseBinary parses an expression whose operators bind at least as
// tightly as minPrec, by precedence climbing. As in a descent through
// one function per level, an operator continues the expression only if
// it binds no tighter than the one applied last, and after a prefix
// NOT's operand only AND, OR and XOR continue: "NOT EXISTS (SELECT 1)
// = 1" leaves "= 1" unparsed, while "EXISTS (SELECT 1) = 1" parses.
func (p *parser) parseBinary(minPrec int) sqlast.Expr {
	var left sqlast.Expr
	maxPrec := precConcat
	if minPrec <= precNot && p.isKw(kwNot) {
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
func (p *parser) parseNot() sqlast.Expr {
	if p.peekKw(kwExists) {
		p.advance() // NOT
		ex := p.parseExists()
		ex.Not = true
		return ex
	}
	p.advance() // NOT
	return &sqlast.Unary{Op: sqlast.UNot, X: p.parseBinary(precNot)}
}

// parseTail parses the postfix tail at the current token applied to x.
func (p *parser) parseTail(x sqlast.Expr) sqlast.Expr {
	if p.acceptKw(kwIs) {
		not := p.acceptKw(kwNot)
		switch {
		case p.acceptKw(kwNull):
			return &sqlast.IsNull{X: x, Not: not}
		case p.isKw(kwTrue), p.isKw(kwFalse):
			b := &sqlast.IsBool{X: x, Val: p.isKw(kwTrue), Not: not}
			p.advance()
			return b
		case p.acceptKw(kwDistinct):
			p.expectKw(kwFrom)
			op := sqlast.OpIsDistinct
			if not {
				op = sqlast.OpIsNotDistinct
			}
			return &sqlast.Binary{Op: op, L: x, R: p.parseBinary(precBitwise)}
		}
		p.errf("expected NULL, TRUE, FALSE or DISTINCT FROM after IS")
		return x
	}
	not := p.acceptKw(kwNot)
	kw := p.tok.code
	p.advance()
	switch kw {
	case kwIn:
		p.expectOp(opLParen)
		in := &sqlast.InList{X: x, Not: not, List: p.exprList()}
		p.expectOp(opRParen)
		return in
	case kwBetween:
		b := &sqlast.Between{X: x, Not: not, Lo: p.parseBinary(precBitwise)}
		p.expectKw(kwAnd)
		b.Hi = p.parseBinary(precBitwise)
		return b
	}
	kind := sqlast.LikeLike
	if kw == kwGlob {
		kind = sqlast.LikeGlob
	}
	return &sqlast.Like{X: x, Not: not, Kind: kind, Pattern: p.parseBinary(precBitwise)}
}

func (p *parser) parseUnary() sqlast.Expr {
	var op sqlast.UnaryOp
	switch p.tok.code {
	case opMinus:
		p.advance()
		if p.tok.Kind == TokInt {
			return p.parseNegativeInt()
		}
		x := p.parseUnary()
		// Fold unary minus into integer literals so "-1" and the
		// renderer's negative literals are one canonical form. The
		// literal is this statement's own, so it is negated in place.
		if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt {
			lit.Int = -lit.Int
			return lit
		}
		return &sqlast.Unary{Op: sqlast.UMinus, X: x}
	case opPlus:
		op = sqlast.UPlus
	case opTilde:
		op = sqlast.UBitNot
	default:
		return p.parsePrimary()
	}
	p.advance()
	return &sqlast.Unary{Op: op, X: p.parseUnary()}
}

// parseNegativeInt parses the integer token after a unary minus as one
// signed literal, so the rendering of math.MinInt64, whose magnitude has
// no positive int64, parses back. Any other magnitude gives the same
// literal as folding the minus into the parsed integer.
func (p *parser) parseNegativeInt() sqlast.Expr {
	u, err := strconv.ParseUint(p.tok.Text, 10, 64)
	if err != nil || u > 1<<63 {
		p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return p.intLit(-int64(u))
}

// intLit returns a new integer literal. Like every literal, it has an
// address of its own: no two nodes share one, not even two NULLs.
func (p *parser) intLit(v int64) *sqlast.Literal {
	return &sqlast.Literal{Kind: sqlast.LitInt, Int: v}
}

func (p *parser) parsePrimary() sqlast.Expr {
	switch p.tok.Kind {
	case TokInt:
		return p.intLit(p.expectInt())
	case TokString:
		l := &sqlast.Literal{Kind: sqlast.LitText, Text: p.tok.Text}
		p.advance()
		return l
	case TokIdent:
		name := p.tok.Text
		p.advance()
		if p.isOp(opLParen) {
			return p.parseFuncCall(name)
		}
		if p.acceptOp(opDot) {
			return &sqlast.ColumnRef{Table: name, Column: p.expectIdent()}
		}
		return &sqlast.ColumnRef{Column: name}
	}
	switch p.tok.code {
	case kwNull:
		p.advance()
		return new(sqlast.Literal) // the zero Literal is NULL
	case kwTrue, kwFalse:
		l := &sqlast.Literal{Kind: sqlast.LitBool, Bool: p.isKw(kwTrue)}
		p.advance()
		return l
	case kwCase:
		return p.parseCase()
	case kwCast:
		p.advance()
		p.expectOp(opLParen)
		c := &sqlast.Cast{X: p.parseExpr()}
		p.expectKw(kwAs)
		c.To = p.parseType()
		p.expectOp(opRParen)
		return c
	case kwExists:
		return p.parseExists()
	case opLParen:
		sub := p.peekKw(kwSelect)
		p.advance()
		var e sqlast.Expr
		if sub {
			e = &sqlast.Subquery{Select: p.parseSelect()}
		} else {
			e = p.parseExpr()
		}
		p.expectOp(opRParen)
		return e
	}
	p.errf("unexpected token %q in expression", p.tok.Text)
	return nil
}

func (p *parser) parseFuncCall(name string) sqlast.Expr {
	p.advance() // (
	f := &sqlast.Func{Name: strings.ToUpper(name)}
	if p.acceptOp(opStar) {
		f.Star = true
	} else {
		f.Distinct = p.acceptKw(kwDistinct)
		if !p.isOp(opRParen) {
			f.Args = p.exprList()
		}
	}
	p.expectOp(opRParen)
	return f
}

func (p *parser) parseCase() sqlast.Expr {
	p.advance() // CASE
	c := &sqlast.Case{}
	if !p.isKw(kwWhen) {
		c.Operand = p.parseExpr()
	}
	for p.acceptKw(kwWhen) {
		cond := p.parseExpr()
		p.expectKw(kwThen)
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Then: p.parseExpr()})
	}
	if len(c.Whens) == 0 {
		p.errf("CASE requires at least one WHEN arm")
	}
	c.Whens = slices.Clip(c.Whens)
	if p.acceptKw(kwElse) {
		c.Else = p.parseExpr()
	}
	p.expectKw(kwEnd)
	return c
}

// parseExists parses EXISTS (subquery); the result is never nil.
func (p *parser) parseExists() *sqlast.Exists {
	p.advance() // EXISTS
	p.expectOp(opLParen)
	ex := &sqlast.Exists{Select: p.parseSelect()}
	p.expectOp(opRParen)
	return ex
}
