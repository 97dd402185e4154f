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
		b := p.n.binaries.new()
		b.Op, b.L, b.R = op, left, p.parseBinary(prec+1)
		left = b
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
	u := p.n.unaries.new()
	u.Op, u.X = sqlast.UNot, p.parseBinary(precNot)
	return u
}

// parseTail parses the postfix tail at the current token applied to x.
func (p *parser) parseTail(x sqlast.Expr) sqlast.Expr {
	if p.acceptKw(kwIs) {
		not := p.acceptKw(kwNot)
		switch {
		case p.acceptKw(kwNull):
			n := p.n.isNulls.new()
			n.X, n.Not = x, not
			return n
		case p.isKw(kwTrue), p.isKw(kwFalse):
			b := p.n.isBools.new()
			b.X, b.Val, b.Not = x, p.isKw(kwTrue), not
			p.advance()
			return b
		case p.acceptKw(kwDistinct):
			p.expectKw(kwFrom)
			b := p.n.binaries.new()
			b.Op, b.L = sqlast.OpIsDistinct, x
			if not {
				b.Op = sqlast.OpIsNotDistinct
			}
			b.R = p.parseBinary(precBitwise)
			return b
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
		in := p.n.inLists.new()
		in.X, in.Not = x, not
		p.exprList(&in.List)
		p.expectOp(opRParen)
		return in
	case kwBetween:
		b := p.n.betweens.new()
		b.X, b.Not = x, not
		b.Lo = p.parseBinary(precBitwise)
		p.expectKw(kwAnd)
		b.Hi = p.parseBinary(precBitwise)
		return b
	}
	l := p.n.likes.new()
	l.X, l.Not, l.Kind = x, not, sqlast.LikeLike
	if kw == kwGlob {
		l.Kind = sqlast.LikeGlob
	}
	l.Pattern = p.parseBinary(precBitwise)
	return l
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
		u := p.n.unaries.new()
		u.Op, u.X = sqlast.UMinus, x
		return u
	case opPlus:
		op = sqlast.UPlus
	case opTilde:
		op = sqlast.UBitNot
	default:
		return p.parsePrimary()
	}
	p.advance()
	u := p.n.unaries.new()
	u.Op, u.X = op, p.parseUnary()
	return u
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

// intLit returns a new integer literal. Like every literal, it comes
// from the statement's slab with an address of its own: no two nodes
// share one, not even two NULLs.
func (p *parser) intLit(v int64) *sqlast.Literal {
	l := p.n.leaves.literal()
	l.Kind, l.Int = sqlast.LitInt, v
	return l
}

func (p *parser) parsePrimary() sqlast.Expr {
	switch p.tok.Kind {
	case TokInt:
		return p.intLit(p.expectInt())
	case TokString:
		l := p.n.leaves.literal()
		l.Kind, l.Text = sqlast.LitText, p.tok.Text
		p.advance()
		return l
	case TokIdent:
		name := p.tok.Text
		p.advance()
		if p.isOp(opLParen) {
			return p.parseFuncCall(name)
		}
		c := p.n.leaves.column()
		if p.acceptOp(opDot) {
			c.Table, c.Column = name, p.expectIdent()
		} else {
			c.Column = name
		}
		return c
	}
	switch p.tok.code {
	case kwNull:
		p.advance()
		return p.n.leaves.literal() // the zero Literal is NULL
	case kwTrue, kwFalse:
		l := p.n.leaves.literal()
		l.Kind, l.Bool = sqlast.LitBool, p.isKw(kwTrue)
		p.advance()
		return l
	case kwCase:
		return p.parseCase()
	case kwCast:
		p.advance()
		p.expectOp(opLParen)
		c := p.n.casts.new()
		c.X = p.parseExpr()
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
			s := p.n.subquery.new()
			s.Select = p.parseSelect()
			e = s
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
	f := p.n.funcs.new()
	f.Name = strings.ToUpper(name)
	if p.acceptOp(opStar) {
		f.Star = true
	} else {
		f.Distinct = p.acceptKw(kwDistinct)
		if !p.isOp(opRParen) {
			p.exprList(&f.Args)
		}
	}
	p.expectOp(opRParen)
	return f
}

func (p *parser) parseCase() sqlast.Expr {
	p.advance() // CASE
	c := p.n.cases.new()
	if !p.isKw(kwWhen) {
		c.Operand = p.parseExpr()
	}
	whens := &p.n.whens
	m := whens.mark()
	for p.acceptKw(kwWhen) {
		cond := p.parseExpr()
		p.expectKw(kwThen)
		whens.push(sqlast.When{Cond: cond, Then: p.parseExpr()})
	}
	if whens.len(m) == 0 {
		p.errf("CASE requires at least one WHEN arm")
	}
	whens.end(m, &c.Whens)
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
	ex := p.n.exists.new()
	ex.Select = p.parseSelect()
	p.expectOp(opRParen)
	return ex
}
