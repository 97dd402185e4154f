package sqlparse

import (
	"strconv"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// Expression grammar, loosest to tightest binding:
//
//	OR, XOR  <  AND  <  NOT  <  comparison/IS/IN/BETWEEN/LIKE
//	<  | & ^ << >>  <  + -  <  * / %  <  ||  <  unary - + ~  <  primary
func (p *Parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (sqlast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.BinaryOp
		switch {
		case p.acceptKw("OR"):
			op = sqlast.OpOr
		case p.acceptKw("XOR"):
			op = sqlast.OpXor
		default:
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseAnd() (sqlast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: sqlast.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (sqlast.Expr, error) {
	if p.isKw("NOT") && !(p.peekTok().Kind == TokKeyword && p.peekTok().Text == "EXISTS") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: sqlast.UNot, X: x}, nil
	}
	if p.isKw("NOT") {
		p.advance() // NOT EXISTS
		ex, err := p.parseExists()
		if err != nil {
			return nil, err
		}
		ex.(*sqlast.Exists).Not = true
		return ex, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]sqlast.BinaryOp{
	"=": sqlast.OpEq, "==": sqlast.OpEq, "!=": sqlast.OpNeq,
	"<>": sqlast.OpNeq2, "<": sqlast.OpLt, "<=": sqlast.OpLe,
	">": sqlast.OpGt, ">=": sqlast.OpGe, "<=>": sqlast.OpNullSafeEq,
}

func (p *Parser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind == TokOp {
			if op, ok := cmpOps[p.tok.Text]; ok {
				p.advance()
				right, err := p.parseBitwise()
				if err != nil {
					return nil, err
				}
				left = &sqlast.Binary{Op: op, L: left, R: right}
				continue
			}
			return left, nil
		}
		switch {
		case p.isKw("IS"):
			p.advance()
			left, err = p.parseIsTail(left)
			if err != nil {
				return nil, err
			}
		case p.isKw("IN"):
			p.advance()
			left, err = p.parseInTail(left, false)
			if err != nil {
				return nil, err
			}
		case p.isKw("BETWEEN"):
			p.advance()
			left, err = p.parseBetweenTail(left, false)
			if err != nil {
				return nil, err
			}
		case p.isKw("LIKE"):
			p.advance()
			left, err = p.parseLikeTail(left, sqlast.LikeLike, false)
			if err != nil {
				return nil, err
			}
		case p.isKw("GLOB"):
			p.advance()
			left, err = p.parseLikeTail(left, sqlast.LikeGlob, false)
			if err != nil {
				return nil, err
			}
		case p.isKw("NOT"):
			// x NOT IN / NOT BETWEEN / NOT LIKE / NOT GLOB
			pk := p.peekTok()
			if pk.Kind != TokKeyword {
				return left, nil
			}
			switch pk.Text {
			case "IN":
				p.advance()
				p.advance()
				left, err = p.parseInTail(left, true)
			case "BETWEEN":
				p.advance()
				p.advance()
				left, err = p.parseBetweenTail(left, true)
			case "LIKE":
				p.advance()
				p.advance()
				left, err = p.parseLikeTail(left, sqlast.LikeLike, true)
			case "GLOB":
				p.advance()
				p.advance()
				left, err = p.parseLikeTail(left, sqlast.LikeGlob, true)
			default:
				return left, nil
			}
			if err != nil {
				return nil, err
			}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseIsTail(left sqlast.Expr) (sqlast.Expr, error) {
	not := p.acceptKw("NOT")
	switch {
	case p.acceptKw("NULL"):
		return &sqlast.IsNull{X: left, Not: not}, nil
	case p.acceptKw("TRUE"):
		return &sqlast.IsBool{X: left, Val: true, Not: not}, nil
	case p.acceptKw("FALSE"):
		return &sqlast.IsBool{X: left, Val: false, Not: not}, nil
	case p.isKw("DISTINCT"):
		p.advance()
		if err := p.expectKw("FROM"); err != nil {
			return nil, err
		}
		right, err := p.parseBitwise()
		if err != nil {
			return nil, err
		}
		op := sqlast.OpIsDistinct
		if not {
			op = sqlast.OpIsNotDistinct
		}
		return &sqlast.Binary{Op: op, L: left, R: right}, nil
	default:
		return nil, p.errf("expected NULL, TRUE, FALSE or DISTINCT FROM after IS")
	}
}

func (p *Parser) parseInTail(left sqlast.Expr, not bool) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &sqlast.InList{X: left, Not: not}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		in.List = append(in.List, e)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseBetweenTail(left sqlast.Expr, not bool) (sqlast.Expr, error) {
	lo, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	return &sqlast.Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *Parser) parseLikeTail(left sqlast.Expr, kind sqlast.LikeKind, not bool) (sqlast.Expr, error) {
	pat, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	return &sqlast.Like{X: left, Pattern: pat, Kind: kind, Not: not}, nil
}

var bitwiseOps = map[string]sqlast.BinaryOp{
	"|": sqlast.OpBitOr, "&": sqlast.OpBitAnd, "^": sqlast.OpBitXor,
	"<<": sqlast.OpShl, ">>": sqlast.OpShr,
}

func (p *Parser) parseBitwise() (sqlast.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp {
		op, ok := bitwiseOps[p.tok.Text]
		if !ok {
			break
		}
		p.advance()
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAdd() (sqlast.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "+" || p.tok.Text == "-") {
		op := sqlast.OpAdd
		if p.tok.Text == "-" {
			op = sqlast.OpSub
		}
		p.advance()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseMul() (sqlast.Expr, error) {
	left, err := p.parseConcat()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp && (p.tok.Text == "*" || p.tok.Text == "/" || p.tok.Text == "%") {
		var op sqlast.BinaryOp
		switch p.tok.Text {
		case "*":
			op = sqlast.OpMul
		case "/":
			op = sqlast.OpDiv
		default:
			op = sqlast.OpMod
		}
		p.advance()
		right, err := p.parseConcat()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseConcat() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("||") {
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: sqlast.OpConcat, L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseUnary() (sqlast.Expr, error) {
	if p.tok.Kind == TokOp {
		switch p.tok.Text {
		case "-":
			p.advance()
			if p.tok.Kind == TokInt {
				return p.parseNegativeInt()
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			// Fold unary minus into integer literals so "-1" and the
			// renderer's negative literals are one canonical form.
			if lit, ok := x.(*sqlast.Literal); ok && lit.Kind == sqlast.LitInt {
				return sqlast.IntLit(-lit.Int), nil
			}
			return &sqlast.Unary{Op: sqlast.UMinus, X: x}, nil
		case "+":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &sqlast.Unary{Op: sqlast.UPlus, X: x}, nil
		case "~":
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &sqlast.Unary{Op: sqlast.UBitNot, X: x}, nil
		}
	}
	return p.parsePrimary()
}

// parseNegativeInt parses the integer token after a unary minus as one
// signed literal, so the rendering of math.MinInt64, whose magnitude has
// no positive int64, parses back. Any other magnitude gives the same
// literal as folding the minus into the parsed integer.
func (p *Parser) parseNegativeInt() (sqlast.Expr, error) {
	u, err := strconv.ParseUint(p.tok.Text, 10, 64)
	if err != nil || u > 1<<63 {
		return nil, p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return sqlast.IntLit(-int64(u)), nil
}

func (p *Parser) parsePrimary() (sqlast.Expr, error) {
	switch {
	case p.tok.Kind == TokInt:
		n, err := strconv.ParseInt(p.tok.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer %q", p.tok.Text)
		}
		p.advance()
		return sqlast.IntLit(n), nil
	case p.tok.Kind == TokString:
		s := p.tok.Text
		p.advance()
		return sqlast.TextLit(s), nil
	case p.acceptKw("NULL"):
		return sqlast.Null(), nil
	case p.acceptKw("TRUE"):
		return sqlast.BoolLit(true), nil
	case p.acceptKw("FALSE"):
		return sqlast.BoolLit(false), nil
	case p.isKw("CASE"):
		return p.parseCase()
	case p.isKw("CAST"):
		return p.parseCast()
	case p.isKw("EXISTS"):
		return p.parseExists()
	case p.isOp("("):
		pk := p.peekTok()
		if pk.Kind == TokKeyword && pk.Text == "SELECT" {
			p.advance()
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.Subquery{Select: sub}, nil
		}
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.tok.Kind == TokIdent:
		name := p.tok.Text
		p.advance()
		if p.isOp("(") {
			return p.parseFuncCall(name)
		}
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &sqlast.ColumnRef{Table: name, Column: col}, nil
		}
		return &sqlast.ColumnRef{Column: name}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", p.tok.Text)
	}
}

func (p *Parser) parseFuncCall(name string) (sqlast.Expr, error) {
	p.advance() // (
	f := &sqlast.Func{Name: strings.ToUpper(name)}
	if p.acceptOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	if p.acceptOp(")") {
		return f, nil
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) parseCase() (sqlast.Expr, error) {
	p.advance() // CASE
	c := &sqlast.Case{}
	if !p.isKw("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseCast() (sqlast.Expr, error) {
	p.advance() // CAST
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.Cast{X: x, To: t}, nil
}

func (p *Parser) parseExists() (sqlast.Expr, error) {
	if err := p.expectKw("EXISTS"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &sqlast.Exists{Select: sub}, nil
}
