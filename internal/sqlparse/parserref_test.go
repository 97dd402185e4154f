package sqlparse

// This file keeps the recursive-descent parser as it stood before the
// sticky-error, precedence-climbing rewrite of parser.go and
// parser_expr.go, verbatim except for its names (refParser, refParse,
// refParseExpr, refCmpOps, refBitwiseOps) and the shared SyntaxError.
// It is the reference the differential tests compare the parser with:
// every input must give the same tree and the same error text.

import (
	"fmt"
	"strconv"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// refParser is a recursive-descent parser over a token stream.
type refParser struct {
	lex     *Lexer
	tok     Token // current token
	peek    Token // lookahead, valid while hasPeek
	hasPeek bool
}

// refParse parses a single SQL statement (an optional trailing ';' is allowed).
func refParse(src string) (sqlast.Stmt, error) {
	p := &refParser{lex: NewLexer(src)}
	p.advance()
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind == TokOp && p.tok.Text == ";" {
		p.advance()
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.Text)
	}
	return st, nil
}

// refParseExpr parses a standalone expression (used by tests and the reducer).
func refParseExpr(src string) (sqlast.Expr, error) {
	p := &refParser{lex: NewLexer(src)}
	p.advance()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.Text)
	}
	return e, nil
}

func (p *refParser) advance() {
	if p.hasPeek {
		p.tok = p.peek
		p.hasPeek = false
		return
	}
	p.tok = p.lex.Next()
}

func (p *refParser) peekTok() Token {
	if !p.hasPeek {
		p.peek = p.lex.Next()
		p.hasPeek = true
	}
	return p.peek
}

func (p *refParser) errf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: p.tok.Pos}
}

func (p *refParser) isKw(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *refParser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *refParser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", kw, p.tok.Text)
	}
	return nil
}

func (p *refParser) isOp(op string) bool {
	return p.tok.Kind == TokOp && p.tok.Text == op
}

func (p *refParser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *refParser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.tok.Text)
	}
	return nil
}

func (p *refParser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", p.tok.Text)
	}
	name := p.tok.Text
	p.advance()
	return name, nil
}

func (p *refParser) parseStmt() (sqlast.Stmt, error) {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	case p.isKw("ALTER"):
		return p.parseAlter()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("ANALYZE"):
		p.advance()
		a := &sqlast.Analyze{}
		if p.tok.Kind == TokIdent {
			a.Table = p.tok.Text
			p.advance()
		}
		return a, nil
	case p.isKw("REFRESH"):
		p.advance()
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.Refresh{Table: name}, nil
	case p.isKw("REINDEX"):
		p.advance()
		r := &sqlast.Reindex{}
		if p.tok.Kind == TokIdent {
			r.Name = p.tok.Text
			p.advance()
		}
		return r, nil
	default:
		return nil, p.errf("unexpected statement start %q", p.tok.Text)
	}
}

func (p *refParser) parseCreate() (sqlast.Stmt, error) {
	p.advance() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.isKw("TABLE"):
		if unique {
			return nil, p.errf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.isKw("INDEX"):
		return p.parseCreateIndex(unique)
	case p.isKw("VIEW"):
		if unique {
			return nil, p.errf("UNIQUE is not valid before VIEW")
		}
		return p.parseCreateView()
	default:
		return nil, p.errf("expected TABLE, INDEX, or VIEW after CREATE")
	}
}

func (p *refParser) parseType() (sqlast.Type, error) {
	if p.tok.Kind != TokKeyword {
		return sqlast.TypeUnknown, p.errf("expected type name, found %q", p.tok.Text)
	}
	var t sqlast.Type
	switch p.tok.Text {
	case "INTEGER", "INT":
		t = sqlast.TypeInt
	case "TEXT", "VARCHAR":
		t = sqlast.TypeText
	case "BOOLEAN", "BOOL":
		t = sqlast.TypeBool
	default:
		return sqlast.TypeUnknown, p.errf("unknown type %q", p.tok.Text)
	}
	p.advance()
	return t, nil
}

func (p *refParser) parseCreateTable() (sqlast.Stmt, error) {
	p.advance() // TABLE
	ct := &sqlast.CreateTable{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if !p.acceptKw("EXISTS") {
			return nil, p.errf("expected EXISTS")
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	pkCols := map[string]bool{}
	for {
		if p.isKw("PRIMARY") {
			p.advance()
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				pkCols[strings.ToLower(col)] = true
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col := sqlast.ColumnDef{}
			col.Name, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
			col.Type, err = p.parseType()
			if err != nil {
				return nil, err
			}
			for {
				if p.acceptKw("NOT") {
					if !p.acceptKw("NULL") {
						return nil, p.errf("expected NULL after NOT")
					}
					col.NotNull = true
				} else if p.acceptKw("UNIQUE") {
					col.Unique = true
				} else if p.acceptKw("PRIMARY") {
					if err := p.expectKw("KEY"); err != nil {
						return nil, err
					}
					col.PrimaryKey = true
				} else {
					break
				}
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(ct.Columns) == 0 {
		// "CREATE TABLE t (PRIMARY KEY (c))" would render as the
		// unparsable "CREATE TABLE t ()".
		return nil, p.errf("CREATE TABLE requires at least one column")
	}
	for i := range ct.Columns {
		if pkCols[strings.ToLower(ct.Columns[i].Name)] {
			ct.Columns[i].PrimaryKey = true
		}
	}
	return ct, nil
}

func (p *refParser) parseCreateIndex(unique bool) (sqlast.Stmt, error) {
	p.advance() // INDEX
	ci := &sqlast.CreateIndex{Unique: unique}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ci.Name = name
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	ci.Table, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("WHERE") {
		ci.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return ci, nil
}

func (p *refParser) parseCreateView() (sqlast.Stmt, error) {
	p.advance() // VIEW
	cv := &sqlast.CreateView{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cv.Name = name
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cv.Columns = append(cv.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	cv.Select, err = p.parseSelect()
	if err != nil {
		return nil, err
	}
	return cv, nil
}

func (p *refParser) parseInsert() (sqlast.Stmt, error) {
	p.advance() // INSERT
	ins := &sqlast.Insert{}
	if p.acceptKw("OR") {
		if !p.acceptKw("IGNORE") {
			return nil, p.errf("expected IGNORE after OR")
		}
		ins.OrIgnore = true
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins.Table = name
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *refParser) parseUpdate() (sqlast.Stmt, error) {
	p.advance() // UPDATE
	up := &sqlast.Update{}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	up.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Sets = append(up.Sets, sqlast.Assignment{Column: col, Value: val})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		up.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *refParser) parseDelete() (sqlast.Stmt, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &sqlast.Delete{Table: name}
	if p.acceptKw("WHERE") {
		del.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *refParser) parseAlter() (sqlast.Stmt, error) {
	p.advance() // ALTER
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	at := &sqlast.AlterTable{Table: name}
	switch {
	case p.acceptKw("ADD"):
		p.acceptKw("COLUMN") // optional
		col := sqlast.ColumnDef{}
		col.Name, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		col.Type, err = p.parseType()
		if err != nil {
			return nil, err
		}
		for {
			if p.acceptKw("NOT") {
				if !p.acceptKw("NULL") {
					return nil, p.errf("expected NULL after NOT")
				}
				col.NotNull = true
			} else if p.acceptKw("UNIQUE") {
				col.Unique = true
			} else {
				break
			}
		}
		at.AddColumn = &col
	case p.acceptKw("DROP"):
		p.acceptKw("COLUMN") // optional
		at.DropColumn, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("expected ADD or DROP after ALTER TABLE name")
	}
	return at, nil
}

func (p *refParser) parseDrop() (sqlast.Stmt, error) {
	p.advance() // DROP
	switch {
	case p.acceptKw("TABLE"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.DropTable{Name: name}, nil
	case p.acceptKw("VIEW"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.DropView{Name: name}, nil
	case p.acceptKw("INDEX"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.DropIndex{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, VIEW, or INDEX after DROP")
	}
}

// parseSelect parses a (possibly compound) query: one or more SELECT
// cores joined by set operators, followed by ORDER BY / LIMIT / OFFSET
// applying to the whole.
func (p *refParser) parseSelect() (*sqlast.Select, error) {
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for {
		var op sqlast.SetOp
		switch {
		case p.acceptKw("UNION"):
			op = sqlast.SetUnion
			if p.acceptKw("ALL") {
				op = sqlast.SetUnionAll
			}
		case p.acceptKw("INTERSECT"):
			op = sqlast.SetIntersect
		case p.acceptKw("EXCEPT"):
			op = sqlast.SetExcept
		default:
			return p.parseSelectTail(sel)
		}
		arm, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		sel.Compound = append(sel.Compound, sqlast.CompoundPart{Op: op, Select: arm})
	}
}

// parseSelectCore parses one SELECT ... [HAVING ...] block.
func (p *refParser) parseSelectCore() (*sqlast.Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &sqlast.Select{}
	sel.Distinct = p.acceptKw("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		if err := p.parseFrom(sel); err != nil {
			return nil, err
		}
	}
	var err error
	if p.acceptKw("WHERE") {
		sel.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		sel.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// parseSelectTail parses the trailing ORDER BY / LIMIT / OFFSET of a
// (possibly compound) query.
func (p *refParser) parseSelectTail(sel *sqlast.Select) (*sqlast.Select, error) {
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = &n
	}
	if p.acceptKw("OFFSET") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		sel.Offset = &n
	}
	return sel, nil
}

func (p *refParser) expectInt() (int64, error) {
	if p.tok.Kind != TokInt {
		return 0, p.errf("expected integer, found %q", p.tok.Text)
	}
	n, err := strconv.ParseInt(p.tok.Text, 10, 64)
	if err != nil {
		return 0, p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return n, nil
}

func (p *refParser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.acceptOp("*") {
		return sqlast.SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKw("AS") {
		item.Alias, err = p.expectIdent()
		if err != nil {
			return sqlast.SelectItem{}, err
		}
	} else if p.tok.Kind == TokIdent {
		item.Alias = p.tok.Text
		p.advance()
	}
	return item, nil
}

func (p *refParser) parseFrom(sel *sqlast.Select) error {
	first, err := p.parseTableRef()
	if err != nil {
		return err
	}
	sel.From = append(sel.From, sqlast.FromItem{Ref: first, Join: sqlast.JoinNone})
	for {
		var jt sqlast.JoinType
		switch {
		case p.acceptOp(","):
			jt = sqlast.JoinComma
		case p.isKw("INNER"), p.isKw("JOIN"):
			p.acceptKw("INNER")
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinInner
		case p.isKw("LEFT"):
			p.advance()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinLeft
		case p.isKw("RIGHT"):
			p.advance()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinRight
		case p.isKw("FULL"):
			p.advance()
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinFull
		case p.isKw("CROSS"):
			p.advance()
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinCross
		case p.isKw("NATURAL"):
			p.advance()
			if err := p.expectKw("JOIN"); err != nil {
				return err
			}
			jt = sqlast.JoinNatural
		default:
			return nil
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return err
		}
		item := sqlast.FromItem{Ref: ref, Join: jt}
		if p.acceptKw("ON") {
			item.On, err = p.parseExpr()
			if err != nil {
				return err
			}
		}
		sel.From = append(sel.From, item)
	}
}

func (p *refParser) parseTableRef() (sqlast.TableRef, error) {
	if p.isOp("(") {
		p.advance()
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		if !p.acceptKw("AS") {
			// alias is mandatory for derived tables but AS is optional
			if p.tok.Kind != TokIdent {
				return nil, p.errf("derived table requires an alias")
			}
		}
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.DerivedTable{Select: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ref := &sqlast.TableName{Name: name}
	if p.acceptKw("AS") {
		ref.Alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if p.tok.Kind == TokIdent {
		ref.Alias = p.tok.Text
		p.advance()
	}
	return ref, nil
}

// Expression grammar, loosest to tightest binding:
//
//	OR, XOR  <  AND  <  NOT  <  comparison/IS/IN/BETWEEN/LIKE
//	<  | & ^ << >>  <  + -  <  * / %  <  ||  <  unary - + ~  <  primary
func (p *refParser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *refParser) parseOr() (sqlast.Expr, error) {
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

func (p *refParser) parseAnd() (sqlast.Expr, error) {
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

func (p *refParser) parseNot() (sqlast.Expr, error) {
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

var refCmpOps = map[string]sqlast.BinaryOp{
	"=": sqlast.OpEq, "==": sqlast.OpEq, "!=": sqlast.OpNeq,
	"<>": sqlast.OpNeq2, "<": sqlast.OpLt, "<=": sqlast.OpLe,
	">": sqlast.OpGt, ">=": sqlast.OpGe, "<=>": sqlast.OpNullSafeEq,
}

func (p *refParser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind == TokOp {
			if op, ok := refCmpOps[p.tok.Text]; ok {
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

func (p *refParser) parseIsTail(left sqlast.Expr) (sqlast.Expr, error) {
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

func (p *refParser) parseInTail(left sqlast.Expr, not bool) (sqlast.Expr, error) {
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

func (p *refParser) parseBetweenTail(left sqlast.Expr, not bool) (sqlast.Expr, error) {
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

func (p *refParser) parseLikeTail(left sqlast.Expr, kind sqlast.LikeKind, not bool) (sqlast.Expr, error) {
	pat, err := p.parseBitwise()
	if err != nil {
		return nil, err
	}
	return &sqlast.Like{X: left, Pattern: pat, Kind: kind, Not: not}, nil
}

var refBitwiseOps = map[string]sqlast.BinaryOp{
	"|": sqlast.OpBitOr, "&": sqlast.OpBitAnd, "^": sqlast.OpBitXor,
	"<<": sqlast.OpShl, ">>": sqlast.OpShr,
}

func (p *refParser) parseBitwise() (sqlast.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == TokOp {
		op, ok := refBitwiseOps[p.tok.Text]
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

func (p *refParser) parseAdd() (sqlast.Expr, error) {
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

func (p *refParser) parseMul() (sqlast.Expr, error) {
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

func (p *refParser) parseConcat() (sqlast.Expr, error) {
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

func (p *refParser) parseUnary() (sqlast.Expr, error) {
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
func (p *refParser) parseNegativeInt() (sqlast.Expr, error) {
	u, err := strconv.ParseUint(p.tok.Text, 10, 64)
	if err != nil || u > 1<<63 {
		return nil, p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return sqlast.IntLit(-int64(u)), nil
}

func (p *refParser) parsePrimary() (sqlast.Expr, error) {
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

func (p *refParser) parseFuncCall(name string) (sqlast.Expr, error) {
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

func (p *refParser) parseCase() (sqlast.Expr, error) {
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

func (p *refParser) parseCast() (sqlast.Expr, error) {
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

func (p *refParser) parseExists() (sqlast.Expr, error) {
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
