package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"sqlancerpp/internal/sqlast"
)

// SyntaxError describes a parse failure with its byte position.
type SyntaxError struct {
	Msg string
	Pos int
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg)
}

// Parser is a recursive-descent parser over a token stream. It keeps the
// first syntax error and then ends the stream (see errf), so parse
// functions return their node alone: after an error every accept fails,
// every list loop exits, and the partial tree is dropped.
type Parser struct {
	lex     *Lexer
	tok     Token // current token
	peek    Token // lookahead, valid while hasPeek
	hasPeek bool
	err     *SyntaxError // the first error
}

// Parse parses a single SQL statement (an optional trailing ';' is allowed).
func Parse(src string) (sqlast.Stmt, error) {
	p := &Parser{lex: NewLexer(src)}
	p.advance()
	st := p.parseStmt()
	p.acceptOp(";")
	if p.end(); p.err != nil {
		return nil, p.err
	}
	return st, nil
}

// ParseExpr parses a standalone expression (used by tests and the reducer).
func ParseExpr(src string) (sqlast.Expr, error) {
	p := &Parser{lex: NewLexer(src)}
	p.advance()
	e := p.parseExpr()
	if p.end(); p.err != nil {
		return nil, p.err
	}
	return e, nil
}

// end requires the input to be consumed.
func (p *Parser) end() {
	if p.tok.Kind != TokEOF {
		p.errf("unexpected trailing input %q", p.tok.Text)
	}
}

func (p *Parser) advance() {
	if p.hasPeek {
		p.tok = p.peek
		p.hasPeek = false
		return
	}
	p.tok = p.lex.Next()
}

func (p *Parser) peekTok() Token {
	if !p.hasPeek {
		p.peek = p.lex.Next()
		p.hasPeek = true
	}
	return p.peek
}

// peekKw reports whether the token after the current one is keyword kw.
func (p *Parser) peekKw(kw string) bool {
	pk := p.peekTok()
	return pk.Kind == TokKeyword && pk.Text == kw
}

// errf records a syntax error at the current token, unless one is
// recorded already, and ends the token stream: the lexer moves to the
// end, the lookahead is dropped and the current token becomes EOF.
func (p *Parser) errf(format string, args ...any) {
	if p.err == nil {
		p.err = &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: p.tok.Pos}
	}
	p.lex.pos = len(p.lex.src)
	p.hasPeek = false
	p.tok = Token{Kind: TokEOF, Pos: p.lex.pos}
}

func (p *Parser) isKw(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) {
	if !p.acceptKw(kw) {
		p.errf("expected %s, found %q", kw, p.tok.Text)
	}
}

func (p *Parser) isOp(op string) bool {
	return p.tok.Kind == TokOp && p.tok.Text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) {
	if !p.acceptOp(op) {
		p.errf("expected %q, found %q", op, p.tok.Text)
	}
}

func (p *Parser) expectIdent() string {
	if p.tok.Kind != TokIdent {
		p.errf("expected identifier, found %q", p.tok.Text)
		return ""
	}
	name := p.tok.Text
	p.advance()
	return name
}

// optIdent consumes and returns the current token if it is an
// identifier, and returns "" otherwise.
func (p *Parser) optIdent() string {
	if p.tok.Kind != TokIdent {
		return ""
	}
	return p.expectIdent()
}

// alias parses an optional alias: AS and an identifier, or a bare
// identifier.
func (p *Parser) alias() string {
	if p.acceptKw("AS") {
		return p.expectIdent()
	}
	return p.optIdent()
}

// identList parses one or more comma-separated identifiers.
func (p *Parser) identList() []string {
	var names []string
	for {
		names = append(names, p.expectIdent())
		if !p.acceptOp(",") {
			return names
		}
	}
}

// exprList parses one or more comma-separated expressions.
func (p *Parser) exprList() []sqlast.Expr {
	var list []sqlast.Expr
	for {
		list = append(list, p.parseExpr())
		if !p.acceptOp(",") {
			return list
		}
	}
}

func (p *Parser) expectInt() int64 {
	if p.tok.Kind != TokInt {
		p.errf("expected integer, found %q", p.tok.Text)
		return 0
	}
	n, err := strconv.ParseInt(p.tok.Text, 10, 64)
	if err != nil {
		p.errf("invalid integer %q", p.tok.Text)
	}
	p.advance()
	return n
}

func (p *Parser) parseStmt() sqlast.Stmt {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.acceptKw("CREATE"):
		return p.parseCreate()
	case p.acceptKw("INSERT"):
		return p.parseInsert()
	case p.acceptKw("UPDATE"):
		return p.parseUpdate()
	case p.acceptKw("DELETE"):
		p.expectKw("FROM")
		del := &sqlast.Delete{Table: p.expectIdent()}
		if p.acceptKw("WHERE") {
			del.Where = p.parseExpr()
		}
		return del
	case p.acceptKw("ALTER"):
		return p.parseAlter()
	case p.acceptKw("DROP"):
		switch {
		case p.acceptKw("TABLE"):
			return &sqlast.DropTable{Name: p.expectIdent()}
		case p.acceptKw("VIEW"):
			return &sqlast.DropView{Name: p.expectIdent()}
		case p.acceptKw("INDEX"):
			return &sqlast.DropIndex{Name: p.expectIdent()}
		}
		p.errf("expected TABLE, VIEW, or INDEX after DROP")
	case p.acceptKw("ANALYZE"):
		return &sqlast.Analyze{Table: p.optIdent()}
	case p.acceptKw("REFRESH"):
		p.expectKw("TABLE")
		return &sqlast.Refresh{Table: p.expectIdent()}
	case p.acceptKw("REINDEX"):
		return &sqlast.Reindex{Name: p.optIdent()}
	default:
		p.errf("unexpected statement start %q", p.tok.Text)
	}
	return nil
}

func (p *Parser) parseCreate() sqlast.Stmt {
	unique := p.acceptKw("UNIQUE")
	switch {
	case p.isKw("TABLE"):
		if unique {
			p.errf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKw("INDEX"):
		ci := &sqlast.CreateIndex{Unique: unique, Name: p.expectIdent()}
		p.expectKw("ON")
		ci.Table = p.expectIdent()
		p.expectOp("(")
		ci.Columns = p.identList()
		p.expectOp(")")
		if p.acceptKw("WHERE") {
			ci.Where = p.parseExpr()
		}
		return ci
	case p.isKw("VIEW"):
		if unique {
			p.errf("UNIQUE is not valid before VIEW")
		}
		p.advance() // VIEW
		cv := &sqlast.CreateView{Name: p.expectIdent()}
		if p.acceptOp("(") {
			cv.Columns = p.identList()
			p.expectOp(")")
		}
		p.expectKw("AS")
		cv.Select = p.parseSelect()
		return cv
	}
	p.errf("expected TABLE, INDEX, or VIEW after CREATE")
	return nil
}

func (p *Parser) parseType() sqlast.Type {
	if p.tok.Kind != TokKeyword {
		p.errf("expected type name, found %q", p.tok.Text)
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
		p.errf("unknown type %q", p.tok.Text)
	}
	p.advance()
	return t
}

// parseColumnDef parses a column's name, type and constraints: NOT
// NULL, UNIQUE, and PRIMARY KEY where primaryKey allows it.
func (p *Parser) parseColumnDef(primaryKey bool) sqlast.ColumnDef {
	col := sqlast.ColumnDef{Name: p.expectIdent(), Type: p.parseType()}
	for {
		switch {
		case p.acceptKw("NOT"):
			if !p.acceptKw("NULL") {
				p.errf("expected NULL after NOT")
			}
			col.NotNull = true
		case p.acceptKw("UNIQUE"):
			col.Unique = true
		case primaryKey && p.acceptKw("PRIMARY"):
			p.expectKw("KEY")
			col.PrimaryKey = true
		default:
			return col
		}
	}
}

func (p *Parser) parseCreateTable() sqlast.Stmt {
	p.advance() // TABLE
	ct := &sqlast.CreateTable{}
	if p.acceptKw("IF") {
		p.expectKw("NOT")
		if !p.acceptKw("EXISTS") {
			p.errf("expected EXISTS")
		}
		ct.IfNotExists = true
	}
	ct.Name = p.expectIdent()
	p.expectOp("(")
	pkCols := map[string]bool{}
	for {
		if p.acceptKw("PRIMARY") {
			p.expectKw("KEY")
			p.expectOp("(")
			for {
				pkCols[strings.ToLower(p.expectIdent())] = true
				if !p.acceptOp(",") {
					break
				}
			}
			p.expectOp(")")
		} else {
			ct.Columns = append(ct.Columns, p.parseColumnDef(true))
		}
		if !p.acceptOp(",") {
			break
		}
	}
	p.expectOp(")")
	if len(ct.Columns) == 0 {
		// "CREATE TABLE t (PRIMARY KEY (c))" would render as the
		// unparsable "CREATE TABLE t ()".
		p.errf("CREATE TABLE requires at least one column")
	}
	for i := range ct.Columns {
		if pkCols[strings.ToLower(ct.Columns[i].Name)] {
			ct.Columns[i].PrimaryKey = true
		}
	}
	return ct
}

func (p *Parser) parseInsert() sqlast.Stmt {
	ins := &sqlast.Insert{}
	if p.acceptKw("OR") {
		if !p.acceptKw("IGNORE") {
			p.errf("expected IGNORE after OR")
		}
		ins.OrIgnore = true
	}
	p.expectKw("INTO")
	ins.Table = p.expectIdent()
	if p.acceptOp("(") {
		ins.Columns = p.identList()
		p.expectOp(")")
	}
	p.expectKw("VALUES")
	for {
		p.expectOp("(")
		ins.Rows = append(ins.Rows, p.exprList())
		p.expectOp(")")
		if !p.acceptOp(",") {
			return ins
		}
	}
}

func (p *Parser) parseUpdate() sqlast.Stmt {
	up := &sqlast.Update{Table: p.expectIdent()}
	p.expectKw("SET")
	for {
		col := p.expectIdent()
		p.expectOp("=")
		up.Sets = append(up.Sets, sqlast.Assignment{Column: col, Value: p.parseExpr()})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		up.Where = p.parseExpr()
	}
	return up
}

func (p *Parser) parseAlter() sqlast.Stmt {
	p.expectKw("TABLE")
	at := &sqlast.AlterTable{Table: p.expectIdent()}
	switch {
	case p.acceptKw("ADD"):
		p.acceptKw("COLUMN") // optional
		col := p.parseColumnDef(false)
		at.AddColumn = &col
	case p.acceptKw("DROP"):
		p.acceptKw("COLUMN") // optional
		at.DropColumn = p.expectIdent()
	default:
		p.errf("expected ADD or DROP after ALTER TABLE name")
	}
	return at
}

// parseSelect parses a (possibly compound) query: one or more SELECT
// cores joined by set operators, followed by ORDER BY / LIMIT / OFFSET
// applying to the whole. The result is never nil.
func (p *Parser) parseSelect() *sqlast.Select {
	sel := p.parseSelectCore()
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
		}
		if op == sqlast.SetNone {
			break
		}
		sel.Compound = append(sel.Compound, sqlast.CompoundPart{Op: op, Select: p.parseSelectCore()})
	}
	if p.acceptKw("ORDER") {
		p.expectKw("BY")
		for {
			item := sqlast.OrderItem{Expr: p.parseExpr(), Desc: p.acceptKw("DESC")}
			if !item.Desc {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		n := p.expectInt()
		sel.Limit = &n
	}
	if p.acceptKw("OFFSET") {
		n := p.expectInt()
		sel.Offset = &n
	}
	return sel
}

// parseSelectCore parses one SELECT ... [HAVING ...] block.
func (p *Parser) parseSelectCore() *sqlast.Select {
	p.expectKw("SELECT")
	sel := &sqlast.Select{Distinct: p.acceptKw("DISTINCT")}
	for {
		sel.Items = append(sel.Items, p.parseSelectItem())
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		p.parseFrom(sel)
	}
	if p.acceptKw("WHERE") {
		sel.Where = p.parseExpr()
	}
	if p.acceptKw("GROUP") {
		p.expectKw("BY")
		sel.GroupBy = p.exprList()
	}
	if p.acceptKw("HAVING") {
		sel.Having = p.parseExpr()
	}
	return sel
}

func (p *Parser) parseSelectItem() sqlast.SelectItem {
	if p.acceptOp("*") {
		return sqlast.SelectItem{Star: true}
	}
	e := p.parseExpr()
	return sqlast.SelectItem{Expr: e, Alias: p.alias()}
}

// parseFrom parses the FROM list: a table reference, then any number
// of joined ones, each with an optional ON condition.
func (p *Parser) parseFrom(sel *sqlast.Select) {
	jt := sqlast.JoinNone
	for {
		item := sqlast.FromItem{Ref: p.parseTableRef(), Join: jt}
		if jt != sqlast.JoinNone && p.acceptKw("ON") {
			item.On = p.parseExpr()
		}
		sel.From = append(sel.From, item)
		switch {
		case p.acceptOp(","):
			jt = sqlast.JoinComma
		case p.acceptKw("INNER"), p.isKw("JOIN"):
			jt = sqlast.JoinInner
		case p.acceptKw("LEFT"):
			jt = sqlast.JoinLeft
			p.acceptKw("OUTER")
		case p.acceptKw("RIGHT"):
			jt = sqlast.JoinRight
			p.acceptKw("OUTER")
		case p.acceptKw("FULL"):
			jt = sqlast.JoinFull
			p.acceptKw("OUTER")
		case p.acceptKw("CROSS"):
			jt = sqlast.JoinCross
		case p.acceptKw("NATURAL"):
			jt = sqlast.JoinNatural
		default:
			return
		}
		if jt != sqlast.JoinComma {
			p.expectKw("JOIN")
		}
	}
}

func (p *Parser) parseTableRef() sqlast.TableRef {
	if !p.acceptOp("(") {
		return &sqlast.TableName{Name: p.expectIdent(), Alias: p.alias()}
	}
	sub := p.parseSelect()
	p.expectOp(")")
	// The alias is mandatory for derived tables, but AS is optional.
	if !p.acceptKw("AS") && p.tok.Kind != TokIdent {
		p.errf("derived table requires an alias")
	}
	return &sqlast.DerivedTable{Select: sub, Alias: p.expectIdent()}
}
