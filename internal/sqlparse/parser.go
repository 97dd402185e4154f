package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// parser is a recursive-descent parser over one statement's tokens,
// lexed up front into toks (EOF last). It keeps the first syntax error
// and then ends the stream (see errf), so parse functions return their
// node alone: after an error every accept fails, every list loop exits,
// and the partial tree is dropped.
//
// Parsers are pooled. A parser keeps its token buffer from one
// statement to the next, but nothing that points into a tree: tokens
// refer to the source text only, and each node and list is allocated
// for its statement alone.
type parser struct {
	lex  Lexer
	toks []Token
	i    int    // index of the current token
	tok  *Token // &toks[i]
	err  *SyntaxError
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooledTokens bounds the statements whose parser goes back to the
// pool: the parser of a longer one is dropped, so that one huge input
// does not pin its buffers.
const maxPooledTokens = 1 << 12

// newParser takes a pooled parser and lexes src into its token buffer.
func newParser(src string) *parser {
	p := parsers.Get().(*parser)
	p.lex = Lexer{src: src}
	for {
		p.toks = append(p.toks, Token{})
		t := &p.toks[len(p.toks)-1]
		if p.lex.next(t); t.Kind == TokEOF {
			break
		}
	}
	p.tok = &p.toks[0]
	return p
}

// finish requires the input to be consumed and returns the parser to
// the pool.
func (p *parser) finish() error {
	if p.tok.Kind != TokEOF {
		p.errf("unexpected trailing input %q", p.tok.Text)
	}
	err := p.err
	p.toks = p.toks[:0]
	p.lex, p.i, p.tok, p.err = Lexer{}, 0, nil, nil
	if cap(p.toks) <= maxPooledTokens {
		parsers.Put(p)
	}
	if err != nil {
		return err
	}
	return nil
}

// Parse parses a single SQL statement (an optional trailing ';' is allowed).
func Parse(src string) (sqlast.Stmt, error) {
	p := newParser(src)
	st := p.parseStmt()
	p.acceptOp(opSemi)
	if err := p.finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// ParseExpr parses a standalone expression.
func ParseExpr(src string) (sqlast.Expr, error) {
	p := newParser(src)
	e := p.parseExpr()
	if err := p.finish(); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) advance() {
	if p.i < len(p.toks)-1 {
		p.i++
		p.tok = &p.toks[p.i]
	}
}

// peek returns the token after the current one (EOF at the end).
func (p *parser) peek() *Token { return &p.toks[min(p.i+1, len(p.toks)-1)] }

// peekKw reports whether the token after the current one is keyword kw.
func (p *parser) peekKw(kw tokCode) bool { return p.peek().code == kw }

// errf records a syntax error at the current token, unless one is
// recorded already, and ends the token stream: the current token
// becomes the EOF token. An error at a lexer-error token reports the
// lexer's message.
func (p *parser) errf(format string, args ...any) {
	if p.err == nil {
		msg := p.tok.Text
		if p.tok.Kind != TokError {
			msg = fmt.Sprintf(format, args...)
		}
		p.err = &SyntaxError{Msg: msg, Pos: p.tok.Pos}
	}
	p.i = len(p.toks) - 1
	p.tok = &p.toks[p.i]
}

func (p *parser) isKw(kw tokCode) bool { return p.tok.code == kw }

func (p *parser) acceptKw(kw tokCode) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(kw tokCode) {
	if !p.acceptKw(kw) {
		p.errf("expected %s, found %q", codeText[kw], p.tok.Text)
	}
}

func (p *parser) isOp(op tokCode) bool { return p.tok.code == op }

func (p *parser) acceptOp(op tokCode) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op tokCode) {
	if !p.acceptOp(op) {
		p.errf("expected %q, found %q", codeText[op], p.tok.Text)
	}
}

func (p *parser) expectIdent() string {
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
func (p *parser) optIdent() string {
	if p.tok.Kind != TokIdent {
		return ""
	}
	return p.expectIdent()
}

// alias parses an optional alias: AS and an identifier, or a bare
// identifier.
func (p *parser) alias() string {
	if p.acceptKw(kwAs) {
		return p.expectIdent()
	}
	return p.optIdent()
}

// identList parses one or more comma-separated identifiers.
func (p *parser) identList() []string {
	var names []string
	for {
		names = append(names, p.expectIdent())
		if !p.acceptOp(opComma) {
			return slices.Clip(names)
		}
	}
}

// exprList parses one or more comma-separated expressions.
func (p *parser) exprList() []sqlast.Expr {
	var list []sqlast.Expr
	for {
		list = append(list, p.parseExpr())
		if !p.acceptOp(opComma) {
			return slices.Clip(list)
		}
	}
}

func (p *parser) expectInt() int64 {
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

func (p *parser) parseStmt() sqlast.Stmt {
	switch {
	case p.isKw(kwSelect):
		return p.parseSelect()
	case p.acceptKw(kwCreate):
		return p.parseCreate()
	case p.acceptKw(kwInsert):
		return p.parseInsert()
	case p.acceptKw(kwUpdate):
		return p.parseUpdate()
	case p.acceptKw(kwDelete):
		p.expectKw(kwFrom)
		del := &sqlast.Delete{Table: p.expectIdent()}
		if p.acceptKw(kwWhere) {
			del.Where = p.parseExpr()
		}
		return del
	case p.acceptKw(kwAlter):
		return p.parseAlter()
	case p.acceptKw(kwDrop):
		switch {
		case p.acceptKw(kwTable):
			return &sqlast.DropTable{Name: p.expectIdent()}
		case p.acceptKw(kwView):
			return &sqlast.DropView{Name: p.expectIdent()}
		case p.acceptKw(kwIndex):
			return &sqlast.DropIndex{Name: p.expectIdent()}
		}
		p.errf("expected TABLE, VIEW, or INDEX after DROP")
	case p.acceptKw(kwAnalyze):
		return &sqlast.Analyze{Table: p.optIdent()}
	case p.acceptKw(kwRefresh):
		p.expectKw(kwTable)
		return &sqlast.Refresh{Table: p.expectIdent()}
	case p.acceptKw(kwReindex):
		return &sqlast.Reindex{Name: p.optIdent()}
	default:
		p.errf("unexpected statement start %q", p.tok.Text)
	}
	return nil
}

func (p *parser) parseCreate() sqlast.Stmt {
	unique := p.acceptKw(kwUnique)
	switch {
	case p.isKw(kwTable):
		if unique {
			p.errf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKw(kwIndex):
		ci := &sqlast.CreateIndex{Unique: unique, Name: p.expectIdent()}
		p.expectKw(kwOn)
		ci.Table = p.expectIdent()
		p.expectOp(opLParen)
		ci.Columns = p.identList()
		p.expectOp(opRParen)
		if p.acceptKw(kwWhere) {
			ci.Where = p.parseExpr()
		}
		return ci
	case p.isKw(kwView):
		if unique {
			p.errf("UNIQUE is not valid before VIEW")
		}
		p.advance() // VIEW
		cv := &sqlast.CreateView{Name: p.expectIdent()}
		if p.acceptOp(opLParen) {
			cv.Columns = p.identList()
			p.expectOp(opRParen)
		}
		p.expectKw(kwAs)
		cv.Select = p.parseSelect()
		return cv
	}
	p.errf("expected TABLE, INDEX, or VIEW after CREATE")
	return nil
}

func (p *parser) parseType() sqlast.Type {
	if p.tok.Kind != TokKeyword {
		p.errf("expected type name, found %q", p.tok.Text)
	}
	var t sqlast.Type
	switch p.tok.code {
	case kwInteger, kwInt:
		t = sqlast.TypeInt
	case kwText, kwVarchar:
		t = sqlast.TypeText
	case kwBoolean, kwBool:
		t = sqlast.TypeBool
	default:
		p.errf("unknown type %q", p.tok.Text)
	}
	p.advance()
	return t
}

// parseColumnDef parses a column's name, type and constraints: NOT
// NULL, UNIQUE, and PRIMARY KEY where primaryKey allows it.
func (p *parser) parseColumnDef(primaryKey bool) sqlast.ColumnDef {
	col := sqlast.ColumnDef{Name: p.expectIdent(), Type: p.parseType()}
	for {
		switch {
		case p.acceptKw(kwNot):
			if !p.acceptKw(kwNull) {
				p.errf("expected NULL after NOT")
			}
			col.NotNull = true
		case p.acceptKw(kwUnique):
			col.Unique = true
		case primaryKey && p.acceptKw(kwPrimary):
			p.expectKw(kwKey)
			col.PrimaryKey = true
		default:
			return col
		}
	}
}

func (p *parser) parseCreateTable() sqlast.Stmt {
	p.advance() // TABLE
	ct := &sqlast.CreateTable{}
	if p.acceptKw(kwIf) {
		p.expectKw(kwNot)
		if !p.acceptKw(kwExists) {
			p.errf("expected EXISTS")
		}
		ct.IfNotExists = true
	}
	ct.Name = p.expectIdent()
	p.expectOp(opLParen)
	pkCols := map[string]bool{}
	for {
		if p.acceptKw(kwPrimary) {
			p.expectKw(kwKey)
			p.expectOp(opLParen)
			for {
				pkCols[strings.ToLower(p.expectIdent())] = true
				if !p.acceptOp(opComma) {
					break
				}
			}
			p.expectOp(opRParen)
		} else {
			ct.Columns = append(ct.Columns, p.parseColumnDef(true))
		}
		if !p.acceptOp(opComma) {
			break
		}
	}
	p.expectOp(opRParen)
	ct.Columns = slices.Clip(ct.Columns)
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

func (p *parser) parseInsert() sqlast.Stmt {
	ins := &sqlast.Insert{}
	if p.acceptKw(kwOr) {
		if !p.acceptKw(kwIgnore) {
			p.errf("expected IGNORE after OR")
		}
		ins.OrIgnore = true
	}
	p.expectKw(kwInto)
	ins.Table = p.expectIdent()
	if p.acceptOp(opLParen) {
		ins.Columns = p.identList()
		p.expectOp(opRParen)
	}
	p.expectKw(kwValues)
	for {
		p.expectOp(opLParen)
		ins.Rows = append(ins.Rows, p.exprList())
		p.expectOp(opRParen)
		if !p.acceptOp(opComma) {
			break
		}
	}
	ins.Rows = slices.Clip(ins.Rows)
	return ins
}

func (p *parser) parseUpdate() sqlast.Stmt {
	up := &sqlast.Update{Table: p.expectIdent()}
	p.expectKw(kwSet)
	for {
		col := p.expectIdent()
		p.expectOp(opEq)
		up.Sets = append(up.Sets, sqlast.Assignment{Column: col, Value: p.parseExpr()})
		if !p.acceptOp(opComma) {
			break
		}
	}
	up.Sets = slices.Clip(up.Sets)
	if p.acceptKw(kwWhere) {
		up.Where = p.parseExpr()
	}
	return up
}

func (p *parser) parseAlter() sqlast.Stmt {
	p.expectKw(kwTable)
	at := &sqlast.AlterTable{Table: p.expectIdent()}
	switch {
	case p.acceptKw(kwAdd):
		p.acceptKw(kwColumn) // optional
		col := p.parseColumnDef(false)
		at.AddColumn = &col
	case p.acceptKw(kwDrop):
		p.acceptKw(kwColumn) // optional
		at.DropColumn = p.expectIdent()
	default:
		p.errf("expected ADD or DROP after ALTER TABLE name")
	}
	return at
}

// parseSelect parses a (possibly compound) query: one or more SELECT
// cores joined by set operators, followed by ORDER BY / LIMIT / OFFSET
// applying to the whole. The result is never nil.
func (p *parser) parseSelect() *sqlast.Select {
	sel := p.parseSelectCore()
	for {
		var op sqlast.SetOp
		switch {
		case p.acceptKw(kwUnion):
			op = sqlast.SetUnion
			if p.acceptKw(kwAll) {
				op = sqlast.SetUnionAll
			}
		case p.acceptKw(kwIntersect):
			op = sqlast.SetIntersect
		case p.acceptKw(kwExcept):
			op = sqlast.SetExcept
		}
		if op == sqlast.SetNone {
			break
		}
		sel.Compound = append(sel.Compound, sqlast.CompoundPart{Op: op, Select: p.parseSelectCore()})
	}
	sel.Compound = slices.Clip(sel.Compound)
	if p.acceptKw(kwOrder) {
		p.expectKw(kwBy)
		for {
			item := sqlast.OrderItem{Expr: p.parseExpr(), Desc: p.acceptKw(kwDesc)}
			if !item.Desc {
				p.acceptKw(kwAsc)
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(opComma) {
				break
			}
		}
		sel.OrderBy = slices.Clip(sel.OrderBy)
	}
	if p.acceptKw(kwLimit) {
		sel.Limit = p.limit()
	}
	if p.acceptKw(kwOffset) {
		sel.Offset = p.limit()
	}
	return sel
}

// limit parses the count of a LIMIT or OFFSET.
func (p *parser) limit() *int64 {
	n := p.expectInt()
	return &n
}

// parseSelectCore parses one SELECT ... [HAVING ...] block.
func (p *parser) parseSelectCore() *sqlast.Select {
	p.expectKw(kwSelect)
	sel := &sqlast.Select{Distinct: p.acceptKw(kwDistinct)}
	for {
		sel.Items = append(sel.Items, p.parseSelectItem())
		if !p.acceptOp(opComma) {
			break
		}
	}
	sel.Items = slices.Clip(sel.Items)
	if p.acceptKw(kwFrom) {
		sel.From = p.parseFrom()
	}
	if p.acceptKw(kwWhere) {
		sel.Where = p.parseExpr()
	}
	if p.acceptKw(kwGroup) {
		p.expectKw(kwBy)
		sel.GroupBy = p.exprList()
	}
	if p.acceptKw(kwHaving) {
		sel.Having = p.parseExpr()
	}
	return sel
}

func (p *parser) parseSelectItem() sqlast.SelectItem {
	if p.acceptOp(opStar) {
		return sqlast.SelectItem{Star: true}
	}
	e := p.parseExpr()
	return sqlast.SelectItem{Expr: e, Alias: p.alias()}
}

// parseFrom parses the FROM list: a table reference, then any number
// of joined ones, each with an optional ON condition.
func (p *parser) parseFrom() []sqlast.FromItem {
	var from []sqlast.FromItem
	jt := sqlast.JoinNone
	for {
		item := sqlast.FromItem{Ref: p.parseTableRef(), Join: jt}
		if jt != sqlast.JoinNone && p.acceptKw(kwOn) {
			item.On = p.parseExpr()
		}
		from = append(from, item)
		switch {
		case p.acceptOp(opComma):
			jt = sqlast.JoinComma
		case p.acceptKw(kwInner), p.isKw(kwJoin):
			jt = sqlast.JoinInner
		case p.acceptKw(kwLeft):
			jt = sqlast.JoinLeft
			p.acceptKw(kwOuter)
		case p.acceptKw(kwRight):
			jt = sqlast.JoinRight
			p.acceptKw(kwOuter)
		case p.acceptKw(kwFull):
			jt = sqlast.JoinFull
			p.acceptKw(kwOuter)
		case p.acceptKw(kwCross):
			jt = sqlast.JoinCross
		case p.acceptKw(kwNatural):
			jt = sqlast.JoinNatural
		default:
			return slices.Clip(from)
		}
		if jt != sqlast.JoinComma {
			p.expectKw(kwJoin)
		}
	}
}

// parseTableRef parses a table name or a derived table.
func (p *parser) parseTableRef() sqlast.TableRef {
	if !p.acceptOp(opLParen) {
		return &sqlast.TableName{Name: p.expectIdent(), Alias: p.alias()}
	}
	d := &sqlast.DerivedTable{Select: p.parseSelect()}
	p.expectOp(opRParen)
	// The alias is mandatory for derived tables, but AS is optional.
	if !p.acceptKw(kwAs) && p.tok.Kind != TokIdent {
		p.errf("derived table requires an alias")
	}
	d.Alias = p.expectIdent()
	return d
}
