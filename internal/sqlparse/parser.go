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

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	lex     *Lexer
	tok     Token // current token
	peek    Token // lookahead, valid while hasPeek
	hasPeek bool
}

// Parse parses a single SQL statement (an optional trailing ';' is allowed).
func Parse(src string) (sqlast.Stmt, error) {
	p := &Parser{lex: NewLexer(src)}
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

// ParseExpr parses a standalone expression (used by tests and the reducer).
func ParseExpr(src string) (sqlast.Expr, error) {
	p := &Parser{lex: NewLexer(src)}
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

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: p.tok.Pos}
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

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", kw, p.tok.Text)
	}
	return nil
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

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.tok.Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	if p.tok.Kind != TokIdent {
		return "", p.errf("expected identifier, found %q", p.tok.Text)
	}
	name := p.tok.Text
	p.advance()
	return name, nil
}

func (p *Parser) parseStmt() (sqlast.Stmt, error) {
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

func (p *Parser) parseCreate() (sqlast.Stmt, error) {
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

func (p *Parser) parseType() (sqlast.Type, error) {
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

func (p *Parser) parseCreateTable() (sqlast.Stmt, error) {
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

func (p *Parser) parseCreateIndex(unique bool) (sqlast.Stmt, error) {
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

func (p *Parser) parseCreateView() (sqlast.Stmt, error) {
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

func (p *Parser) parseInsert() (sqlast.Stmt, error) {
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

func (p *Parser) parseUpdate() (sqlast.Stmt, error) {
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

func (p *Parser) parseDelete() (sqlast.Stmt, error) {
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

func (p *Parser) parseAlter() (sqlast.Stmt, error) {
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

func (p *Parser) parseDrop() (sqlast.Stmt, error) {
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
func (p *Parser) parseSelect() (*sqlast.Select, error) {
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
func (p *Parser) parseSelectCore() (*sqlast.Select, error) {
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
func (p *Parser) parseSelectTail(sel *sqlast.Select) (*sqlast.Select, error) {
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

func (p *Parser) expectInt() (int64, error) {
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

func (p *Parser) parseSelectItem() (sqlast.SelectItem, error) {
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

func (p *Parser) parseFrom(sel *sqlast.Select) error {
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

func (p *Parser) parseTableRef() (sqlast.TableRef, error) {
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
