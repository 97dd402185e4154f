// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL subset used by the platform. The engine ingests SQL as text — as a
// real DBMS would — so every statement produced by the generator makes a
// full round trip through rendering and parsing.
//
// The round trip costs allocations in proportion to the AST, not to the
// tokens: the lexer allocates nothing for a statement whose string
// literals contain no doubled-quote escape. Identifier, integer and
// escape-free string tokens are substrings of the source; keywords are
// recognised by upper-casing into a stack buffer and come from a table
// of interned spellings; operators are static strings; and the parser
// holds its one-token lookahead by value.
package sqlparse

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokString
	TokOp    // operator or punctuation
	TokError // lexer error; Text holds the message
)

// Token is one lexical token. Keywords are upper-cased in Text; the Text
// of every other token except an escaped string literal is a substring
// of the source.
type Token struct {
	Kind TokKind
	Text string
	Pos  int // byte offset in the input
}

// keywords maps each keyword recognized by the lexer to its interned
// upper-case spelling, which becomes the token's Text.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
		"LIMIT", "OFFSET", "DISTINCT", "AS", "ON", "AND", "OR", "NOT",
		"XOR", "NULL", "TRUE", "FALSE", "IS", "IN", "BETWEEN", "LIKE",
		"GLOB", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "EXISTS",
		"CREATE", "TABLE", "INDEX", "VIEW", "UNIQUE", "PRIMARY", "KEY",
		"INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "ALTER",
		"ADD", "DROP", "COLUMN", "ANALYZE", "REFRESH", "REINDEX", "JOIN",
		"INNER", "LEFT", "RIGHT", "FULL", "CROSS", "NATURAL", "OUTER",
		"DESC", "ASC", "INTEGER", "INT", "TEXT", "VARCHAR", "BOOLEAN",
		"BOOL", "IF", "EXIST", "DISTINCTFROM", "IGNORE", "UNION",
		"INTERSECT", "EXCEPT", "ALL", "DEFAULT",
	} {
		if len(kw) > maxKeywordLen {
			panic("sqlparse: keyword longer than maxKeywordLen: " + kw)
		}
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen bounds the stack buffer keyword lookup upper-cases into;
// a longer word is an identifier without a lookup.
const maxKeywordLen = 12

// keyword returns the interned spelling of word if it is a keyword in
// any letter case.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lexer tokenizes SQL text.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() Token {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokInt, Text: l.src[start:l.pos], Pos: start}
	case c == '\'':
		return l.lexString(start)
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}
	default:
		return l.lexOp(start)
	}
}

// lexString scans a single-quoted literal. Without a doubled-quote
// escape the token's Text is the source between the quotes; only an
// escaped literal builds a new string.
func (l *Lexer) lexString(start int) Token {
	l.pos++ // opening quote
	var sb strings.Builder
	from := l.pos // first source byte not yet copied into sb
	for l.pos < len(l.src) {
		if l.src[l.pos] != '\'' {
			l.pos++
			continue
		}
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
			sb.WriteString(l.src[from : l.pos+1])
			l.pos += 2
			from = l.pos
			continue
		}
		text := l.src[from:l.pos]
		if sb.Len() > 0 {
			sb.WriteString(text)
			text = sb.String()
		}
		l.pos++
		return Token{Kind: TokString, Text: text, Pos: start}
	}
	return Token{Kind: TokError, Text: "unterminated string literal", Pos: start}
}

// singleOps holds the static spelling of every one-byte operator and
// punctuation token; the empty string marks a byte that starts none.
var singleOps = func() (t [256]string) {
	for _, op := range []string{"+", "-", "*", "/", "%", "&", "|", "^",
		"~", "=", "<", ">", "(", ")", ",", ".", ";"} {
		t[op[0]] = op
	}
	return t
}()

// lexOp scans an operator, longest match first: <=>, then the
// two-byte operators << >> <= >= != <> || ==, then one byte.
func (l *Lexer) lexOp(start int) Token {
	c := l.src[l.pos]
	var next, third byte
	if l.pos+1 < len(l.src) {
		next = l.src[l.pos+1]
	}
	if l.pos+2 < len(l.src) {
		third = l.src[l.pos+2]
	}
	op := singleOps[c]
	switch {
	case c == '<' && next == '=' && third == '>':
		op = "<=>"
	case c == '<' && next == '<':
		op = "<<"
	case c == '>' && next == '>':
		op = ">>"
	case c == '<' && next == '=':
		op = "<="
	case c == '>' && next == '=':
		op = ">="
	case c == '!' && next == '=':
		op = "!="
	case c == '<' && next == '>':
		op = "<>"
	case c == '|' && next == '|':
		op = "||"
	case c == '=' && next == '=':
		op = "=="
	}
	if op == "" {
		l.pos++
		return Token{Kind: TokError, Text: fmt.Sprintf("unexpected character %q", c), Pos: start}
	}
	l.pos += len(op)
	return Token{Kind: TokOp, Text: op, Pos: start}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
