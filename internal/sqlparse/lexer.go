// Package sqlparse implements a lexer and recursive-descent parser for the
// SQL subset used by the platform. The engine ingests SQL as text — as a
// real DBMS would — so every statement produced by the generator makes a
// full round trip through rendering and parsing.
//
// The lexer allocates nothing for a statement whose string literals
// contain no doubled-quote escape: identifier, integer and escape-free
// string tokens are substrings of the source, and every keyword and
// operator token carries a small integer code (tokCode) whose spelling
// is static. Parse lexes the whole statement once into a pooled
// parser's token buffer and then parses by index, comparing codes, not
// strings. Each node of the tree is allocated on its own, and each list
// is appended and then clipped to cap == len, so a statement owns its
// memory and shares none of it with any other statement.
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

	code tokCode // keyword or operator code; codeNone for other kinds
}

// tokCode identifies a keyword or an operator: the parser compares
// codes, not spellings.
type tokCode uint8

// Token codes: keywords, then operators and punctuation.
const (
	codeNone tokCode = iota

	kwSelect
	kwFrom
	kwWhere
	kwGroup
	kwBy
	kwHaving
	kwOrder
	kwLimit
	kwOffset
	kwDistinct
	kwAs
	kwOn
	kwAnd
	kwOr
	kwNot
	kwXor
	kwNull
	kwTrue
	kwFalse
	kwIs
	kwIn
	kwBetween
	kwLike
	kwGlob
	kwCase
	kwWhen
	kwThen
	kwElse
	kwEnd
	kwCast
	kwExists
	kwCreate
	kwTable
	kwIndex
	kwView
	kwUnique
	kwPrimary
	kwKey
	kwInsert
	kwInto
	kwValues
	kwUpdate
	kwSet
	kwDelete
	kwAlter
	kwAdd
	kwDrop
	kwColumn
	kwAnalyze
	kwRefresh
	kwReindex
	kwJoin
	kwInner
	kwLeft
	kwRight
	kwFull
	kwCross
	kwNatural
	kwOuter
	kwDesc
	kwAsc
	kwInteger
	kwInt
	kwText
	kwVarchar
	kwBoolean
	kwBool
	kwIf
	kwExist
	kwDistinctFrom
	kwIgnore
	kwUnion
	kwIntersect
	kwExcept
	kwAll
	kwDefault

	opPlus
	opMinus
	opStar
	opSlash
	opPercent
	opAmp
	opPipe
	opCaret
	opTilde
	opEq
	opLt
	opGt
	opLParen
	opRParen
	opComma
	opDot
	opSemi
	opNullSafeEq // <=>
	opShl        // <<
	opShr        // >>
	opLe         // <=
	opGe         // >=
	opNeq        // !=
	opNeq2       // <>
	opConcat     // ||
	opEqEq       // ==

	numCodes

	firstKeyword = kwSelect
	firstOp      = opPlus
)

// codeText is the spelling of each code: a keyword's upper-case form,
// which becomes its token's Text, or an operator.
var codeText = [numCodes]string{
	kwSelect: "SELECT", kwFrom: "FROM", kwWhere: "WHERE", kwGroup: "GROUP",
	kwBy: "BY", kwHaving: "HAVING", kwOrder: "ORDER", kwLimit: "LIMIT",
	kwOffset: "OFFSET", kwDistinct: "DISTINCT", kwAs: "AS", kwOn: "ON",
	kwAnd: "AND", kwOr: "OR", kwNot: "NOT", kwXor: "XOR", kwNull: "NULL",
	kwTrue: "TRUE", kwFalse: "FALSE", kwIs: "IS", kwIn: "IN",
	kwBetween: "BETWEEN", kwLike: "LIKE", kwGlob: "GLOB", kwCase: "CASE",
	kwWhen: "WHEN", kwThen: "THEN", kwElse: "ELSE", kwEnd: "END",
	kwCast: "CAST", kwExists: "EXISTS", kwCreate: "CREATE", kwTable: "TABLE",
	kwIndex: "INDEX", kwView: "VIEW", kwUnique: "UNIQUE",
	kwPrimary: "PRIMARY", kwKey: "KEY", kwInsert: "INSERT", kwInto: "INTO",
	kwValues: "VALUES", kwUpdate: "UPDATE", kwSet: "SET", kwDelete: "DELETE",
	kwAlter: "ALTER", kwAdd: "ADD", kwDrop: "DROP", kwColumn: "COLUMN",
	kwAnalyze: "ANALYZE", kwRefresh: "REFRESH", kwReindex: "REINDEX",
	kwJoin: "JOIN", kwInner: "INNER", kwLeft: "LEFT", kwRight: "RIGHT",
	kwFull: "FULL", kwCross: "CROSS", kwNatural: "NATURAL", kwOuter: "OUTER",
	kwDesc: "DESC", kwAsc: "ASC", kwInteger: "INTEGER", kwInt: "INT",
	kwText: "TEXT", kwVarchar: "VARCHAR", kwBoolean: "BOOLEAN",
	kwBool: "BOOL", kwIf: "IF", kwExist: "EXIST",
	kwDistinctFrom: "DISTINCTFROM", kwIgnore: "IGNORE", kwUnion: "UNION",
	kwIntersect: "INTERSECT", kwExcept: "EXCEPT", kwAll: "ALL",
	kwDefault: "DEFAULT",

	opPlus: "+", opMinus: "-", opStar: "*", opSlash: "/", opPercent: "%",
	opAmp: "&", opPipe: "|", opCaret: "^", opTilde: "~", opEq: "=",
	opLt: "<", opGt: ">", opLParen: "(", opRParen: ")", opComma: ",",
	opDot: ".", opSemi: ";", opNullSafeEq: "<=>", opShl: "<<", opShr: ">>",
	opLe: "<=", opGe: ">=", opNeq: "!=", opNeq2: "<>", opConcat: "||",
	opEqEq: "==",
}

// maxKeywordLen bounds the stack buffer keyword lookup upper-cases into;
// a longer word is an identifier without a lookup.
const maxKeywordLen = 12

// kwSlots is an open-addressing table from a keyword's hash (kwHash) to
// its code, built from codeText at start-up without allocating.
var kwSlots = func() (t [256]tokCode) {
	for c := firstKeyword; c < firstOp; c++ {
		kw := codeText[c]
		if len(kw) > maxKeywordLen {
			panic("sqlparse: keyword longer than maxKeywordLen: " + kw)
		}
		h := uint8(0)
		for i := 0; i < len(kw); i++ {
			h = kwHash(h, kw[i])
		}
		for t[h] != codeNone {
			h++
		}
		t[h] = c
	}
	return t
}()

// kwHash adds an upper-case byte to a keyword hash.
func kwHash(h, c byte) byte { return h*31 + c }

// keyword returns the code of the keyword whose upper-case spelling is
// upper and whose hash is h, and codeNone if there is none.
func keyword(upper []byte, h byte) tokCode {
	for ; kwSlots[h] != codeNone; h++ {
		if codeText[kwSlots[h]] == string(upper) {
			return kwSlots[h]
		}
	}
	return codeNone
}

// Byte classes for the lexer.
const (
	classIdentStart = 1 << iota // _ A-Z a-z
	classDigit                  // 0-9
	classSpace                  // space, tab, newline, carriage return
)

var byteClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			t[c] = classIdentStart
		case c >= '0' && c <= '9':
			t[c] = classDigit
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			t[c] = classSpace
		}
	}
	return t
}()

// Lexer tokenizes SQL text.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() Token {
	var t Token
	l.next(&t)
	return t
}

// next scans the next token into *t.
func (l *Lexer) next(t *Token) {
	src, pos := l.src, l.pos
	for pos < len(src) { // skip spaces and -- line comments
		c := src[pos]
		if byteClass[c] == classSpace {
			pos++
			continue
		}
		if c != '-' || pos+1 == len(src) || src[pos+1] != '-' {
			break
		}
		if nl := strings.IndexByte(src[pos:], '\n'); nl >= 0 {
			pos += nl
		} else {
			pos = len(src)
		}
	}
	l.pos = pos
	if pos == len(src) {
		*t = Token{Kind: TokEOF, Pos: pos}
		return
	}
	start := pos
	c := src[pos]
	switch byteClass[c] {
	case classDigit:
		for pos < len(src) && byteClass[src[pos]] == classDigit {
			pos++
		}
		*t = Token{Kind: TokInt, Text: src[start:pos], Pos: start}
	case classIdentStart:
		// Upper-case and hash the first maxKeywordLen+1 bytes while
		// scanning: a longer word is no keyword.
		var buf [maxKeywordLen + 1]byte
		h := byte(0)
		for ; pos < len(src) && byteClass[src[pos]]&(classIdentStart|classDigit) != 0; pos++ {
			if n := pos - start; n < len(buf) {
				c := src[pos]
				if c >= 'a' && c <= 'z' {
					c -= 'a' - 'A'
				}
				buf[n] = c
				h = kwHash(h, c)
			}
		}
		if n := pos - start; n <= maxKeywordLen {
			if kw := keyword(buf[:n], h); kw != codeNone {
				*t = Token{Kind: TokKeyword, Text: codeText[kw], Pos: start, code: kw}
				break
			}
		}
		*t = Token{Kind: TokIdent, Text: src[start:pos], Pos: start}
	default:
		if c == '\'' {
			*t = l.lexString(start)
		} else {
			l.lexOp(t, start)
		}
		return
	}
	l.pos = pos
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

// singleOps holds the code of every one-byte operator and punctuation
// token; codeNone marks a byte that starts none.
var singleOps = [256]tokCode{
	'+': opPlus, '-': opMinus, '*': opStar, '/': opSlash, '%': opPercent,
	'&': opAmp, '|': opPipe, '^': opCaret, '~': opTilde, '=': opEq,
	'<': opLt, '>': opGt, '(': opLParen, ')': opRParen, ',': opComma,
	'.': opDot, ';': opSemi,
}

// lexOp scans an operator into *t, longest match first: <=>, then the
// two-byte operators << >> <= >= != <> || ==, then one byte.
func (l *Lexer) lexOp(t *Token, start int) {
	src := l.src
	c := src[start]
	op := singleOps[c]
	if start+1 < len(src) {
		switch next := src[start+1]; {
		case c == '<' && next == '=':
			op = opLe
			if start+2 < len(src) && src[start+2] == '>' {
				op = opNullSafeEq
			}
		case c == '<' && next == '<':
			op = opShl
		case c == '<' && next == '>':
			op = opNeq2
		case c == '>' && next == '>':
			op = opShr
		case c == '>' && next == '=':
			op = opGe
		case c == '!' && next == '=':
			op = opNeq
		case c == '|' && next == '|':
			op = opConcat
		case c == '=' && next == '=':
			op = opEqEq
		}
	}
	if op == codeNone {
		l.pos = start + 1
		*t = Token{Kind: TokError, Text: fmt.Sprintf("unexpected character %q", c), Pos: start}
		return
	}
	text := codeText[op]
	l.pos = start + len(text)
	*t = Token{Kind: TokOp, Text: text, Pos: start, code: op}
}
