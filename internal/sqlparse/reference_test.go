package sqlparse_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlparse"
)

// checkSameAsReference requires Parse and ParseExpr to agree with the
// reference parser (parserref_test.go) on src: the same tree, with nil
// and empty slices equal, or the same error at the same offset. The
// error text is the reference's too, except at a lexer-error token: the
// parser reports the lexer's own message there, where the reference
// quotes it in one of its own (lexerErrorText).
func checkSameAsReference(t *testing.T, src string) {
	t.Helper()
	st, err := sqlparse.Parse(src)
	rst, rerr := sqlparse.RefParse(src)
	sameResult(t, "Parse", src, st, err, rst, rerr)
	e, err := sqlparse.ParseExpr(src)
	re, rerr := sqlparse.RefParseExpr(src)
	sameResult(t, "ParseExpr", src, e, err, re, rerr)
}

func sameResult(t *testing.T, fn, src string, got any, err error, want any, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || err != nil && err.Error() != lexerErrorText(src, werr) {
		t.Fatalf("%s(%q) error\n  got  %v\n  want %v (reference: %v)", fn, src, err, lexerErrorText(src, werr), werr)
	}
	if !sameTree(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s(%q) builds a different tree than the reference parser", fn, src)
	}
}

// lexerErrorText returns the text of the reference's error werr on src,
// with the lexer's message in place of the reference's when the token at
// the error's offset is a lexer error.
func lexerErrorText(src string, werr error) string {
	var se *sqlparse.SyntaxError
	if !errors.As(werr, &se) {
		return fmt.Sprint(werr)
	}
	for lex := sqlparse.NewLexer(src); ; {
		tok := lex.Next()
		if tok.Pos == se.Pos && tok.Kind == sqlparse.TokError {
			return (&sqlparse.SyntaxError{Msg: tok.Text, Pos: se.Pos}).Error()
		}
		if tok.Pos >= se.Pos || tok.Kind == sqlparse.TokEOF {
			return werr.Error()
		}
	}
}

// TestParserMatchesReference compares the parser with the reference on
// every byte prefix of generated setup statements, smoke, compound and
// oracle carrier queries, and on every input of the TestParse* tests. A
// prefix ends a statement anywhere, so the comparison covers each
// error the grammar can raise at each point of real statements.
func TestParserMatchesReference(t *testing.T) {
	start := time.Now()
	var inputs []string
	inputs = append(inputs, statementFixtures...)
	for _, v := range statementVariants {
		inputs = append(inputs, v.sql)
	}
	for sql := range exprFixtures {
		inputs = append(inputs, sql)
	}
	for _, c := range errorFixtures {
		inputs = append(inputs, c.sql)
	}
	for seed := int64(1); seed <= 2; seed++ {
		g := gen.New(gen.Config{Seed: seed, StartDepth: 3, MaxDepth: 3, RiskyProb: 0.2})
		db := engine.Open(dialect.MustGet("sqlite"), engine.WithoutFaults())
		for i := 0; i < 40; i++ {
			st := g.GenSetup()
			inputs = append(inputs, st.SQL)
			if db.Exec(st.SQL) == nil && st.OnSuccess != nil {
				st.OnSuccess()
			}
		}
		for i := 0; i < 150; i++ {
			switch i % 3 {
			case 0:
				if oc := g.GenOracleCase(); oc != nil {
					carrier := *oc.Base
					carrier.Where = oc.Pred
					inputs = append(inputs, carrier.SQL())
				}
			case 1:
				if cq := g.GenCompoundQuery(); cq != nil {
					inputs = append(inputs, cq.SQL)
				}
			default:
				inputs = append(inputs, g.GenQuery().SQL)
			}
		}
	}
	parses := 0
	for _, src := range inputs {
		for n := 0; n <= len(src); n++ {
			checkSameAsReference(t, src[:n])
			parses += 2
		}
	}
	t.Logf("%d inputs, %d parses compared in %v", len(inputs), parses, time.Since(start))
}
