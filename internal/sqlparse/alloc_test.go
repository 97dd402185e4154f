package sqlparse_test

import (
	"strings"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// selectCorpus is a fixed corpus of generated oracle queries: each
// case's base query with its predicate as WHERE, as TLP's partitions and
// PlanDiff send them. The allocation guards and the parse and render
// benchmarks share it.
func selectCorpus(tb testing.TB) []*sqlast.Select {
	tb.Helper()
	g := gen.New(gen.Config{Seed: 1, Policy: gen.AllowAll{}})
	for i := 0; i < 40; i++ {
		if st := g.GenSetup(); st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	var out []*sqlast.Select
	for i := 0; i < 1000 && len(out) < 300; i++ {
		oc := g.GenOracleCase()
		if oc == nil {
			continue
		}
		q := *oc.Base
		q.Where = oc.Pred
		out = append(out, &q)
	}
	if len(out) < 300 {
		tb.Fatalf("generator produced only %d oracle cases", len(out))
	}
	return out
}

// TestLexerAllocatesNothing guards the lexer's allocation contract: a
// statement whose string literals hold no doubled-quote escape lexes
// without a single allocation, however many tokens it has.
func TestLexerAllocatesNothing(t *testing.T) {
	checked := 0
	for _, sel := range selectCorpus(t) {
		sql := sel.SQL()
		if strings.Contains(sql, "''") {
			continue // may hold an escape, which builds its token's text
		}
		checked++
		allocs := testing.AllocsPerRun(5, func() {
			lex := sqlparse.NewLexer(sql)
			for lex.Next().Kind != sqlparse.TokEOF {
			}
		})
		if allocs != 0 {
			t.Fatalf("lexing allocates %.0f times (%d bytes):\n  %s", allocs, len(sql), sql)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d corpus statements without '' checked", checked)
	}
}

// TestRenderAllocsBounded guards the renderer's allocation contract: a
// statement renders into one growing buffer, so Select.SQL allocates at
// most three times whatever its node count.
func TestRenderAllocsBounded(t *testing.T) {
	longest := 0
	for _, sel := range selectCorpus(t) {
		allocs := testing.AllocsPerRun(5, func() { _ = sel.SQL() })
		if allocs > 3 {
			t.Fatalf("rendering allocates %.0f times:\n  %s", allocs, sel.SQL())
		}
		longest = max(longest, len(sel.SQL()))
	}
	if longest < 400 {
		t.Fatalf("corpus lacks long statements: longest renders %d bytes", longest)
	}
}

// BenchmarkParseSelect parses the corpus's rendered queries, one per op,
// without a statement cache: the lexer and parser's cost per miss.
func BenchmarkParseSelect(b *testing.B) {
	corpus := selectCorpus(b)
	texts := make([]string, len(corpus))
	for i, sel := range corpus {
		texts[i] = sel.SQL()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderSelect renders the corpus's queries, one per op.
func BenchmarkRenderSelect(b *testing.B) {
	corpus := selectCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = corpus[i%len(corpus)].SQL()
	}
}
