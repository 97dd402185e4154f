package sqlparse_test

import (
	"reflect"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/sqlparse"
)

// FuzzParse asserts the parser's robustness contracts on arbitrary
// input: it never panics (the campaign's containment boundary should
// only ever fire on injected panic faults, not on parser defects); Parse
// and ParseExpr agree with the reference parser of parserref_test.go,
// tree and error text alike; the
// statement cache is transparent — a cached parse renders to exactly
// the same SQL as a fresh parse, and invalid input fails through the
// cache just as it fails without it; and rendering is idempotent — the
// rendering of any accepted input parses again and renders to itself.
//
// Without -fuzz the seed corpus runs as an ordinary test, so tier-1
// keeps exercising these properties on every build.
func FuzzParse(f *testing.F) {
	// Handwritten seeds cover the syntactic edges the mutator should
	// start from; generator output covers realistic campaign SQL.
	for _, s := range []string{
		"SELECT 1",
		"CREATE TABLE t0 (c0 INTEGER, c1 TEXT, c2 BOOLEAN)",
		"SELECT c0 FROM t0 JOIN t1 ON t0.c0 = t1.c0 WHERE (c1 AND NOT c0) OR c0 IS NULL",
		"INSERT INTO t0 (c0) VALUES (1), (NULL)",
		"SELECT * FROM t0 WHERE c0 IN (SELECT c1 FROM t1) ORDER BY c0 DESC LIMIT 3",
		"CREATE INDEX i0 ON t0 (c0, c1)",
		"UPDATE t0 SET c0 = c0 + 1 WHERE c1 LIKE '%x%'",
		"SELECT COUNT(*) FROM t0 GROUP BY c1 HAVING COUNT(*) > 1",
		"SELECT 1 UNION SELECT 2 EXCEPT SELECT 3",
		"REINDEX",
		"((((",
		"SELECT 'unterminated",
		"SELECT -- comment\n1",
		"select Distinct c0 From t0 wHeRe c0 iS nOt NuLl",
		"SELECT -9223372036854775808, - -9223372036854775808",
		"SELECT 'it''s', '', '''' FROM t0",
		"CREATE TABLE A(PRIMARY KEY(A))", // no columns: must not parse
		"",
		"\x00\xff",
	} {
		f.Add(s)
	}
	g := gen.New(gen.Config{Seed: 1, Policy: gen.AllowAll{}})
	for i := 0; i < 32; i++ {
		f.Add(g.GenSetup().SQL)
	}
	for i := 0; i < 32; i++ {
		if st := g.GenQuery(); st != nil {
			f.Add(st.SQL)
		}
	}

	cache := sqlparse.NewCache(64)
	const earlierSQL = "SELECT t0.c0, COUNT(*) AS n FROM t0 JOIN t1 ON t0.c0 = t1.c0 " +
		"WHERE c1 IN (1, 2) AND NOT (c2 LIKE 'a%') OR CASE c0 WHEN 1 THEN TRUE ELSE NULL END " +
		"GROUP BY t0.c0 UNION ALL SELECT -1, 2 ORDER BY 1 LIMIT 3"
	earlier, err := sqlparse.Parse(earlierSQL)
	if err != nil {
		f.Fatal(err)
	}
	earlierText := earlier.SQL()
	f.Fuzz(func(t *testing.T, src string) {
		checkSameAsReference(t, src)
		if got := earlier.SQL(); got != earlierText {
			t.Fatalf("parsing %q changed an earlier tree: it renders %q, not %q", src, got, earlierText)
		}
		if fresh, _ := sqlparse.Parse(earlierSQL); !reflect.DeepEqual(earlier, fresh) {
			t.Fatalf("parsing %q changed an earlier tree", src)
		}
		fresh, err := sqlparse.Parse(src)
		cached, cerr := cache.Parse(src)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("fresh parse err = %v but cached parse err = %v", err, cerr)
		}
		if err != nil {
			return
		}
		hit, herr := cache.Parse(src) // second lookup is a cache hit
		if herr != nil {
			t.Fatalf("cache hit failed: %v", herr)
		}
		freshSQL := fresh.SQL()
		if got := cached.SQL(); got != freshSQL {
			t.Fatalf("cached parse renders %q, fresh parse %q", got, freshSQL)
		}
		if got := hit.SQL(); got != freshSQL {
			t.Fatalf("cache-hit parse renders %q, fresh parse %q", got, freshSQL)
		}
		again, err := sqlparse.Parse(freshSQL)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", freshSQL, src, err)
		}
		if got := again.SQL(); got != freshSQL {
			t.Fatalf("rendering %q of %q re-renders as %q", freshSQL, src, got)
		}
	})
}
