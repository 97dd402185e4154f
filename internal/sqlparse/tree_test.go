package sqlparse_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sqlancerpp/internal/core/gen"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// treeCorpus is the rendered select corpus followed by generated setup
// statements (CREATE, INSERT with several rows, ALTER, ...), so every
// list kind the parser builds appears, and by one statement too long
// for its parser to go back to the pool.
func treeCorpus(tb testing.TB) []string {
	tb.Helper()
	long := []string{"SELECT c0 FROM t0 WHERE c0 IN (0"}
	for i := 1; i < 3000; i++ {
		long = append(long, fmt.Sprint(i))
	}
	texts := []string{strings.Join(long, ", ") + ")"}
	for _, sel := range selectCorpus(tb) {
		texts = append(texts, sel.SQL())
	}
	g := gen.New(gen.Config{Seed: 2, Policy: gen.AllowAll{}})
	for i := 0; i < 60; i++ {
		st := g.GenSetup()
		texts = append(texts, st.SQL)
		if st.OnSuccess != nil {
			st.OnSuccess()
		}
	}
	return texts
}

func mustParse(tb testing.TB, sql string) sqlast.Stmt {
	tb.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatalf("parse %q: %v", sql, err)
	}
	return st
}

// TestParsedTreesOutliveLaterParses: a statement's nodes belong to it
// alone. Trees returned by Parse, ParseExpr and a 16-entry Cache must
// stay equal to a fresh parse of their text, and render the same, after
// 2,000 later parses that cycle the cache through evictions.
func TestParsedTreesOutliveLaterParses(t *testing.T) {
	texts := treeCorpus(t)
	type held struct {
		sql, rendered string
		tree          any
	}
	var kept []held
	cache := sqlparse.NewCache(16)
	for i, sql := range texts {
		if i%7 != 0 {
			continue
		}
		st := mustParse(t, sql)
		kept = append(kept, held{sql, st.SQL(), st})
		cst, err := cache.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, held{sql, cst.SQL(), cst})
		if sel, ok := st.(*sqlast.Select); ok && sel.Where != nil {
			w := sel.Where.SQL()
			e, err := sqlparse.ParseExpr(w)
			if err != nil {
				t.Fatalf("parse expression %q: %v", w, err)
			}
			kept = append(kept, held{w, e.SQL(), e})
		}
	}
	for i := 0; i < 2000; i++ {
		sql := texts[(i*13)%len(texts)]
		mustParse(t, sql)
		if _, err := cache.Parse(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := cache.Stats(); misses < 1500 {
		t.Fatalf("only %d cache misses: the cache did not cycle", misses)
	}
	for _, h := range kept {
		var fresh any
		if _, isExpr := h.tree.(sqlast.Expr); isExpr && !isStmt(h.tree) {
			e, err := sqlparse.ParseExpr(h.sql)
			if err != nil {
				t.Fatal(err)
			}
			fresh = e
		} else {
			fresh = mustParse(t, h.sql)
		}
		if !reflect.DeepEqual(h.tree, fresh) {
			t.Fatalf("tree of %q changed after later parses", h.sql)
		}
		if got := h.tree.(interface{ SQL() string }).SQL(); got != h.rendered {
			t.Fatalf("tree of %q renders %q after later parses, %q before", h.sql, got, h.rendered)
		}
	}
}

func isStmt(v any) bool { _, ok := v.(sqlast.Stmt); return ok }

// TestConcurrentParsesShareNothing parses distinct statements on 8
// goroutines at once; each tree must equal a serial parse of its text.
// Under -race it also shows that pooled parsers hand no memory
// from one goroutine's statement to another's.
func TestConcurrentParsesShareNothing(t *testing.T) {
	texts := treeCorpus(t)
	want := make([]sqlast.Stmt, len(texts))
	for i, sql := range texts {
		want[i] = mustParse(t, sql)
	}
	const workers = 8
	got := make([]sqlast.Stmt, len(texts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(texts); i += workers {
					st, err := sqlparse.Parse(texts[i])
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = st
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range texts {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("concurrent parse of %q differs from the serial one", texts[i])
		}
		if got[i].SQL() != want[i].SQL() {
			t.Fatalf("concurrent parse of %q renders %q", texts[i], got[i].SQL())
		}
	}
}

// TestParsedNodesOwnTheirMemory checks the rules a tree's consumers
// rely on: every node has an address of its own (the engine keys sets
// by node identity, so not even two NULL literals may share one), and
// every slice has cap == len, so an append by a consumer reallocates
// instead of writing into spare capacity that the other consumers of a
// cached tree share.
func TestParsedNodesOwnTheirMemory(t *testing.T) {
	for _, sql := range treeCorpus(t) {
		seen := map[uintptr]string{}
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			switch v.Kind() {
			case reflect.Interface:
				if !v.IsNil() {
					walk(v.Elem(), path)
				}
			case reflect.Pointer:
				if v.IsNil() {
					return
				}
				if prev, dup := seen[v.Pointer()]; dup {
					t.Fatalf("%q: %s and %s are one node", sql, prev, path)
				}
				seen[v.Pointer()] = path
				walk(v.Elem(), path)
			case reflect.Slice:
				if v.Cap() != v.Len() {
					t.Fatalf("%q: %s has len %d but cap %d", sql, path, v.Len(), v.Cap())
				}
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), path+"[]")
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
			}
		}
		walk(reflect.ValueOf(mustParse(t, sql)), "stmt")
	}
}
