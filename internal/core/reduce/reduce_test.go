package reduce

import (
	"strings"
	"testing"

	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

func parseAll(t *testing.T, stmts ...string) []sqlast.Stmt {
	t.Helper()
	out := make([]sqlast.Stmt, len(stmts))
	for i, s := range stmts {
		st, err := sqlparse.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out[i] = st
	}
	return out
}

func render(stmts []sqlast.Stmt) string {
	var parts []string
	for _, s := range stmts {
		parts = append(parts, s.SQL())
	}
	return strings.Join(parts, "; ")
}

func TestReduceRemovesIrrelevantStatements(t *testing.T) {
	stmts := parseAll(t,
		"CREATE TABLE t0 (c0 INTEGER)",
		"CREATE TABLE junk1 (x INTEGER)",
		"INSERT INTO junk1 (x) VALUES (1)",
		"CREATE TABLE junk2 (y TEXT)",
		"INSERT INTO t0 (c0) VALUES (1)",
		"SELECT * FROM t0 WHERE (c0 = 1)",
	)
	// Property: the sequence still contains a SELECT on t0 and mentions
	// no junk (a stand-in for "still triggers the bug").
	prop := func(cand []sqlast.Stmt) bool {
		s := render(cand)
		return strings.Contains(s, "SELECT * FROM t0") &&
			strings.Contains(s, "CREATE TABLE t0")
	}
	got := Reduce(stmts, prop)
	s := render(got)
	if strings.Contains(s, "junk") {
		t.Fatalf("junk statements survived: %s", s)
	}
	if len(got) > 3 {
		t.Fatalf("expected ≤3 statements, got %d: %s", len(got), s)
	}
}

func TestReduceSimplifiesExpressions(t *testing.T) {
	stmts := parseAll(t,
		"SELECT * FROM t0 WHERE ((c0 = 1) AND ((LENGTH('abcdef') + 10) > 2))",
	)
	// Property: the statement keeps the c0 = 1 conjunct.
	prop := func(cand []sqlast.Stmt) bool {
		return strings.Contains(render(cand), "c0 = 1")
	}
	got := Reduce(stmts, prop)
	s := render(got)
	if strings.Contains(s, "LENGTH") {
		t.Fatalf("reducible function call survived: %s", s)
	}
}

func TestReducePreservesProperty(t *testing.T) {
	stmts := parseAll(t,
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t (a) VALUES (5)",
		"SELECT * FROM t WHERE (a BETWEEN (1 + 1) AND (10 * 10))",
	)
	calls := 0
	prop := func(cand []sqlast.Stmt) bool {
		calls++
		s := render(cand)
		return strings.Contains(s, "BETWEEN")
	}
	got := Reduce(stmts, prop)
	if !prop(got) {
		t.Fatal("reduction violated its property")
	}
	if calls == 0 {
		t.Fatal("property was never evaluated")
	}
}

// TestReduceExpressionsRecomputesSlots is the regression test for the
// stale-slot defect: after a subtree is successfully replaced, slots
// collected from the detached subtree would silently no-op on set while
// the property replay kept returning true — a spurious "accepted"
// without any AST change. The fixed reducer re-enumerates slots after
// every successful replacement, so a property acceptance must always
// coincide with a real mutation (observable as a changed rendering).
func TestReduceExpressionsRecomputesSlots(t *testing.T) {
	stmts := parseAll(t,
		"SELECT * FROM t WHERE ((c0 = 0) AND (c1 = 1))",
	)
	lastAccepted := render(stmts)
	spurious := 0
	prop := func(cand []sqlast.Stmt, _ []string) bool {
		ok := strings.Contains(render(cand), "c1 = 1")
		if ok {
			s := render(cand)
			if s == lastAccepted {
				spurious++
			}
			lastAccepted = s
		}
		return ok
	}
	seq := newSequence(stmts)
	reduceExpressions(seq, prop)
	got := seq.stmts
	if spurious != 0 {
		t.Fatalf("%d property acceptances without an AST change (stale slots)", spurious)
	}
	s := render(got)
	if !strings.Contains(s, "c1 = 1") {
		t.Fatalf("reduction violated its property: %s", s)
	}
	if strings.Contains(s, "c0") {
		t.Fatalf("left conjunct should have been replaced by a literal: %s", s)
	}
}

func TestReduceInputUnmodified(t *testing.T) {
	stmts := parseAll(t,
		"SELECT * FROM t WHERE ((a + 1) = 2)",
	)
	before := render(stmts)
	Reduce(stmts, func(cand []sqlast.Stmt) bool {
		return strings.Contains(render(cand), "=")
	})
	if render(stmts) != before {
		t.Fatal("Reduce must not mutate its input")
	}
}

func TestReduceSingleStatementFloor(t *testing.T) {
	stmts := parseAll(t, "SELECT 1")
	got := Reduce(stmts, func(cand []sqlast.Stmt) bool { return len(cand) >= 1 })
	if len(got) != 1 {
		t.Fatalf("cannot reduce below one statement, got %d", len(got))
	}
}

// TestTextsMatchCandidates: at every property call, through the
// statement phases and the expression phase, accepted and restored
// slots alike, the texts ReduceTexts hands over are the candidate's
// renderings, and so are the texts it returns.
func TestTextsMatchCandidates(t *testing.T) {
	stmts := parseAll(t,
		"CREATE TABLE t (c0 INTEGER, c1 INTEGER)",
		"INSERT INTO t (c0, c1) VALUES ((1 + 2), (3 * 4))",
		"CREATE TABLE junk (x INTEGER)",
		"UPDATE t SET c0 = (c1 - 1) WHERE (c0 > 2)",
		"SELECT * FROM t WHERE ((c0 = 0) AND ((c1 = 1) OR (c1 < 5)))",
	)
	var calls, held, removals int
	prop := func(cand []sqlast.Stmt, texts []string) bool {
		calls++
		if len(texts) != len(cand) {
			t.Fatalf("call %d: %d texts for %d statements", calls, len(texts), len(cand))
		}
		for i, st := range cand {
			if texts[i] != st.SQL() {
				t.Fatalf("call %d: text %d is %q, the statement renders %q", calls, i, texts[i], st.SQL())
			}
		}
		if len(cand) < len(stmts) {
			removals++
		}
		s := render(cand)
		ok := strings.Contains(s, "CREATE TABLE t ") && strings.Contains(s, "c1 = 1")
		if ok {
			held++
		}
		return ok
	}
	got, texts := ReduceTexts(stmts, prop)
	if removals == 0 || held == 0 || calls-held == 0 {
		t.Fatalf("%d calls, %d held, %d with statements removed: the test needs all three", calls, held, removals)
	}
	if len(texts) != len(got) {
		t.Fatalf("%d texts for %d reduced statements", len(texts), len(got))
	}
	for i, st := range got {
		if texts[i] != st.SQL() {
			t.Errorf("reduced text %d is %q, the statement renders %q", i, texts[i], st.SQL())
		}
	}
}
