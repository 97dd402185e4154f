package oracle

import (
	"sqlancerpp/internal/feature"
	"strings"
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/faults"
)

func TestTLPComposedCleanPasses(t *testing.T) {
	db := cleanDB(t)
	for _, pred := range []string{"a = 1", "a IS NULL", "NOT a = 2"} {
		res := TLPComposed(db, parseSelect(t, "SELECT * FROM t"), parseExpr(t, pred))
		if res.Outcome != OK {
			t.Fatalf("TLPComposed(%s) = %v (%s)", pred, res.Outcome, res.Detail)
		}
		// Server-side composition runs exactly two queries.
		if len(res.Queries) != 2 {
			t.Fatalf("composed TLP must run 2 queries, ran %d", len(res.Queries))
		}
		if !strings.Contains(res.Queries[1], "UNION ALL") {
			t.Fatalf("composed query must use UNION ALL: %s", res.Queries[1])
		}
	}
}

func TestTLPComposedDetectsFilterFault(t *testing.T) {
	db := faultyDB(t)
	res := TLPComposed(db, parseSelect(t, "SELECT * FROM t"), parseExpr(t, "a = 1"))
	if res.Outcome != Bug {
		t.Fatalf("composed TLP must detect the fault, got %v (%s)", res.Outcome, res.Detail)
	}
}

func TestTLPComposedDetectsUnionDedupFault(t *testing.T) {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "oracle-test-union-fault"
	d.Faults = faults.NewSet([]faults.Fault{
		{ID: "u1", Kind: faults.UnionAllDedup, Class: faults.Logic},
	})
	db := engine.Open(d)
	for _, sql := range []string{
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t (a) VALUES (1), (1), (2)", // duplicates matter
	} {
		if err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res := TLPComposed(db, parseSelect(t, "SELECT * FROM t"), parseExpr(t, "a = 1"))
	if res.Outcome != Bug {
		t.Fatalf("composed TLP must catch the UNION ALL dedup fault, got %v", res.Outcome)
	}
	if len(res.Triggered) == 0 || res.Triggered[0] != "u1" {
		t.Fatalf("ground truth not attributed: %v", res.Triggered)
	}
	// Classic TLP cannot see this fault — it composes client-side.
	res = TLP(db, parseSelect(t, "SELECT * FROM t"), parseExpr(t, "a = 1"))
	if res.Outcome != OK {
		t.Fatalf("client-side TLP should pass here, got %v (%s)", res.Outcome, res.Detail)
	}
}

func TestTLPComposedFallsBackWithoutUnionAll(t *testing.T) {
	d := dialect.MustGet("sqlite").Clone()
	d.Name = "oracle-test-no-union"
	d.Clauses.Remove(feature.UnionAllID)
	db := engine.Open(d, engine.WithoutFaults())
	for _, sql := range []string{
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t (a) VALUES (1)",
	} {
		if err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	res := TLPComposed(db, parseSelect(t, "SELECT * FROM t"), parseExpr(t, "a = 1"))
	if res.Outcome != OK {
		t.Fatalf("fallback failed: %v (%s)", res.Outcome, res.Detail)
	}
	if len(res.Queries) != 4 {
		t.Fatalf("fallback must use the 4-query client-side TLP, ran %d", len(res.Queries))
	}
}

func TestTLPAggregateCleanPasses(t *testing.T) {
	db := cleanDB(t)
	for aggIdx := 0; aggIdx < 4; aggIdx++ {
		for _, base := range []string{"SELECT a FROM t", "SELECT * FROM t"} {
			res := TLPAggregate(db, parseSelect(t, base), parseExpr(t, "a = 1"), aggIdx)
			if res.Outcome != OK {
				t.Fatalf("TLPAggregate(%s, idx %d) = %v (%s)",
					base, aggIdx, res.Outcome, res.Detail)
			}
		}
	}
}

func TestTLPAggregateDetectsFault(t *testing.T) {
	db := faultyDB(t)
	found := false
	for aggIdx := 0; aggIdx < 4; aggIdx++ {
		// Predicate over s: the NULL-s row is wrongly kept in the first
		// partition, and its non-NULL a value shifts the recombined
		// aggregate.
		res := TLPAggregate(db, parseSelect(t, "SELECT a FROM t"), parseExpr(t, "s = 'x'"), aggIdx)
		if res.Outcome == Bug {
			found = true
		}
	}
	if !found {
		t.Fatal("no aggregate variant detected the CmpNullTrue fault")
	}
}

func TestCombineAggregates(t *testing.T) {
	vals := []engine.Value{engine.Int(3), engine.Null(), engine.Int(5)}
	if v, ok := combineAggregates("COUNT", vals); !ok || v.I != 8 {
		t.Errorf("COUNT combine = %v", v.Render())
	}
	if v, ok := combineAggregates("SUM", vals); !ok || v.I != 8 {
		t.Errorf("SUM combine = %v", v.Render())
	}
	if v, ok := combineAggregates("MIN", vals); !ok || v.I != 3 {
		t.Errorf("MIN combine = %v", v.Render())
	}
	if v, ok := combineAggregates("MAX", vals); !ok || v.I != 5 {
		t.Errorf("MAX combine = %v", v.Render())
	}
	allNull := []engine.Value{engine.Null(), engine.Null(), engine.Null()}
	if v, ok := combineAggregates("SUM", allNull); !ok || !v.IsNull() {
		t.Error("SUM of all-NULL partitions must be NULL")
	}
	if v, ok := combineAggregates("MAX", allNull); !ok || !v.IsNull() {
		t.Error("MAX of all-NULL partitions must be NULL")
	}
}

// TestCombineAggregatesKindGuard: COUNT/SUM must refuse non-integer
// partition values instead of folding Value.I garbage into the total —
// the system under test is deliberately faulty and may return anything.
func TestCombineAggregatesKindGuard(t *testing.T) {
	vals := []engine.Value{engine.Int(3), engine.Text("boom")}
	if _, ok := combineAggregates("COUNT", vals); ok {
		t.Error("COUNT must reject a TEXT partition value")
	}
	if _, ok := combineAggregates("SUM", vals); ok {
		t.Error("SUM must reject a TEXT partition value")
	}
	// MIN/MAX order any kinds (storage-class order), so they stay ok.
	if v, ok := combineAggregates("MAX", vals); !ok || v.K != engine.KindText {
		t.Errorf("MAX over mixed kinds = %v, %v", v.Render(), ok)
	}
}

// TestTLPAggregateMalformedShapeIsInvalid: a base query whose aggregate
// arm returns zero rows (LIMIT 0 survives the clone) must yield Invalid,
// not a panic that kills the whole campaign.
func TestTLPAggregateMalformedShapeIsInvalid(t *testing.T) {
	db := cleanDB(t)
	base := parseSelect(t, "SELECT a FROM t LIMIT 0")
	for aggIdx := 0; aggIdx < 4; aggIdx++ {
		res := TLPAggregate(db, base, parseExpr(t, "a = 1"), aggIdx)
		if res.Outcome != Invalid {
			t.Fatalf("zero-row aggregate shape: got %v (%s), want Invalid",
				res.Outcome, res.Detail)
		}
	}
}
