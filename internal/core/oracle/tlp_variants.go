package oracle

import (
	"fmt"

	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// TLPComposed is the server-side variant of TLP: the three partitions are
// combined with UNION ALL in a single compound query, so the set-
// operation machinery of the DBMS is exercised too. Only valid on
// dialects that support UNION ALL.
func TLPComposed(db *engine.DB, base *sqlast.Select, pred sqlast.Expr) Result {
	if !db.Dialect().Clauses.Has(feature.UnionAllID) {
		res := TLP(db, base, pred)
		res.Oracle = TLPComposedName // attribution follows the registered name
		return res
	}
	r := newRunner(db)

	baseRes, err := r.query(base.SQL())
	if err != nil {
		return r.result(TLPComposedName, Invalid, err, "")
	}

	parts := tlpPartitions(pred)
	first := derive(base)
	first.Where = parts[0]
	for _, p := range parts[1:] {
		arm := derive(base)
		arm.Where = p
		first.Compound = append(first.Compound,
			sqlast.CompoundPart{Op: sqlast.SetUnionAll, Select: arm})
	}
	unionRes, err := r.query(first.SQL())
	if err != nil {
		return r.result(TLPComposedName, Invalid, err, "")
	}
	if d := diffMultisets(multiset(baseRes), multiset(unionRes)); d != "" {
		return r.result(TLPComposedName, Bug, nil,
			"TLP (UNION ALL composed) partition mismatch: "+d)
	}
	return r.result(TLPComposedName, OK, nil, "")
}

// aggFuncs are the aggregate variants of TLP (Rigger & Su, OOPSLA 2020
// §4.2: TLP generalizes to aggregate queries by recombining per-partition
// aggregates).
var aggFuncs = []string{"COUNT", "SUM", "MIN", "MAX"}

// TLPAggregate checks SELECT AGG(expr) FROM ... against the three
// partitions' aggregates recombined:
//
//	COUNT/SUM: base = p1 + p2 + p3 (NULL-aware)
//	MIN/MAX:   base = MIN/MAX of the partition results
//
// The aggregate argument is the first projected expression of the base
// query (or the first column for star projections). aggIdx selects the
// aggregate function deterministically from the case's seed material.
func TLPAggregate(db *engine.DB, base *sqlast.Select, pred sqlast.Expr, aggIdx int) Result {
	r := newRunner(db)
	agg := aggFuncs[((aggIdx%len(aggFuncs))+len(aggFuncs))%len(aggFuncs)]

	arg := firstProjection(base)
	if arg == nil {
		agg = "COUNT" // star projection: fall back to COUNT(*)
	}
	call := &sqlast.Func{Name: agg}
	if arg == nil {
		call.Star = true
	} else {
		call.Args = []sqlast.Expr{arg}
	}
	items := []sqlast.SelectItem{{Expr: call}}
	mkAgg := func(where sqlast.Expr) string {
		q := derive(base)
		q.Items = items
		q.Where = where
		return q.SQL()
	}

	baseRes, err := r.query(mkAgg(nil))
	if err != nil {
		return r.result(TLPAggregateName, Invalid, err, "")
	}
	// The system under test is deliberately faulty: a malformed result
	// shape must degrade to Invalid (like NoREC's COUNT shape guard),
	// never panic and kill the campaign.
	baseVal, ok := scalarValue(baseRes)
	if !ok {
		return r.result(TLPAggregateName, Invalid,
			fmt.Errorf("TLP aggregate: unexpected %s result shape", agg), "")
	}

	var partVals []engine.Value
	for _, p := range tlpPartitions(pred) {
		res, err := r.query(mkAgg(p))
		if err != nil {
			return r.result(TLPAggregateName, Invalid, err, "")
		}
		v, ok := scalarValue(res)
		if !ok {
			return r.result(TLPAggregateName, Invalid,
				fmt.Errorf("TLP aggregate: unexpected %s partition result shape", agg), "")
		}
		partVals = append(partVals, v)
	}

	combined, ok := combineAggregates(agg, partVals)
	if !ok {
		return r.result(TLPAggregateName, Invalid,
			fmt.Errorf("TLP aggregate: non-numeric %s partition value", agg), "")
	}
	if !engine.Equal(baseVal, combined) {
		return r.result(TLPAggregateName, Bug, nil, fmt.Sprintf(
			"TLP aggregate (%s) mismatch: base %s vs recombined %s",
			agg, baseVal.Render(), combined.Render()))
	}
	return r.result(TLPAggregateName, OK, nil, "")
}

// scalarValue extracts the single value of a 1×1 result, reporting
// whether the result has that shape.
func scalarValue(res *engine.Result) (engine.Value, bool) {
	if res == nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return engine.Value{}, false
	}
	return res.Rows[0][0], true
}

// firstProjection extracts an expression usable as the aggregate
// argument.
func firstProjection(base *sqlast.Select) sqlast.Expr {
	for i := range base.Items {
		if !base.Items[i].Star && base.Items[i].Expr != nil {
			return base.Items[i].Expr
		}
	}
	return nil // star projection: the caller falls back to COUNT(*)
}

// combineAggregates recombines per-partition aggregate values. For COUNT
// and SUM every non-NULL partition value must be an integer — a faulty
// engine may hand back anything, and blindly reading Value.I would fold
// garbage into the recombination; such shapes report !ok and the check
// degrades to Invalid.
func combineAggregates(agg string, parts []engine.Value) (engine.Value, bool) {
	switch agg {
	case "COUNT":
		var total int64
		for _, v := range parts {
			if v.IsNull() {
				continue
			}
			if v.K != engine.KindInt {
				return engine.Value{}, false
			}
			total += v.I
		}
		return engine.Int(total), true
	case "SUM":
		allNull := true
		var total int64
		for _, v := range parts {
			if v.IsNull() {
				continue
			}
			if v.K != engine.KindInt {
				return engine.Value{}, false
			}
			allNull = false
			total += v.I
		}
		if allNull {
			return engine.Null(), true
		}
		return engine.Int(total), true
	default: // MIN, MAX order values of any kind
		var best engine.Value = engine.Null()
		for _, v := range parts {
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			c := engine.Compare(v, best)
			if (agg == "MAX" && c > 0) || (agg == "MIN" && c < 0) {
				best = v
			}
		}
		return best, true
	}
}
