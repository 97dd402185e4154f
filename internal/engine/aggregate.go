package engine

import "sqlancerpp/internal/sqlast"

// evalAggregate computes an aggregate call over the current group.
func (ctx *evalCtx) evalAggregate(x *sqlast.Func) (Value, *Error) {
	if ctx.s.cov != nil {
		ctx.s.cov.Hit("eval.aggregate." + x.Name)
		ctx.s.cov.HitBranch("agg.empty", len(ctx.group) == 0)
		ctx.s.cov.HitBranch("agg.distinct."+x.Name, x.Distinct)
	}
	if x.Star { // COUNT(*)
		return Int(int64(len(ctx.group))), nil
	}
	// Collect the argument's values over the group, fault-free: aggregate
	// inputs are reference-path evaluations. One context is rebound per
	// member instead of allocated per member; both live in the scratch
	// for the call.
	st := &ctx.s.st
	m := st.mark()
	defer st.release(m)
	vals := st.vals.alloc(len(ctx.group))[:0]
	mctx := ctx.s.scratchCtx(nil)
	for _, env := range ctx.group {
		mctx.env = env
		v, err := mctx.eval(x.Args[0])
		if err != nil {
			return Null(), err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	if x.Distinct {
		seen := st.sets.take()
		n := 0
		for _, v := range vals {
			st.key = appendValue(st.key[:0], v)
			if _, added := seen.add(st.key); added {
				vals[n] = v
				n++
			}
		}
		vals = vals[:n]
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return Null(), nil
		}
		var sum int64
		for _, v := range vals {
			sum += toInt(v)
		}
		return Int(sum), nil
	case "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		var sum int64
		for _, v := range vals {
			sum += toInt(v)
		}
		return Int(sum / int64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (x.Name == "MAX" && c > 0) || (x.Name == "MIN" && c < 0) {
				best = v
			}
		}
		return best, nil
	default:
		return Null(), errf(ErrSemantic, "unhandled aggregate %s", x.Name)
	}
}
