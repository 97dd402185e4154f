package engine

import (
	"strings"

	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// setOpFeature maps a set operator to its feature name.
func setOpFeatureID(op sqlast.SetOp) feature.ID {
	switch op {
	case sqlast.SetUnion:
		return feature.UnionID
	case sqlast.SetUnionAll:
		return feature.UnionAllID
	case sqlast.SetIntersect:
		return feature.IntersectID
	default:
		return feature.ExceptID
	}
}

func setOpFeature(op sqlast.SetOp) string {
	switch op {
	case sqlast.SetUnion:
		return feature.Union
	case sqlast.SetUnionAll:
		return feature.UnionAll
	case sqlast.SetIntersect:
		return feature.Intersect
	case sqlast.SetExcept:
		return feature.Except
	default:
		return ""
	}
}

// validateCompound checks a compound query: each arm must be supported by
// the dialect, produce the same column count, and (static dialects) have
// unifiable column types. ORDER BY terms must name output columns.
func (s *DB) validateCompound(sel *sqlast.Select, outer *scope) ([]Column, error) {
	cols, err := s.validateSelect(s.st.coreOf(sel), outer)
	if err != nil {
		return nil, err
	}
	for _, part := range sel.Compound {
		id := setOpFeatureID(part.Op)
		featName := feature.Name(id)
		if !s.uses(&s.dialect.Clauses, id) {
			return nil, unsupported(featName)
		}
		armCols, err := s.validateSelect(part.Select, outer)
		if err != nil {
			return nil, err
		}
		if len(armCols) != len(cols) {
			return nil, errf(ErrSemantic,
				"%s arms have different column counts (%d vs %d)",
				featName, len(cols), len(armCols))
		}
		if s.static() {
			for i := range cols {
				u, ok := unify(cols[i].Type, armCols[i].Type)
				if !ok {
					return nil, errf(ErrSemantic,
						"%s arm column %d has incompatible type", featName, i+1)
				}
				cols[i].Type = u
			}
		}
	}
	if len(sel.OrderBy) > 0 {
		// The terms name output columns rather than expressions: ORDER BY
		// is recorded without a support check, each term one level deep.
		s.feats.Add(feature.OrderByID)
		s.maxDepth = max(s.maxDepth, s.depth+1)
	}
	for _, o := range sel.OrderBy {
		cr, ok := o.Expr.(*sqlast.ColumnRef)
		if !ok || cr.Table != "" {
			return nil, errf(ErrSemantic,
				"ORDER BY in a compound query must name an output column")
		}
		if compoundOrderIndex(cols, cr.Column) < 0 {
			return nil, errf(ErrSemantic, "no such output column %q", cr.Column)
		}
	}
	if sel.Limit != nil && !s.uses(&s.dialect.Clauses, feature.LimitID) {
		return nil, unsupported(feature.Limit)
	}
	if sel.Offset != nil && !s.uses(&s.dialect.Clauses, feature.OffsetID) {
		return nil, unsupported(feature.Offset)
	}
	return cols, nil
}

func compoundOrderIndex(cols []Column, name string) int {
	for i := range cols {
		if strings.EqualFold(cols[i].Name, name) {
			return i
		}
	}
	return -1
}

// execCompound executes a compound query, building its result into out
// (see execSelectEnv). The result's rows are its arms' rows, so the arms
// build theirs into out too.
func (s *DB) execCompound(sel *sqlast.Select, outer *rowEnv, out *stmtScratch) (*Result, *Error) {
	s.cov.Hit("exec.compound")
	// A compound-level LIMIT/OFFSET cuts the concatenated arm rows by
	// position, so the arms' scan order becomes observable: keep every
	// arm on the order-preserving full scan (see indexOrderSafe).
	if sel.Limit != nil || sel.Offset != nil {
		restore := s.planSpec
		s.planSpec = PlanSpec{DisableIndexPaths: true}
		defer func() { s.planSpec = restore }()
	}
	left, err := s.execSelectEnv(s.st.coreOf(sel), outer, out)
	if err != nil {
		return nil, err
	}
	rows := left.Rows
	for _, part := range sel.Compound {
		if s.cov != nil {
			s.cov.Hit("exec.setop." + setOpFeature(part.Op))
		}
		right, err := s.execSelectEnv(part.Select, outer, out)
		if err != nil {
			return nil, err
		}
		rows = s.applySetOp(part.Op, rows, right.Rows, out)
	}

	// ORDER BY over output columns, then LIMIT / OFFSET.
	if len(sel.OrderBy) > 0 {
		s.cov.Hit("exec.orderby")
		// Each term names an output column (validateCompound): resolve
		// the positions once.
		pos := s.st.ints.alloc(len(sel.OrderBy))
		for j, o := range sel.OrderBy {
			pos[j] = nameIndex(left.Columns, o.Expr.(*sqlast.ColumnRef).Column)
		}
		keys := s.st.lists.alloc(len(rows))
		kflat := s.st.vals.alloc(len(rows) * len(pos))
		for i, row := range rows {
			key := kflat[i*len(pos) : (i+1)*len(pos) : (i+1)*len(pos)]
			for j, idx := range pos {
				key[j] = row[idx]
			}
			keys[i] = key
		}
		s.sortRows(rows, keys, sel.OrderBy)
	}
	if sel.Offset != nil {
		off := int(*sel.Offset)
		if off < 0 {
			off = 0
		}
		if off > len(rows) {
			off = len(rows)
		}
		rows = rows[off:]
	}
	if sel.Limit != nil {
		lim := int(*sel.Limit)
		if lim < 0 {
			lim = 0
		}
		if lim < len(rows) {
			rows = rows[:lim]
		}
	}
	res := out.result()
	res.Columns, res.Rows = left.Columns, rows
	return res, nil
}

// nameIndex is the position of the first name equal to name, ignoring
// case, or -1.
func nameIndex(names []string, name string) int {
	for i, n := range names {
		if strings.EqualFold(n, name) {
			return i
		}
	}
	return -1
}

// applySetOp combines two row multisets into out (see execSelectEnv).
// Non-ALL operators use set semantics, deduplicating in place: the
// compound owns both lists. The UnionAllDedup fault makes UNION ALL
// behave like UNION.
func (s *DB) applySetOp(op sqlast.SetOp, left, right [][]Value, out *stmtScratch) [][]Value {
	switch op {
	case sqlast.SetUnionAll:
		combined := concatRows(left, right, out)
		if f := s.faultSet().UnionDedup(); f != nil {
			n := len(combined)
			deduped := s.dedupeRows(combined)
			if len(deduped) != n {
				s.trigger(f)
			}
			return deduped
		}
		return combined
	case sqlast.SetUnion:
		return s.dedupeRows(concatRows(left, right, out))
	case sqlast.SetIntersect, sqlast.SetExcept:
		inRight := s.st.sets.take()
		for _, r := range right {
			s.st.key = appendRow(s.st.key[:0], r)
			inRight.add(s.st.key)
		}
		want := op == sqlast.SetIntersect
		kept := s.dedupeRows(left)
		n := 0
		for _, r := range kept {
			s.st.key = appendRow(s.st.key[:0], r)
			if inRight.has(s.st.key) == want {
				kept[n] = r
				n++
			}
		}
		return kept[:n]
	default:
		return left
	}
}

// concatRows is left followed by right, in a new list from out.
func concatRows(left, right [][]Value, out *stmtScratch) [][]Value {
	rows := out.rowList(len(left) + len(right))
	copy(rows[copy(rows, left):], right)
	return rows
}

// dedupeRows keeps the first of each set of equal rows, in place.
func (s *DB) dedupeRows(rows [][]Value) [][]Value {
	seen := s.st.sets.take()
	n := 0
	for _, r := range rows {
		s.st.key = appendRow(s.st.key[:0], r)
		if _, added := seen.add(s.st.key); added {
			rows[n] = r
			n++
		}
	}
	return rows[:n]
}
