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

// coreOf strips the compound arms and trailing clauses, leaving one
// executable SELECT core (shallow copy).
func coreOf(sel *sqlast.Select) *sqlast.Select {
	core := *sel
	core.Compound = nil
	core.OrderBy = nil
	core.Limit = nil
	core.Offset = nil
	return &core
}

// validateCompound checks a compound query: each arm must be supported by
// the dialect, produce the same column count, and (static dialects) have
// unifiable column types. ORDER BY terms must name output columns.
func (s *DB) validateCompound(sel *sqlast.Select, outer *scope) ([]Column, error) {
	cols, err := s.validateSelect(coreOf(sel), outer)
	if err != nil {
		return nil, err
	}
	for _, part := range sel.Compound {
		id := setOpFeatureID(part.Op)
		featName := feature.Name(id)
		if !s.dialect.Clauses.Has(id) {
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
	if sel.Limit != nil && !s.dialect.Clauses.Has(feature.LimitID) {
		return nil, unsupported(feature.Limit)
	}
	if sel.Offset != nil && !s.dialect.Clauses.Has(feature.OffsetID) {
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

// execCompound executes a compound query.
func (s *DB) execCompound(sel *sqlast.Select, outer *rowEnv) (*Result, *Error) {
	s.cov.Hit("exec.compound")
	// A compound-level LIMIT/OFFSET cuts the concatenated arm rows by
	// position, so the arms' scan order becomes observable: keep every
	// arm on the order-preserving full scan (see indexOrderSafe).
	if sel.Limit != nil || sel.Offset != nil {
		restore := s.planSpec
		s.planSpec = PlanSpec{DisableIndexPaths: true}
		defer func() { s.planSpec = restore }()
	}
	left, err := s.execSelectEnv(coreOf(sel), outer)
	if err != nil {
		return nil, err
	}
	rows := left.Rows
	for _, part := range sel.Compound {
		if s.cov != nil {
			s.cov.Hit("exec.setop." + setOpFeature(part.Op))
		}
		right, err := s.execSelectEnv(part.Select, outer)
		if err != nil {
			return nil, err
		}
		rows = s.applySetOp(part.Op, rows, right.Rows)
	}

	// ORDER BY over output columns, then LIMIT / OFFSET.
	if len(sel.OrderBy) > 0 {
		s.cov.Hit("exec.orderby")
		keys := make([][]Value, len(rows))
		for i, row := range rows {
			key := make([]Value, len(sel.OrderBy))
			for j, o := range sel.OrderBy {
				cr := o.Expr.(*sqlast.ColumnRef)
				idx := compoundOrderIndex(columnsOf(left.Columns), cr.Column)
				key[j] = row[idx]
			}
			keys[i] = key
		}
		sortRows(rows, keys, sel.OrderBy)
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
	return &Result{Columns: left.Columns, Rows: rows}, nil
}

func columnsOf(names []string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// applySetOp combines two row multisets. Non-ALL operators use set
// semantics. The UnionAllDedup fault makes UNION ALL behave like UNION.
func (s *DB) applySetOp(op sqlast.SetOp, left, right [][]Value) [][]Value {
	switch op {
	case sqlast.SetUnionAll:
		combined := append(append([][]Value{}, left...), right...)
		if f := s.faultSet().UnionDedup(); f != nil {
			deduped := dedupeRows(combined)
			if len(deduped) != len(combined) {
				s.trigger(f)
			}
			return deduped
		}
		return combined
	case sqlast.SetUnion:
		return dedupeRows(append(append([][]Value{}, left...), right...))
	case sqlast.SetIntersect:
		inRight := map[string]bool{}
		for _, r := range right {
			inRight[renderRow(r)] = true
		}
		var out [][]Value
		for _, r := range dedupeRows(left) {
			if inRight[renderRow(r)] {
				out = append(out, r)
			}
		}
		return out
	case sqlast.SetExcept:
		inRight := map[string]bool{}
		for _, r := range right {
			inRight[renderRow(r)] = true
		}
		var out [][]Value
		for _, r := range dedupeRows(left) {
			if !inRight[renderRow(r)] {
				out = append(out, r)
			}
		}
		return out
	default:
		return left
	}
}

func dedupeRows(rows [][]Value) [][]Value {
	seen := map[string]bool{}
	var out [][]Value
	for _, r := range rows {
		k := renderRow(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
