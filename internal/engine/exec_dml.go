package engine

import (
	"strings"

	"sqlancerpp/internal/sqlast"
)

// execStmt dispatches an already-validated statement.
func (s *DB) execStmt(stmt sqlast.Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlast.Select:
		res, err := s.execSelectEnv(st, nil)
		if err != nil {
			return nil, err
		}
		return res, nil
	case *sqlast.CreateTable:
		return nil, s.execCreateTable(st)
	case *sqlast.CreateIndex:
		return nil, s.execCreateIndex(st)
	case *sqlast.CreateView:
		return nil, s.execCreateView(st)
	case *sqlast.Insert:
		return nil, s.execInsert(st)
	case *sqlast.Update:
		return nil, s.execUpdate(st)
	case *sqlast.Delete:
		return nil, s.execDelete(st)
	case *sqlast.AlterTable:
		return nil, s.execAlter(st)
	case *sqlast.DropTable:
		s.cov.Hit("exec.droptable")
		if s.store.table(st.Name) == nil {
			return nil, errf(ErrSemantic, "no such table %q", st.Name)
		}
		s.store.dropTable(st.Name)
		return nil, nil
	case *sqlast.DropView:
		s.cov.Hit("exec.dropview")
		if s.store.view(st.Name) == nil {
			return nil, errf(ErrSemantic, "no such view %q", st.Name)
		}
		delete(s.store.views, key(st.Name))
		return nil, nil
	case *sqlast.DropIndex:
		s.cov.Hit("exec.dropindex")
		ix := s.store.index(st.Name)
		if ix == nil {
			return nil, errf(ErrSemantic, "no such index %q", st.Name)
		}
		s.store.detachIndex(ix)
		return nil, nil
	case *sqlast.Reindex:
		s.cov.Hit("exec.reindex")
		if st.Name == "" {
			// The composite-rebuild panic fault fires before any rebuild
			// starts, leaving every index exactly as the statement found
			// it (consistent, possibly still stale — REINDEX simply never
			// happened).
			if f := s.faultSet().PanicRebuild(); f != nil && s.storeHasCompositeIndex() {
				s.trigger(f)
				panic("engine: composite index rebuild overran the key arena")
			}
			for _, name := range s.store.tableNames() {
				s.rebuildIndexes(s.store.table(name))
			}
			return nil, nil
		}
		ix := s.store.index(st.Name)
		if ix == nil {
			return nil, errf(ErrSemantic, "no such index %q", st.Name)
		}
		if f := s.faultSet().PanicRebuild(); f != nil && len(ix.Columns) >= 2 {
			s.trigger(f)
			panic("engine: composite index rebuild overran the key arena")
		}
		// buildIndex re-derives every entry from the table's visible rows
		// and resets staleness: REINDEX is the repair for the stale-index
		// fault path.
		s.buildIndex(s.store.table(ix.Table), ix)
		return nil, nil
	case *sqlast.Analyze:
		s.cov.Hit("exec.analyze")
		if st.Table != "" {
			t := s.store.table(st.Table)
			if t == nil {
				return nil, errf(ErrSemantic, "no such table %q", st.Table)
			}
			t.Analyzed = true
			return nil, nil
		}
		for _, t := range s.store.tables {
			t.Analyzed = true
		}
		return nil, nil
	case *sqlast.Refresh:
		s.cov.Hit("exec.refresh")
		t := s.store.table(st.Table)
		if t == nil {
			return nil, errf(ErrSemantic, "no such table %q", st.Table)
		}
		t.Rows = append(t.Rows, t.Pending...)
		if len(t.indexes) > 0 {
			s.indexInsertRows(t, t.Pending)
		}
		t.Pending = nil
		return nil, nil
	default:
		return nil, errf(ErrSemantic, "unhandled statement kind")
	}
}

func (s *DB) execCreateTable(st *sqlast.CreateTable) error {
	s.cov.Hit("exec.createtable")
	if s.store.relationExists(st.Name) {
		if st.IfNotExists {
			return nil
		}
		return errf(ErrSemantic, "table or view %q already exists", st.Name)
	}
	cols := make([]Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = Column{
			Name:       c.Name,
			Type:       c.Type,
			NotNull:    c.NotNull || c.PrimaryKey,
			Unique:     c.Unique,
			PrimaryKey: c.PrimaryKey,
		}
	}
	s.store.tables[key(st.Name)] = &Table{Name: st.Name, Columns: cols}
	return nil
}

func (s *DB) execCreateIndex(st *sqlast.CreateIndex) error {
	s.cov.Hit("exec.createindex")
	if s.store.index(st.Name) != nil {
		return errf(ErrSemantic, "index %q already exists", st.Name)
	}
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	// The composite-rebuild panic fault fires before the index attaches:
	// a recovered instance must hold either the whole index or none of
	// it, never an attached-but-empty shell that probes would trust.
	if f := s.faultSet().PanicRebuild(); f != nil && len(st.Columns) >= 2 {
		s.trigger(f)
		panic("engine: composite index rebuild overran the key arena")
	}
	ix := &Index{
		Name:    st.Name,
		Table:   t.Name,
		Columns: append([]string(nil), st.Columns...),
		Unique:  st.Unique,
		Where:   st.Where,
	}
	if ix.Unique {
		// Enforce uniqueness over existing visible rows.
		seen := map[string]bool{}
		for _, row := range t.Rows {
			covered, keyStr, err := s.indexEntry(t, ix, row)
			if err != nil {
				return err
			}
			if !covered || keyStr == "" {
				continue
			}
			if seen[keyStr] {
				return errf(ErrConstraint, "cannot create unique index %q: duplicate key", st.Name)
			}
			seen[keyStr] = true
		}
	}
	s.store.attachIndex(t, ix)
	s.buildIndex(t, ix)
	return nil
}

// indexEntry returns whether a row is covered by a (partial) index and
// its rendered key; an empty key means a NULL participates (no conflict).
func (s *DB) indexEntry(t *Table, ix *Index, row []Value) (bool, string, *Error) {
	if ix.Where != nil {
		env := &rowEnv{rels: []rowRel{tableRowRel(t, row)}}
		tri, err := s.newEvalCtx(env).evalTri(ix.Where)
		if err != nil {
			return false, "", err
		}
		if tri != TriTrue {
			return false, "", nil
		}
	}
	var parts []string
	for _, c := range ix.Columns {
		i := t.ColumnIndex(c)
		if i < 0 {
			return false, "", nil
		}
		v := row[i]
		if v.IsNull() {
			return true, "", nil // NULLs never conflict
		}
		parts = append(parts, v.Render())
	}
	return true, strings.Join(parts, "|"), nil
}

func tableRowRel(t *Table, row []Value) rowRel {
	return rowRel{alias: t.Name, cols: t.colNames(), vals: row}
}

func (s *DB) execCreateView(st *sqlast.CreateView) error {
	s.cov.Hit("exec.createview")
	if s.store.relationExists(st.Name) {
		return errf(ErrSemantic, "table or view %q already exists", st.Name)
	}
	cols, err := s.validateSelect(st.Select, nil)
	if err != nil {
		return err
	}
	s.cov.HitBranch("view.named", len(st.Columns) > 0)
	v := &View{Name: st.Name, Def: st.Select}
	for i, c := range cols {
		name := c.Name
		if i < len(st.Columns) {
			name = st.Columns[i]
		}
		v.Columns = append(v.Columns, name)
		v.Types = append(v.Types, c.Type)
	}
	s.store.views[key(st.Name)] = v
	return nil
}

func (s *DB) execInsert(st *sqlast.Insert) error {
	s.cov.Hit("exec.insert")
	t := s.store.table(st.Table)
	targets, err := insertTargets(t, st.Columns)
	if err != nil {
		return err
	}
	ctx := s.newEvalCtx(&rowEnv{})
	var newRows [][]Value
	for _, exprRow := range st.Rows {
		row := nullRow(len(t.Columns))
		for i, e := range exprRow {
			v, err := ctx.eval(e)
			if err != nil {
				return err
			}
			if s.static() && !v.IsNull() {
				cv, err := ctx.evalCast(v, t.Columns[targets[i]].Type)
				if err != nil {
					return err
				}
				v = cv
			}
			row[targets[i]] = v
		}
		cerr := s.checkRowConstraints(t, row, newRows, -1)
		s.cov.HitBranch("constraint.violation", cerr != nil)
		if cerr != nil {
			if st.OrIgnore {
				s.cov.Hit("exec.insert.ignored")
				continue
			}
			return cerr
		}
		newRows = append(newRows, row)
	}
	s.cov.HitBranch("insert.pending", s.dialect.RequiresRefresh)
	if s.dialect.RequiresRefresh {
		t.Pending = append(t.Pending, newRows...)
	} else {
		t.Rows = append(t.Rows, newRows...)
		if len(t.indexes) > 0 {
			s.indexInsertRows(t, newRows)
		}
	}
	return nil
}

// checkRowConstraints validates NOT NULL, PRIMARY KEY, UNIQUE columns and
// unique indexes for a candidate row. pending holds rows being inserted in
// the same statement; skipRow is the row index being replaced by an
// UPDATE (-1 for inserts).
func (s *DB) checkRowConstraints(t *Table, row []Value, pending [][]Value, skipRow int) *Error {
	var pkCols []int
	for i, c := range t.Columns {
		if c.NotNull && row[i].IsNull() {
			return errf(ErrConstraint, "NOT NULL constraint failed: %s.%s", t.Name, c.Name)
		}
		if c.PrimaryKey {
			pkCols = append(pkCols, i)
		}
	}
	others := make([][]Value, 0, len(t.Rows)+len(t.Pending)+len(pending))
	for i, r := range t.Rows {
		if i == skipRow {
			continue
		}
		others = append(others, r)
	}
	others = append(others, t.Pending...)
	others = append(others, pending...)

	if len(pkCols) > 0 {
		keyOf := func(r []Value) string {
			var parts []string
			for _, i := range pkCols {
				parts = append(parts, r[i].Render())
			}
			return strings.Join(parts, "|")
		}
		k := keyOf(row)
		for _, r := range others {
			if keyOf(r) == k {
				return errf(ErrConstraint, "PRIMARY KEY constraint failed: %s", t.Name)
			}
		}
	}
	for i, c := range t.Columns {
		if !c.Unique || row[i].IsNull() {
			continue
		}
		for _, r := range others {
			if !r[i].IsNull() && nullSafeEqual(r[i], row[i]) {
				return errf(ErrConstraint, "UNIQUE constraint failed: %s.%s", t.Name, c.Name)
			}
		}
	}
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		covered, keyStr, err := s.indexEntry(t, ix, row)
		if err != nil || !covered || keyStr == "" {
			continue
		}
		// UniqueIndexFalseConflict defect: the uniqueness probe of a
		// multi-column unique index compares only the leading key column,
		// so rows that differ in a later column spuriously conflict.
		falseConflict := s.faultSet().UniqueConflict()
		for _, r := range others {
			c2, k2, err := s.indexEntry(t, ix, r)
			if err != nil || !c2 || k2 == "" {
				continue
			}
			if k2 == keyStr {
				return errf(ErrConstraint, "UNIQUE index constraint failed: %s", ix.Name)
			}
			if falseConflict != nil && len(ix.Columns) > 1 &&
				!row[ix.leads[0]].IsNull() && !r[ix.leads[0]].IsNull() &&
				nullSafeEqual(row[ix.leads[0]], r[ix.leads[0]]) {
				s.trigger(falseConflict)
				return errf(ErrInternal,
					"internal error: duplicate key in unique index %s (truncated key comparison)", ix.Name)
			}
		}
	}
	return nil
}

func (s *DB) execUpdate(st *sqlast.Update) error {
	s.cov.Hit("exec.update")
	t := s.store.table(st.Table)
	// Compute the post-image first; apply only if all constraints hold.
	newRows := make([][]Value, len(t.Rows))
	updated := make([]bool, len(t.Rows))
	env := &rowEnv{rels: []rowRel{tableRowRel(t, nil)}}
	ctx := s.newEvalCtx(env)
	var conjs []sqlast.Expr
	if st.Where != nil {
		conjs = splitAnd(st.Where, nil)
	}
	// Index-assisted mutation set: the clean composite span over the WHERE
	// conjuncts, snapshotted as a row-identity set before any mutation
	// rewrites the ordered store. Rows outside it cannot satisfy the probe
	// conjunct, so the WHERE loop — and the cost it charges — covers only
	// the rows actually probed.
	cand, planned := s.planDMLAccess(t, conjs)
	s.cov.HitBranch("dml.index", planned)
	fp := s.buildFilterPlan(conjs, env)
	for ri, row := range t.Rows {
		if planned && (len(row) == 0 || !cand[&row[0]]) {
			newRows[ri] = row
			continue
		}
		env.rels[0].vals = row
		if st.Where != nil {
			pass, err := s.dmlWhere(&fp, ctx)
			if err != nil {
				return err
			}
			if !pass {
				newRows[ri] = row
				continue
			}
		}
		nr := append([]Value(nil), row...)
		for _, a := range st.Sets {
			v, err := ctx.eval(a.Value)
			if err != nil {
				return err
			}
			idx := t.ColumnIndex(a.Column)
			if s.static() && !v.IsNull() {
				cv, err := ctx.evalCast(v, t.Columns[idx].Type)
				if err != nil {
					return err
				}
				v = cv
			}
			nr[idx] = v
		}
		newRows[ri] = nr
		updated[ri] = true
	}
	// Constraint validation of the post-image.
	saved := t.Rows
	t.Rows = newRows
	for ri, up := range updated {
		if !up {
			continue
		}
		if err := s.checkRowConstraints(t, newRows[ri], nil, ri); err != nil {
			t.Rows = saved
			return err
		}
	}
	// Index maintenance: swap entries of the updated rows. The
	// StaleIndexAfterUpdate defect skips this step, leaving the old
	// entries behind (triggered at probe time, when observable).
	if len(t.indexes) > 0 {
		skip := s.faultSet().StaleIndex() != nil
		for ri, up := range updated {
			if up {
				s.indexUpdateRow(t, saved[ri], newRows[ri], skip)
			}
		}
	}
	return nil
}

func (s *DB) execDelete(st *sqlast.Delete) error {
	s.cov.Hit("exec.delete")
	t := s.store.table(st.Table)
	if st.Where == nil {
		t.Rows = nil // unconditional DELETE removes everything
		indexClear(t)
		return nil
	}
	var kept, removed [][]Value
	env := &rowEnv{rels: []rowRel{tableRowRel(t, nil)}}
	ctx := s.newEvalCtx(env)
	conjs := splitAnd(st.Where, nil)
	// Index-assisted mutation set, snapshotted before the store mutates
	// (see execUpdate): rows outside the clean span cannot match the WHERE
	// and are kept without touching them.
	cand, planned := s.planDMLAccess(t, conjs)
	s.cov.HitBranch("dml.index", planned)
	fp := s.buildFilterPlan(conjs, env)
	for _, row := range t.Rows {
		if planned && (len(row) == 0 || !cand[&row[0]]) {
			kept = append(kept, row)
			continue
		}
		env.rels[0].vals = row
		pass, err := s.dmlWhere(&fp, ctx)
		if err != nil {
			return err
		}
		if pass {
			if len(t.indexes) > 0 {
				removed = append(removed, row)
			}
			continue
		}
		kept = append(kept, row)
	}
	t.Rows = kept
	for _, row := range removed {
		s.indexRemoveRow(t, row)
	}
	return nil
}

func (s *DB) execAlter(st *sqlast.AlterTable) error {
	s.cov.Hit("exec.alter")
	t := s.store.table(st.Table)
	if t == nil {
		return errf(ErrSemantic, "no such table %q", st.Table)
	}
	if st.AddColumn != nil {
		if t.ColumnIndex(st.AddColumn.Name) >= 0 {
			return errf(ErrSemantic, "column %q already exists", st.AddColumn.Name)
		}
		if st.AddColumn.NotNull && (len(t.Rows) > 0 || len(t.Pending) > 0) {
			return errf(ErrConstraint, "cannot add NOT NULL column %q to a non-empty table", st.AddColumn.Name)
		}
		t.Columns = append(t.Columns, Column{
			Name:    st.AddColumn.Name,
			Type:    st.AddColumn.Type,
			NotNull: st.AddColumn.NotNull,
			Unique:  st.AddColumn.Unique,
		})
		t.names = nil
		for i := range t.Rows {
			t.Rows[i] = append(t.Rows[i], Null())
		}
		for i := range t.Pending {
			t.Pending[i] = append(t.Pending[i], Null())
		}
		s.rebuildIndexes(t)
		return nil
	}
	idx := t.ColumnIndex(st.DropColumn)
	if idx < 0 {
		return errf(ErrSemantic, "no such column %q", st.DropColumn)
	}
	if len(t.Columns) == 1 {
		return errf(ErrSemantic, "cannot drop the only column of %q", t.Name)
	}
	for _, ix := range t.indexes {
		for _, c := range ix.Columns {
			if strings.EqualFold(c, st.DropColumn) {
				return errf(ErrSemantic, "cannot drop column %q: used by index %q", st.DropColumn, ix.Name)
			}
		}
	}
	t.Columns = append(t.Columns[:idx], t.Columns[idx+1:]...)
	t.names = nil
	for i := range t.Rows {
		t.Rows[i] = append(t.Rows[i][:idx], t.Rows[i][idx+1:]...)
	}
	for i := range t.Pending {
		t.Pending[i] = append(t.Pending[i][:idx], t.Pending[i][idx+1:]...)
	}
	s.rebuildIndexes(t)
	return nil
}

// storeHasCompositeIndex reports whether any table carries a
// multi-column index (the bare-REINDEX panic-fault precondition).
func (s *DB) storeHasCompositeIndex() bool {
	for _, name := range s.store.tableNames() {
		for _, ix := range s.store.table(name).indexes {
			if len(ix.Columns) >= 2 {
				return true
			}
		}
	}
	return false
}

// rebuildIndexes rebuilds every index on a table after a schema change:
// ALTER TABLE shifts column positions and re-slices rows in place, so
// both the lead position and the row identities must be recaptured.
func (s *DB) rebuildIndexes(t *Table) {
	for _, ix := range t.indexes {
		s.buildIndex(t, ix)
	}
}
