package gen

import (
	"fmt"
	"strings"

	"sqlancerpp/internal/core/schema"
	"sqlancerpp/internal/feature"
	"sqlancerpp/internal/sqlast"
)

// finish packages a generated statement.
func (g *Generator) finish(stmt sqlast.Stmt, fs *feature.Set, isQuery bool, onSuccess func()) *Statement {
	g.generated++
	return &Statement{
		Stmt:       stmt,
		SQL:        stmt.SQL(),
		Features:   fs.Names(),
		FeatureSet: *fs,
		IsQuery:    isQuery,
		OnSuccess:  onSuccess,
	}
}

// GenSetup produces one database-state statement (DDL or DML), honoring
// the paper's standard settings (up to MaxTables tables and MaxViews
// views).
func (g *Generator) GenSetup() *Statement {
	tables := g.model.Tables()
	views := g.model.Views()

	var alts []feature.ID
	if len(tables) < g.cfg.MaxTables {
		alts = append(alts, feature.StmtCreateTableID, feature.StmtCreateTableID)
	}
	if len(tables) > 0 {
		// CREATE INDEX weighs double so database states regularly carry
		// indexes: the engine's access-path planner only diverges from a
		// full scan — and the index-maintenance fault sites only fire —
		// on indexed states.
		alts = append(alts, feature.StmtInsertID, feature.StmtInsertID,
			feature.StmtInsertID, feature.StmtInsertID,
			feature.StmtCreateIndexID, feature.StmtCreateIndexID,
			feature.StmtUpdateID, feature.StmtDeleteID,
			feature.StmtAnalyzeID, feature.StmtAlterTableID)
		if len(views) < g.cfg.MaxViews {
			alts = append(alts, feature.StmtCreateViewID)
		}
		if len(g.model.Indexes()) > 0 {
			// DROP INDEX tears the ordered store down; REINDEX rebuilds it
			// from the visible rows (the natural repair for the
			// stale-index fault path).
			alts = append(alts, feature.StmtDropIndexID, feature.StmtReindexID)
		}
	}
	if len(alts) == 0 {
		alts = []feature.ID{feature.StmtCreateTableID}
	}
	switch g.pickFeature(alts) {
	case feature.StmtCreateTableID:
		return g.genCreateTable()
	case feature.StmtCreateIndexID:
		return g.genCreateIndex()
	case feature.StmtCreateViewID:
		return g.genCreateView()
	case feature.StmtInsertID:
		return g.genInsert()
	case feature.StmtUpdateID:
		return g.genUpdate()
	case feature.StmtDeleteID:
		return g.genDelete()
	case feature.StmtAnalyzeID:
		return g.genAnalyze()
	case feature.StmtAlterTableID:
		return g.genAlter()
	case feature.StmtDropIndexID:
		return g.genDropIndex()
	case feature.StmtReindexID:
		return g.genReindex()
	default:
		return g.genCreateTable()
	}
}

// columnTypeFeatures lists the data-type features in generation order.
var columnTypes = []feature.ID{feature.TypeIntegerID, feature.TypeTextID, feature.TypeBooleanID}

func (g *Generator) pickColumnType(fs *feature.Set) sqlast.Type {
	tf := g.pickFeature(columnTypes)
	fs.Add(tf)
	switch tf {
	case feature.TypeTextID:
		return sqlast.TypeText
	case feature.TypeBooleanID:
		return sqlast.TypeBool
	default:
		return sqlast.TypeInt
	}
}

func (g *Generator) genCreateTable() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtCreateTableID)
	name := g.model.FreeTableName()
	n := 1 + g.intn(4)
	ct := &sqlast.CreateTable{Name: name}
	pkDone := false
	for i := 0; i < n; i++ {
		col := sqlast.ColumnDef{Name: fmt.Sprintf("c%d", i), Type: g.pickColumnType(fs)}
		if !pkDone && g.prob(0.3) && g.supported(feature.PrimaryKeyID) {
			col.PrimaryKey = true
			pkDone = true
			fs.Add(feature.PrimaryKeyID)
		} else {
			if g.prob(0.2) && g.supported(feature.NotNullColumnID) {
				col.NotNull = true
				fs.Add(feature.NotNullColumnID)
			}
			if g.prob(0.15) && g.supported(feature.UniqueColumnID) {
				col.Unique = true
				fs.Add(feature.UniqueColumnID)
			}
		}
		ct.Columns = append(ct.Columns, col)
	}
	return g.finish(ct, fs, false, func() { g.model.Apply(ct) })
}

func (g *Generator) randTable() *schema.Relation {
	tables := g.model.Tables()
	return tables[g.intn(len(tables))]
}

// tableScope exposes one table's columns for expression generation.
func (g *Generator) tableScope(t *schema.Relation) *exprScope {
	sc := &exprScope{gen: g}
	for _, c := range t.Columns {
		sc.cols = append(sc.cols, scopeCol{Table: t.Name, Column: c.Name, Type: typOf(c.Type)})
	}
	return sc
}

func (g *Generator) genCreateIndex() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtCreateIndexID)
	t := g.randTable()
	ci := &sqlast.CreateIndex{Name: g.model.FreeIndexName(), Table: t.Name}
	// Composite width: roughly half the indexes stay single-column (the
	// planner's bread and butter must not starve); the rest span two or
	// three columns, gated on the learned COMPOSITE INDEX clause feature
	// and the per-width CREATE INDEX#n feature, through which dialect
	// column-count limits feed back.
	n := 1
	if len(t.Columns) > 1 && g.supported(feature.CompositeIndexID) && g.prob(0.5) {
		n = 2
		if len(t.Columns) > 2 && g.prob(0.35) && g.supported(feature.IndexWidthID(3)) {
			n = 3
		}
	}
	perm := g.rnd.Perm(len(t.Columns))
	for i := 0; i < n && i < len(perm); i++ {
		ci.Columns = append(ci.Columns, t.Columns[perm[i]].Name)
	}
	if len(ci.Columns) > 1 {
		fs.Add(feature.CompositeIndexID)
		fs.Add(feature.IndexWidthID(len(ci.Columns)))
	}
	if g.prob(0.3) && g.supported(feature.UniqueIndexID) {
		ci.Unique = true
		fs.Add(feature.UniqueIndexID)
	}
	if g.prob(0.3) && g.supported(feature.PartialIndexID) {
		ci.Where = g.genBool(g.tableScope(t), 1, fs)
		fs.Add(feature.PartialIndexID)
	}
	return g.finish(ci, fs, false, func() { g.model.Apply(ci) })
}

func (g *Generator) genCreateView() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtCreateViewID)
	t := g.randTable()
	sc := g.tableScope(t)
	name := g.model.FreeViewName()
	n := 1 + g.intn(2)
	sel := &sqlast.Select{From: []sqlast.FromItem{{Ref: &sqlast.TableName{Name: t.Name}}}}
	var cols []schema.Column
	depth := g.depth()
	for i := 0; i < n; i++ {
		want := typ(g.intn(3))
		if want == tBool && !g.supported(feature.TypeBooleanID) {
			want = tInt
		}
		alias := fmt.Sprintf("x%d", i)
		sel.Items = append(sel.Items, sqlast.SelectItem{
			Expr:  g.genExpr(sc, want, depth-1, fs),
			Alias: alias,
		})
		cols = append(cols, schema.Column{Name: alias, Type: want.astType()})
	}
	if g.prob(0.4) {
		sel.Where = g.genBool(sc, depth-1, fs)
		fs.Add(feature.ClauseWhereID)
	}
	cv := &sqlast.CreateView{Name: name, Select: sel}
	if g.prob(0.5) && g.supported(feature.ViewColumnNamesID) {
		fs.Add(feature.ViewColumnNamesID)
		for _, c := range cols {
			cv.Columns = append(cv.Columns, c.Name)
		}
	}
	return g.finish(cv, fs, false, func() { g.model.ApplyView(name, cols) })
}

func (g *Generator) genInsert() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtInsertID)
	t := g.randTable()
	ins := &sqlast.Insert{Table: t.Name}
	var targets []schema.Column
	for _, c := range t.Columns {
		if c.NotNull || c.PrimaryKey || g.prob(0.75) {
			ins.Columns = append(ins.Columns, c.Name)
			targets = append(targets, c)
		}
	}
	if len(targets) == 0 {
		ins.Columns = []string{t.Columns[0].Name}
		targets = []schema.Column{t.Columns[0]}
	}
	nRows := 1
	if g.prob(0.4) && g.supported(feature.InsertMultiRowID) {
		nRows += 1 + g.intn(2)
		fs.Add(feature.InsertMultiRowID)
	}
	for r := 0; r < nRows; r++ {
		var row []sqlast.Expr
		for _, c := range targets {
			if !c.NotNull && !c.PrimaryKey && g.prob(0.12) {
				row = append(row, sqlast.Null())
				continue
			}
			want := typOf(c.Type)
			if g.prob(g.cfg.MismatchProb) && g.supported(feature.PropImplicitCastID) {
				want = typ(g.intn(3))
				fs.Add(feature.PropImplicitCastID)
			}
			// PRIMARY KEY columns draw from a wider pool to reduce
			// constraint collisions.
			if c.PrimaryKey && want == tInt {
				row = append(row, sqlast.IntLit(int64(g.intn(1000))))
				continue
			}
			row = append(row, g.genConst(want, fs))
		}
		ins.Rows = append(ins.Rows, row)
	}
	if g.prob(0.25) && g.supported(feature.InsertOrIgnoreID) {
		ins.OrIgnore = true
		fs.Add(feature.InsertOrIgnoreID)
	}
	return g.finish(ins, fs, false, func() { g.model.Apply(ins) })
}

func (g *Generator) genUpdate() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtUpdateID)
	t := g.randTable()
	sc := g.tableScope(t)
	up := &sqlast.Update{Table: t.Name}
	n := 1 + g.intn(2)
	perm := g.rnd.Perm(len(t.Columns))
	depth := g.depth()
	for i := 0; i < n && i < len(perm); i++ {
		c := t.Columns[perm[i]]
		up.Sets = append(up.Sets, sqlast.Assignment{
			Column: c.Name,
			Value:  g.genExpr(sc, typOf(c.Type), depth-1, fs),
		})
	}
	if g.prob(0.7) {
		up.Where = g.genBool(sc, depth-1, fs)
		// An index-shaped head exercises the index-assisted UPDATE path
		// (the mutation set collected through a composite span); the
		// random tail stays, feeding the validity feedback.
		if g.prob(0.4) && g.supported(feature.OpAndID) {
			if sp := g.genSargablePred(sc, fs); sp != nil {
				fs.Add(feature.OpAndID)
				up.Where = &sqlast.Binary{Op: sqlast.OpAnd, L: sp, R: up.Where}
			}
		}
		fs.Add(feature.ClauseWhereID)
	}
	return g.finish(up, fs, false, nil)
}

func (g *Generator) genDelete() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtDeleteID)
	t := g.randTable()
	del := &sqlast.Delete{Table: t.Name}
	if g.prob(0.85) {
		sc := g.tableScope(t)
		del.Where = g.genBool(sc, g.depth()-1, fs)
		// An index-shaped head exercises the index-assisted DELETE path;
		// the random tail stays, feeding the validity feedback.
		if g.prob(0.4) && g.supported(feature.OpAndID) {
			if sp := g.genSargablePred(sc, fs); sp != nil {
				fs.Add(feature.OpAndID)
				del.Where = &sqlast.Binary{Op: sqlast.OpAnd, L: sp, R: del.Where}
			}
		}
		fs.Add(feature.ClauseWhereID)
	}
	stmt := del
	return g.finish(stmt, fs, false, func() { g.model.Apply(stmt) })
}

func (g *Generator) genAnalyze() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtAnalyzeID)
	a := &sqlast.Analyze{}
	if g.prob(0.5) {
		a.Table = g.randTable().Name
	}
	return g.finish(a, fs, false, nil)
}

func (g *Generator) genAlter() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtAlterTableID)
	t := g.randTable()
	at := &sqlast.AlterTable{Table: t.Name}
	if len(t.Columns) > 1 && g.prob(0.4) {
		at.DropColumn = t.Columns[g.intn(len(t.Columns))].Name
	} else {
		at.AddColumn = &sqlast.ColumnDef{
			Name: g.model.FreeColumnName(t),
			Type: g.pickColumnType(fs),
		}
	}
	return g.finish(at, fs, false, func() { g.model.Apply(at) })
}

func (g *Generator) genDropIndex() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtDropIndexID)
	ixs := g.model.Indexes()
	ix := ixs[g.intn(len(ixs))]
	di := &sqlast.DropIndex{Name: ix.Name}
	return g.finish(di, fs, false, func() { g.model.Apply(di) })
}

func (g *Generator) genReindex() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtReindexID)
	ixs := g.model.Indexes()
	ri := &sqlast.Reindex{}
	// Mostly target one index; occasionally rebuild everything.
	if !g.prob(0.15) {
		ri.Name = ixs[g.intn(len(ixs))].Name
	}
	return g.finish(ri, fs, false, nil)
}

// rangeOps are the trailing-range operator spellings of a sargable
// conjunction.
var rangeOps = []feature.ID{feature.OpLtID, feature.OpLeID, feature.OpGtID, feature.OpGeID}

// genSargablePred builds an index-shaped predicate over a modeled index
// whose table is in scope under its own name: an equality run over the
// index's leading columns plus (usually) a range on the next — the
// multi-conjunct WHERE shape planIndexAccess compiles into one composite
// span, and the only shape the composite fault sites fire on. Returns
// nil when no index matches the scope (or the dialect lacks "=").
func (g *Generator) genSargablePred(sc *exprScope, fs *feature.Set) sqlast.Expr {
	if !g.supported(feature.OpEqID) {
		return nil
	}
	var cands []*schema.Index
	for _, ix := range g.model.Indexes() {
		for _, c := range sc.cols {
			if strings.EqualFold(c.Table, ix.Table) {
				cands = append(cands, ix)
				break
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	ix := cands[g.intn(len(cands))]
	rel := g.model.Relation(ix.Table)
	if rel == nil {
		return nil
	}
	var pred sqlast.Expr
	nConj := 0
	and := func(e sqlast.Expr) {
		if pred == nil {
			pred = e
		} else {
			fs.Add(feature.OpAndID)
			pred = &sqlast.Binary{Op: sqlast.OpAnd, L: pred, R: e}
		}
	}
	conj := func(op feature.ID, c *schema.Column) {
		fs.Add(op)
		fs.Add(feature.ExprColumnID)
		fs.Add(feature.ExprConstantID)
		nConj++
		and(&sqlast.Binary{Op: cmpOpOf(op),
			L: &sqlast.ColumnRef{Table: ix.Table, Column: c.Name},
			R: g.genConst(typOf(c.Type), fs)})
	}
	eqn := 1 + g.intn(len(ix.Columns))
	for i := 0; i < eqn; i++ {
		c := rel.Column(ix.Columns[i])
		if c == nil {
			return g.noteSargableHead(pred, nConj)
		}
		conj(feature.OpEqID, c)
	}
	if eqn < len(ix.Columns) && g.prob(0.75) {
		if c := rel.Column(ix.Columns[eqn]); c != nil {
			var ops []feature.ID
			for _, op := range rangeOps {
				if g.supported(op) {
					ops = append(ops, op)
				}
			}
			if len(ops) > 0 {
				conj(ops[g.intn(len(ops))], c)
			}
		}
	}
	return g.noteSargableHead(pred, nConj)
}

// noteSargableHead records a generated sargable head in the plan-space
// counters (nConj key conjuncts; nil predicates count nothing).
func (g *Generator) noteSargableHead(pred sqlast.Expr, nConj int) sqlast.Expr {
	if pred != nil {
		g.planSpace.SargableHeads++
		if nConj >= 2 {
			g.planSpace.CompositeHeads++
		}
	}
	return pred
}

// GenRefresh produces the REFRESH TABLE statement dialect adapters issue
// after inserts (paper §6, CrateDB).
func (g *Generator) GenRefresh(table string) *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtRefreshID)
	return g.finish(&sqlast.Refresh{Table: table}, fs, false, nil)
}

// queryScope builds the FROM clause of a query: relations with join
// types, plus the visible column scope.
func (g *Generator) queryScope(fs *feature.Set, forOracle bool) ([]sqlast.FromItem, *exprScope) {
	rels := g.model.Relations()
	if len(rels) == 0 {
		return nil, nil
	}
	n := 1
	if len(rels) > 1 && g.prob(0.55) {
		n = 2
	}
	if len(rels) > 2 && g.prob(0.2) {
		n = 3
	}
	sc := &exprScope{gen: g}
	var from []sqlast.FromItem
	used := map[string]int{}
	for i := 0; i < n; i++ {
		r := rels[g.intn(len(rels))]
		alias := r.Name
		if used[r.Name] > 0 {
			alias = fmt.Sprintf("a%d", i)
		}
		used[r.Name]++
		var ref sqlast.TableRef
		if forOracle && g.prob(0.12) && g.supported(feature.DerivedTableID) && !r.IsView {
			// Derived table: (SELECT * FROM r) AS subN.
			alias = fmt.Sprintf("sub%d", i)
			ref = &sqlast.DerivedTable{
				Select: &sqlast.Select{
					Items: []sqlast.SelectItem{{Star: true}},
					From:  []sqlast.FromItem{{Ref: &sqlast.TableName{Name: r.Name}}},
				},
				Alias: alias,
			}
			fs.Add(feature.DerivedTableID)
		} else {
			tn := &sqlast.TableName{Name: r.Name}
			if alias != r.Name {
				tn.Alias = alias
			}
			ref = tn
		}
		item := sqlast.FromItem{Ref: ref}
		if i > 0 {
			jf := g.pickFeature(feature.JoinIDs)
			fs.Add(jf)
			item.Join = joinTypeOf(jf)
			if item.Join != sqlast.JoinComma && item.Join != sqlast.JoinCross &&
				item.Join != sqlast.JoinNatural {
				// ON over the columns visible so far plus the new ones.
				onScope := &exprScope{gen: g, cols: append([]scopeCol{}, sc.cols...)}
				for _, c := range r.Columns {
					onScope.cols = append(onScope.cols, scopeCol{Table: alias, Column: c.Name, Type: typOf(c.Type)})
				}
				// Half the time, lead the ON condition with a plain,
				// type-aligned equality between an earlier relation's
				// column and one of the new relation's — the probe-eligible
				// shape the engine's index-nested-loop join planner
				// accelerates (and the only shape its fault sites fire on).
				eq := sqlast.Expr(nil)
				if g.prob(0.5) && g.supported(feature.OpEqID) {
					eq = g.genJoinEq(sc, r, alias, fs)
					if eq != nil {
						g.planSpace.ProbeEligibleJoins++
					}
					// A second equality key makes the ON multi-conjunct —
					// the shape the composite join probe binds as a
					// two-column equality prefix.
					if eq != nil && g.prob(0.35) && g.supported(feature.OpAndID) {
						if eq2 := g.genJoinEq(sc, r, alias, fs); eq2 != nil {
							fs.Add(feature.OpAndID)
							g.planSpace.MultiKeyJoins++
							eq = &sqlast.Binary{Op: sqlast.OpAnd, L: eq, R: eq2}
						}
					}
				}
				switch {
				case eq == nil:
					item.On = g.genBool(onScope, 1, fs)
				case g.prob(0.45) && g.supported(feature.OpAndID):
					fs.Add(feature.OpAndID)
					item.On = &sqlast.Binary{Op: sqlast.OpAnd, L: eq,
						R: g.genBool(onScope, 1, fs)}
				default:
					item.On = eq
				}
			}
		}
		from = append(from, item)
		for _, c := range r.Columns {
			sc.cols = append(sc.cols, scopeCol{Table: alias, Column: c.Name, Type: typOf(c.Type)})
		}
	}
	return from, sc
}

// genJoinEq builds a probe-eligible ON equality: a column already in
// scope compared to a same-typed column of the relation being joined
// (type alignment keeps the conjunct valid on statically typed
// dialects). Returns nil when no type-aligned pair exists.
func (g *Generator) genJoinEq(sc *exprScope, r *schema.Relation, alias string, fs *feature.Set) sqlast.Expr {
	if len(sc.cols) == 0 || len(r.Columns) == 0 {
		return nil
	}
	lc := sc.cols[g.intn(len(sc.cols))]
	var rcs []schema.Column
	for _, c := range r.Columns {
		if typOf(c.Type) == lc.Type {
			rcs = append(rcs, c)
		}
	}
	if len(rcs) == 0 {
		return nil
	}
	rc := rcs[g.intn(len(rcs))]
	fs.Add(feature.OpEqID)
	fs.Add(feature.ExprColumnID)
	return &sqlast.Binary{Op: sqlast.OpEq,
		L: &sqlast.ColumnRef{Table: lc.Table, Column: lc.Column},
		R: &sqlast.ColumnRef{Table: alias, Column: rc.Name},
	}
}

func joinTypeOf(f feature.ID) sqlast.JoinType {
	switch f {
	case feature.JoinCommaID:
		return sqlast.JoinComma
	case feature.JoinInnerID:
		return sqlast.JoinInner
	case feature.JoinLeftID:
		return sqlast.JoinLeft
	case feature.JoinRightID:
		return sqlast.JoinRight
	case feature.JoinFullID:
		return sqlast.JoinFull
	case feature.JoinCrossID:
		return sqlast.JoinCross
	default:
		return sqlast.JoinNatural
	}
}

// GenCompoundQuery produces a compound (set-operation) smoke query: two
// or three simple cores with matching projection types joined by set
// operators. Returns nil when the model has no tables.
func (g *Generator) GenCompoundQuery() *Statement {
	tables := g.model.Tables()
	if len(tables) == 0 {
		return nil
	}
	fs := &feature.Set{}
	fs.Add(feature.StmtSelectID)
	nCols := 1 + g.intn(2)
	types := make([]typ, nCols)
	for i := range types {
		types[i] = typ(g.intn(2)) // INT or TEXT keeps arms unifiable
	}
	core := func() *sqlast.Select {
		t := tables[g.intn(len(tables))]
		sc := g.tableScope(t)
		sel := &sqlast.Select{From: []sqlast.FromItem{{Ref: &sqlast.TableName{Name: t.Name}}}}
		for _, want := range types {
			sel.Items = append(sel.Items, sqlast.SelectItem{
				Expr: g.genExpr(sc, want, g.depth()-1, fs),
			})
		}
		if g.prob(0.4) {
			sel.Where = g.genBool(sc, g.depth()-1, fs)
			fs.Add(feature.ClauseWhereID)
		}
		return sel
	}
	sel := core()
	nArms := 1 + g.intn(2)
	ops := []feature.ID{feature.UnionID, feature.UnionAllID, feature.UnionAllID, feature.IntersectID, feature.ExceptID}
	for i := 0; i < nArms; i++ {
		opFeat := g.pickFeature(ops)
		fs.Add(opFeat)
		sel.Compound = append(sel.Compound, sqlast.CompoundPart{
			Op: setOpOf(opFeat), Select: core(),
		})
	}
	return g.finish(sel, fs, true, nil)
}

func setOpOf(f feature.ID) sqlast.SetOp {
	switch f {
	case feature.UnionID:
		return sqlast.SetUnion
	case feature.UnionAllID:
		return sqlast.SetUnionAll
	case feature.IntersectID:
		return sqlast.SetIntersect
	default:
		return sqlast.SetExcept
	}
}

// GenQuery produces a free-form query exercising the full clause grammar
// (used for feedback probing and coverage; not oracle-checked).
func (g *Generator) GenQuery() *Statement {
	fs := &feature.Set{}
	fs.Add(feature.StmtSelectID)
	from, sc := g.queryScope(fs, false)
	if sc == nil {
		sc = &exprScope{gen: g}
	}
	depth := g.depth()
	sel := &sqlast.Select{From: from}
	nItems := 1 + g.intn(2)
	useAggr := len(from) > 0 && g.prob(0.18)
	for i := 0; i < nItems; i++ {
		if useAggr {
			agg := g.pickFeature(feature.AggregateIDs)
			fs.Add(agg)
			fs.Add(feature.ExprAggrID)
			call := &sqlast.Func{Name: feature.Name(agg)}
			if agg == feature.FnCOUNT && g.prob(0.5) {
				call.Star = true
			} else {
				call.Args = []sqlast.Expr{g.genExpr(sc, tInt, depth-1, fs)}
				if g.prob(0.2) && g.supported(feature.DistinctID) {
					call.Distinct = true
					fs.Add(feature.DistinctID)
				}
			}
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: call})
			continue
		}
		if len(from) > 0 && g.prob(0.25) && i == 0 {
			sel.Items = append(sel.Items, sqlast.SelectItem{Star: true})
			continue
		}
		sel.Items = append(sel.Items, sqlast.SelectItem{Expr: g.genExpr(sc, typ(g.intn(3)), depth-1, fs)})
	}
	if len(from) > 0 && g.prob(0.6) {
		sel.Where = g.genBool(sc, depth, fs)
		fs.Add(feature.ClauseWhereID)
	}
	if useAggr && g.prob(0.4) && g.supported(feature.GroupByID) {
		fs.Add(feature.GroupByID)
		sel.GroupBy = []sqlast.Expr{g.genExpr(sc, typ(g.intn(3)), 0, fs)}
		if g.prob(0.4) && g.supported(feature.HavingID) {
			fs.Add(feature.HavingID)
			sel.Having = g.genBool(sc, 1, fs)
		}
	}
	if g.prob(0.25) && g.supported(feature.DistinctID) && !useAggr {
		sel.Distinct = true
		fs.Add(feature.DistinctID)
	}
	if g.prob(0.3) && g.supported(feature.OrderByID) && !useAggr {
		fs.Add(feature.OrderByID)
		sel.OrderBy = []sqlast.OrderItem{{Expr: g.genExpr(sc, typ(g.intn(3)), 1, fs), Desc: g.prob(0.5)}}
	}
	if g.prob(0.25) && g.supported(feature.LimitID) {
		fs.Add(feature.LimitID)
		lim := int64(g.intn(10))
		sel.Limit = &lim
		if g.prob(0.3) && g.supported(feature.OffsetID) {
			fs.Add(feature.OffsetID)
			off := int64(g.intn(3))
			sel.Offset = &off
		}
	}
	return g.finish(sel, fs, true, nil)
}

// GenOracleCase produces a base query (no WHERE, no aggregates, no
// DISTINCT/ORDER/LIMIT — the shape the TLP partitioning property needs)
// plus a predicate. Returns nil when the model has no relations yet.
func (g *Generator) GenOracleCase() *OracleCase {
	fs := &feature.Set{}
	fs.Add(feature.StmtSelectID)
	from, sc := g.queryScope(fs, true)
	if from == nil || len(sc.cols) == 0 {
		return nil
	}
	depth := g.depth()
	sel := &sqlast.Select{From: from}
	if g.prob(0.6) {
		sel.Items = []sqlast.SelectItem{{Star: true}}
	} else {
		n := 1 + g.intn(2)
		for i := 0; i < n; i++ {
			c := sc.cols[g.intn(len(sc.cols))]
			sel.Items = append(sel.Items, sqlast.SelectItem{
				Expr: &sqlast.ColumnRef{Table: c.Table, Column: c.Column},
			})
		}
	}
	pred := g.genBool(sc, depth, fs)
	// A third of the predicates lead with an index-shaped sargable
	// conjunction, so composite spans (and their fault sites) see steady
	// oracle traffic. The free-form predicate usually rides along as the
	// tail — replacing it every time would starve the validity feedback
	// of the failure signals (unsupported operators inside random
	// predicates) the Bayesian tracker learns from — but about a third
	// of the sargable cases drop it, giving the span fault sites
	// unmasked, fully index-shaped filters.
	if g.prob(0.33) {
		if sp := g.genSargablePred(sc, fs); sp != nil {
			if g.prob(0.65) && g.supported(feature.OpAndID) {
				fs.Add(feature.OpAndID)
				pred = &sqlast.Binary{Op: sqlast.OpAnd, L: sp, R: pred}
			} else {
				pred = sp
			}
		}
	}
	g.generated++
	return &OracleCase{Base: sel, Pred: pred, Features: fs.Names(), FeatureSet: *fs}
}
