// Package oracle implements the DBMS-agnostic test oracles SQLancer++
// applies (paper §3, "Result validator"): Ternary Logic Partitioning
// (TLP, with its UNION-ALL-composed and aggregate variants),
// Non-optimizing Reference Engine Construction (NoREC), and a DQP-style
// plan-diffing oracle (PlanDiff). All detect logic bugs by executing two
// (or more) semantically equivalent queries — or the same query under
// two plans — and comparing their results.
//
// Oracles are first-class: each implements the Oracle interface and is
// registered, with a rotation weight, in the package registry
// (registry.go). Campaigns dispatch through a deterministic weighted
// rotation over the selected registrations and attribute every bug
// report to the oracle's registered name.
package oracle

import (
	"fmt"
	"slices"
	"sort"

	"sqlancerpp/internal/engine"
	"sqlancerpp/internal/sqlast"
)

// Outcome of one oracle check.
type Outcome int

// Outcomes.
const (
	// OK: the queries executed and agreed.
	OK Outcome = iota
	// Bug: the queries executed and disagreed — a logic bug.
	Bug
	// Invalid: at least one query failed to execute (the test case does
	// not count as valid; its error feeds the validity feedback).
	Invalid
)

// Name identifies an oracle.
type Name string

// Oracle names. These are the registry keys: Config/flag oracle
// selection and bug-report attribution use them.
const (
	TLPName          Name = "TLP"
	TLPComposedName  Name = "TLPComposed"
	TLPAggregateName Name = "TLPAggregate"
	NoRECName        Name = "NoREC"
	PlanDiffName     Name = "PlanDiff"
)

// Result is the outcome of applying an oracle to one test case.
type Result struct {
	Oracle  Name
	Outcome Outcome
	// Queries holds the executed SQL (base first).
	Queries []string
	// Err is the first execution error for Invalid outcomes.
	Err error
	// Detail describes the mismatch for Bug outcomes.
	Detail string
	// Triggered is the union of ground-truth fault IDs fired by the
	// executed queries (evaluation only).
	Triggered []string
	// MaxCost is the executor cost the campaign's performance watchdog
	// judges: the highest cost among the queries — except for PlanDiff,
	// which reports the cost of its *baseline* (auto-plan) execution only
	// (the enumerated alternative plans are deliberate, not a performance
	// symptom; both costs of a diverging pair appear in Detail).
	MaxCost int64
	// PlanSpec is the serialized losing engine.PlanSpec of a PlanDiff
	// bug: the enumerated plan whose result diverged from the baseline.
	// The reducer feeds it back through Case.PlanSpec so the replay
	// executes the exact plan pair.
	PlanSpec string
	// PairsNovel and PairsRepeated count the plan specs PlanDiff
	// executed for this case that its pair tracker had not / had already
	// diffed for the query's shape (zero when the case carried no
	// tracker). The campaign sums them into the report, where the ratio
	// shows the novelty scheduler working.
	PairsNovel    int
	PairsRepeated int
}

// rowCounts is a multiset of rendered rows: index maps a row's text to
// its slot in counts.
type rowCounts struct {
	index  map[string]int
	counts []int
}

// newRowCounts returns an empty multiset with room for rows distinct
// rows.
func newRowCounts(rows int) *rowCounts {
	return &rowCounts{index: map[string]int{}, counts: make([]int, 0, rows)}
}

// multiset builds the multiset of res's rows.
func multiset(res *engine.Result) *rowCounts {
	m := newRowCounts(len(res.Rows))
	m.add(res)
	return m
}

// add adds res's rows to m. Each row renders into one reused buffer, so
// only a row not seen before allocates, for its key.
func (m *rowCounts) add(res *engine.Result) {
	var buf [128]byte
	row := buf[:0]
	for i := range res.Rows {
		row = res.AppendRow(row[:0], i)
		if j, ok := m.index[string(row)]; ok {
			m.counts[j]++
			continue
		}
		m.index[string(row)] = len(m.counts)
		m.counts = append(m.counts, 1)
	}
}

// count returns the number of copies of row in m.
func (m *rowCounts) count(row string) int {
	if j, ok := m.index[row]; ok {
		return m.counts[j]
	}
	return 0
}

// diffMultisets describes the difference between two row multisets.
func diffMultisets(a, b *rowCounts) string {
	keys := make([]string, 0, len(a.index)+len(b.index))
	for k := range a.index {
		keys = append(keys, k)
	}
	for k := range b.index {
		if _, ok := a.index[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if na, nb := a.count(k), b.count(k); na != nb {
			return fmt.Sprintf("row %q: %d vs %d", k, na, nb)
		}
	}
	return ""
}

// derive returns a shallow copy of base for a query that is built only
// to be rendered: the caller replaces its Where, Items or Compound slot,
// and everything else shares base's sub-trees. The copy's slices are
// clipped to their length, so an append on the copy reallocates instead
// of writing into base's backing arrays. Neither tree is mutated after
// this point (see the sqlast package comment).
func derive(base *sqlast.Select) *sqlast.Select {
	q := *base
	q.Items = slices.Clip(q.Items)
	q.From = slices.Clip(q.From)
	q.GroupBy = slices.Clip(q.GroupBy)
	q.Compound = slices.Clip(q.Compound)
	q.OrderBy = slices.Clip(q.OrderBy)
	return &q
}

// tlpPartitions builds the three partition predicates p, NOT p, p IS NULL,
// sharing pred.
func tlpPartitions(pred sqlast.Expr) [3]sqlast.Expr {
	return [3]sqlast.Expr{
		pred,
		&sqlast.Unary{Op: sqlast.UNot, X: pred},
		&sqlast.IsNull{X: pred},
	}
}

// runner tracks a check's executed queries, their costs and the faults
// they triggered. Every query reaches the engine as SQL text, and render
// seeds the instance's statement cache with the tree behind each text,
// so the engine runs the oracle's own tree instead of parsing the text.
type runner struct {
	db      *engine.DB
	queries []string
	// triggered holds the fault IDs fired so far, unsorted; nil until
	// the first fires.
	triggered []string
	lastCost  int64 // executor cost of the last query
	maxCost   int64
}

// newRunner returns a runner for a check that runs at most n queries.
func newRunner(db *engine.DB, n int) *runner {
	return &runner{db: db, queries: make([]string, 0, n)}
}

// render returns q's text after seeding the instance's statement cache
// with q under it. q is a tree the oracle built from the case: it
// equals what parsing its text builds, and nothing modifies it from
// here on (see derive).
func (r *runner) render(q *sqlast.Select) string {
	sql := q.SQL()
	r.db.SeedParse(sql, q)
	return sql
}

func (r *runner) query(sql string) (*engine.Result, error) {
	r.queries = append(r.queries, sql)
	res, err := r.db.Query(sql)
	for _, id := range r.db.TriggeredFaults() {
		if !slices.Contains(r.triggered, id) {
			r.triggered = append(r.triggered, id)
		}
	}
	r.lastCost = r.db.LastCost()
	r.maxCost = max(r.maxCost, r.lastCost)
	return res, err
}

func (r *runner) result(oracle Name, outcome Outcome, err error, detail string) Result {
	slices.Sort(r.triggered)
	return Result{
		Oracle:    oracle,
		Outcome:   outcome,
		Queries:   r.queries,
		Err:       err,
		Detail:    detail,
		Triggered: r.triggered,
		MaxCost:   r.maxCost,
	}
}

// TLP applies Ternary Logic Partitioning: the rows of the base query must
// equal the multiset union of the three partitions WHERE p, WHERE NOT p,
// and WHERE p IS NULL (Rigger & Su, OOPSLA 2020).
func TLP(db *engine.DB, base *sqlast.Select, pred sqlast.Expr) Result {
	r := newRunner(db, 4)

	baseRes, err := r.query(r.render(base))
	if err != nil {
		return r.result(TLPName, Invalid, err, "")
	}

	union := newRowCounts(len(baseRes.Rows))
	for _, p := range tlpPartitions(pred) {
		part := derive(base)
		part.Where = p
		res, err := r.query(r.render(part))
		if err != nil {
			return r.result(TLPName, Invalid, err, "")
		}
		union.add(res)
	}
	if d := diffMultisets(multiset(baseRes), union); d != "" {
		return r.result(TLPName, Bug, nil,
			"TLP partition mismatch: "+d)
	}
	return r.result(TLPName, OK, nil, "")
}

// NoREC compares an optimizable query, SELECT COUNT(*) FROM ... WHERE p,
// against its unoptimizable counterpart, SELECT (p) IS TRUE FROM ...,
// whose predicate the engine evaluates in the projection (reference)
// path (Rigger & Su, ESEC/FSE 2020).
func NoREC(db *engine.DB, base *sqlast.Select, pred sqlast.Expr) Result {
	r := newRunner(db, 2)

	opt := derive(base)
	opt.Items = []sqlast.SelectItem{{Expr: &sqlast.Func{Name: "COUNT", Star: true}}}
	opt.Where = pred
	optRes, err := r.query(r.render(opt))
	if err != nil {
		return r.result(NoRECName, Invalid, err, "")
	}
	if len(optRes.Rows) != 1 || optRes.Rows[0][0].K != engine.KindInt {
		return r.result(NoRECName, Invalid,
			fmt.Errorf("NoREC: unexpected COUNT result shape"), "")
	}
	optCount := optRes.Rows[0][0].I

	ref := derive(base)
	ref.Items = []sqlast.SelectItem{{Expr: &sqlast.IsBool{X: pred, Val: true}}}
	refRes, err := r.query(r.render(ref))
	if err != nil {
		return r.result(NoRECName, Invalid, err, "")
	}
	var refCount int64
	for _, row := range refRes.Rows {
		if row[0].K == engine.KindBool && row[0].B {
			refCount++
		}
	}
	if optCount != refCount {
		return r.result(NoRECName, Bug, nil, fmt.Sprintf(
			"NoREC count mismatch: optimized %d vs reference %d", optCount, refCount))
	}
	return r.result(NoRECName, OK, nil, "")
}
