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
	"bytes"
	"fmt"
	"slices"
	"sync"

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

// rowSet is a multiset of rendered rows: every row's key
// (engine.Result.AppendRow) sits in one byte buffer, and spans marks
// where each one lies. Sets come from rowSetPool and go back to it when
// their check ends, so a warm set builds a multiset without allocating.
type rowSet struct {
	buf    []byte
	spans  []rowSpan
	sorted bool // spans are in key order
}

// rowSpan is one row's key: buf[lo:hi].
type rowSpan struct{ lo, hi int }

// rowSetRetainBytes bounds the buffers a set keeps when it goes back to
// the pool, so one huge result does not stay pinned.
const rowSetRetainBytes = 64 << 10

var rowSetPool = sync.Pool{New: func() any { return new(rowSet) }}

// getRowSet returns an empty set from the pool.
func getRowSet() *rowSet { return rowSetPool.Get().(*rowSet) }

// putRowSet empties m and hands it back to the pool.
func putRowSet(m *rowSet) {
	if cap(m.buf)+16*cap(m.spans) > rowSetRetainBytes { // a rowSpan is 16 bytes
		return
	}
	m.reset()
	rowSetPool.Put(m)
}

// reset empties m, keeping its buffers.
func (m *rowSet) reset() { m.buf, m.spans, m.sorted = m.buf[:0], m.spans[:0], false }

// add adds res's rows to m. res may live in the statement scratch
// (engine.DB.QueryScratch): m keeps only the rendered keys.
func (m *rowSet) add(res *engine.Result) {
	for i := range res.Rows {
		lo := len(m.buf)
		m.buf = res.AppendRow(m.buf, i)
		m.spans = append(m.spans, rowSpan{lo, len(m.buf)})
	}
	m.sorted = false
}

func (m *rowSet) key(i int) []byte { return m.buf[m.spans[i].lo:m.spans[i].hi] }

// sort puts m's keys in byte order, once until the next add.
func (m *rowSet) sort() {
	if m.sorted {
		return
	}
	slices.SortFunc(m.spans, func(a, b rowSpan) int {
		return bytes.Compare(m.buf[a.lo:a.hi], m.buf[b.lo:b.hi])
	})
	m.sorted = true
}

// diffMultisets describes the difference between two row multisets: the
// first row, in byte order of its key, that the two hold a different
// number of times.
func diffMultisets(a, b *rowSet) string {
	a.sort()
	b.sort()
	i, j := 0, 0
	for i < len(a.spans) || j < len(b.spans) {
		var k []byte
		switch {
		case j == len(b.spans):
			k = a.key(i)
		case i == len(a.spans):
			k = b.key(j)
		default:
			k = a.key(i)
			if kb := b.key(j); bytes.Compare(kb, k) < 0 {
				k = kb
			}
		}
		na, nb := 0, 0
		for ; i < len(a.spans) && bytes.Equal(a.key(i), k); i++ {
			na++
		}
		for ; j < len(b.spans) && bytes.Equal(b.key(j), k); j++ {
			nb++
		}
		if na != nb {
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

// query runs sql. The result lives in the instance's statement scratch
// (engine.DB.QueryScratch): the caller reads what it needs of it before
// its next query.
func (r *runner) query(sql string) (*engine.Result, error) {
	r.queries = append(r.queries, sql)
	res, err := r.db.QueryScratch(sql)
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
	baseSet, union := getRowSet(), getRowSet()
	defer putRowSet(baseSet)
	defer putRowSet(union)
	baseSet.add(baseRes)

	for _, p := range tlpPartitions(pred) {
		part := derive(base)
		part.Where = p
		res, err := r.query(r.render(part))
		if err != nil {
			return r.result(TLPName, Invalid, err, "")
		}
		union.add(res)
	}
	if d := diffMultisets(baseSet, union); d != "" {
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
