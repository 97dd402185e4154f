// Package reduce implements SQLancer++'s bug reducer (paper Figure 2):
// given a bug-inducing statement sequence and a property check ("does
// this sequence still trigger the bug?"), it shrinks the sequence by
// statement-level delta debugging and then simplifies expressions inside
// the remaining statements by replacing subtrees with literals.
package reduce

import (
	"sqlancerpp/internal/sqlast"
)

// TextProperty re-runs a candidate statement sequence and reports
// whether it still exhibits the bug. texts[i] is stmts[i].SQL(), kept by
// the reducer, so a property that replays SQL text renders nothing.
// Implementations must be deterministic and must not keep stmts or
// texts: the reducer reuses both.
type TextProperty func(stmts []sqlast.Stmt, texts []string) bool

// ReduceTexts shrinks stmts while prop keeps holding and returns the
// reduced statements with their texts. The input sequence must satisfy
// prop; it is not modified.
func ReduceTexts(stmts []sqlast.Stmt, prop TextProperty) ([]sqlast.Stmt, []string) {
	cur := newSequence(stmts)
	cur = reduceStatements(cur, prop)
	reduceExpressions(cur, prop)
	cur = reduceStatements(cur, prop) // expression shrinking may unlock more
	return cur.stmts, cur.texts
}

// Property is TextProperty without the texts.
type Property func(stmts []sqlast.Stmt) bool

// Reduce is ReduceTexts for a property that takes no texts. It is kept
// for the frozen benchmark harness (perfbench/driver.go), which calls
// it, and goes when that driver does.
func Reduce(stmts []sqlast.Stmt, prop Property) []sqlast.Stmt {
	out, _ := ReduceTexts(stmts, func(stmts []sqlast.Stmt, _ []string) bool { return prop(stmts) })
	return out
}

// sequence is a candidate: statements and their rendered texts, texts[i]
// == stmts[i].SQL().
type sequence struct {
	stmts []sqlast.Stmt
	texts []string
}

// newSequence is a clone of stmts with its texts.
func newSequence(stmts []sqlast.Stmt) sequence {
	seq := sequence{stmts: make([]sqlast.Stmt, len(stmts)), texts: make([]string, len(stmts))}
	for i, s := range stmts {
		seq.stmts[i] = sqlast.CloneStmt(s)
		seq.texts[i] = seq.stmts[i].SQL()
	}
	return seq
}

// without writes seq minus its statements [start, start+n) into buf's
// storage and returns it.
func (buf sequence) without(seq sequence, start, n int) sequence {
	buf.stmts = append(append(buf.stmts[:0], seq.stmts[:start]...), seq.stmts[start+n:]...)
	buf.texts = append(append(buf.texts[:0], seq.texts[:start]...), seq.texts[start+n:]...)
	return buf
}

// reduceStatements greedily removes chunks of statements (ddmin-style,
// halving chunk sizes). Candidates are built in one spare sequence,
// swapped with seq when accepted.
func reduceStatements(seq sequence, prop TextProperty) sequence {
	var spare sequence
	chunk := len(seq.stmts) / 2
	for chunk >= 1 {
		removedAny := false
		for start := 0; start+chunk <= len(seq.stmts); {
			cand := spare.without(seq, start, chunk)
			if len(cand.stmts) > 0 && prop(cand.stmts, cand.texts) {
				seq, spare = cand, seq
				removedAny = true
				// retry at the same position
			} else {
				spare = cand
				start++
			}
		}
		if !removedAny {
			chunk /= 2
		}
	}
	return seq
}

// replacementCandidates returns the literals a subtree may shrink to.
func replacementCandidates() []sqlast.Expr {
	return []sqlast.Expr{
		sqlast.Null(),
		sqlast.IntLit(0),
		sqlast.IntLit(1),
		sqlast.TextLit(""),
		sqlast.BoolLit(true),
		sqlast.BoolLit(false),
	}
}

// exprSlot is a mutable expression position inside a statement.
type exprSlot struct {
	get func() sqlast.Expr
	set func(sqlast.Expr)
}

// slotsOf enumerates the reducible expression positions of a statement.
func slotsOf(stmt sqlast.Stmt) []exprSlot {
	var slots []exprSlot
	addExprTree := func(get func() sqlast.Expr, set func(sqlast.Expr)) {
		collectSlots(get, set, &slots)
	}
	switch st := stmt.(type) {
	case *sqlast.Select:
		selectSlots(st, addExprTree)
	case *sqlast.CreateView:
		selectSlots(st.Select, addExprTree)
	case *sqlast.CreateIndex:
		if st.Where != nil {
			addExprTree(func() sqlast.Expr { return st.Where }, func(e sqlast.Expr) { st.Where = e })
		}
	case *sqlast.Insert:
		for i := range st.Rows {
			for j := range st.Rows[i] {
				i, j := i, j
				addExprTree(func() sqlast.Expr { return st.Rows[i][j] }, func(e sqlast.Expr) { st.Rows[i][j] = e })
			}
		}
	case *sqlast.Update:
		for i := range st.Sets {
			i := i
			addExprTree(func() sqlast.Expr { return st.Sets[i].Value }, func(e sqlast.Expr) { st.Sets[i].Value = e })
		}
		if st.Where != nil {
			addExprTree(func() sqlast.Expr { return st.Where }, func(e sqlast.Expr) { st.Where = e })
		}
	case *sqlast.Delete:
		if st.Where != nil {
			addExprTree(func() sqlast.Expr { return st.Where }, func(e sqlast.Expr) { st.Where = e })
		}
	}
	return slots
}

func selectSlots(sel *sqlast.Select, add func(func() sqlast.Expr, func(sqlast.Expr))) {
	for i := range sel.Items {
		if sel.Items[i].Expr == nil {
			continue
		}
		i := i
		add(func() sqlast.Expr { return sel.Items[i].Expr }, func(e sqlast.Expr) { sel.Items[i].Expr = e })
	}
	for i := range sel.From {
		i := i
		if sel.From[i].On != nil {
			add(func() sqlast.Expr { return sel.From[i].On }, func(e sqlast.Expr) { sel.From[i].On = e })
		}
		if d, ok := sel.From[i].Ref.(*sqlast.DerivedTable); ok {
			selectSlots(d.Select, add)
		}
	}
	if sel.Where != nil {
		add(func() sqlast.Expr { return sel.Where }, func(e sqlast.Expr) { sel.Where = e })
	}
	for i := range sel.GroupBy {
		i := i
		add(func() sqlast.Expr { return sel.GroupBy[i] }, func(e sqlast.Expr) { sel.GroupBy[i] = e })
	}
	if sel.Having != nil {
		add(func() sqlast.Expr { return sel.Having }, func(e sqlast.Expr) { sel.Having = e })
	}
	for i := range sel.OrderBy {
		i := i
		add(func() sqlast.Expr { return sel.OrderBy[i].Expr }, func(e sqlast.Expr) { sel.OrderBy[i].Expr = e })
	}
}

// collectSlots adds the root slot and recursively the slots of child
// expressions.
func collectSlots(get func() sqlast.Expr, set func(sqlast.Expr), slots *[]exprSlot) {
	*slots = append(*slots, exprSlot{get: get, set: set})
	switch x := get().(type) {
	case *sqlast.Unary:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
	case *sqlast.Binary:
		collectSlots(func() sqlast.Expr { return x.L }, func(e sqlast.Expr) { x.L = e }, slots)
		collectSlots(func() sqlast.Expr { return x.R }, func(e sqlast.Expr) { x.R = e }, slots)
	case *sqlast.Func:
		for i := range x.Args {
			i := i
			collectSlots(func() sqlast.Expr { return x.Args[i] }, func(e sqlast.Expr) { x.Args[i] = e }, slots)
		}
	case *sqlast.Case:
		if x.Operand != nil {
			collectSlots(func() sqlast.Expr { return x.Operand }, func(e sqlast.Expr) { x.Operand = e }, slots)
		}
		for i := range x.Whens {
			i := i
			collectSlots(func() sqlast.Expr { return x.Whens[i].Cond }, func(e sqlast.Expr) { x.Whens[i].Cond = e }, slots)
			collectSlots(func() sqlast.Expr { return x.Whens[i].Then }, func(e sqlast.Expr) { x.Whens[i].Then = e }, slots)
		}
		if x.Else != nil {
			collectSlots(func() sqlast.Expr { return x.Else }, func(e sqlast.Expr) { x.Else = e }, slots)
		}
	case *sqlast.Cast:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
	case *sqlast.Between:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
		collectSlots(func() sqlast.Expr { return x.Lo }, func(e sqlast.Expr) { x.Lo = e }, slots)
		collectSlots(func() sqlast.Expr { return x.Hi }, func(e sqlast.Expr) { x.Hi = e }, slots)
	case *sqlast.InList:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
		for i := range x.List {
			i := i
			collectSlots(func() sqlast.Expr { return x.List[i] }, func(e sqlast.Expr) { x.List[i] = e }, slots)
		}
	case *sqlast.IsNull:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
	case *sqlast.IsBool:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
	case *sqlast.Like:
		collectSlots(func() sqlast.Expr { return x.X }, func(e sqlast.Expr) { x.X = e }, slots)
		collectSlots(func() sqlast.Expr { return x.Pattern }, func(e sqlast.Expr) { x.Pattern = e }, slots)
	}
}

// reduceExpressions tries to replace each expression subtree of seq with
// a literal while the property holds, in place. Only the statement whose
// slot it sets is rendered again; restoring the slot restores its text.
func reduceExpressions(seq sequence, prop TextProperty) {
	changed := true
	for rounds := 0; changed && rounds < 4; rounds++ {
		changed = false
		for i, st := range seq.stmts {
			slots := slotsOf(st)
			for si := 0; si < len(slots); si++ {
				slot := slots[si]
				orig, text := slot.get(), seq.texts[i]
				if _, isLit := orig.(*sqlast.Literal); isLit {
					continue
				}
				for _, cand := range replacementCandidates() {
					slot.set(cand)
					seq.texts[i] = st.SQL()
					if prop(seq.stmts, seq.texts) {
						changed = true
						// The replacement detached orig's subtree, so the
						// slots collected from it are dangling: their set
						// would silently no-op while prop (a full engine
						// replay) keeps returning true. Re-enumerate from
						// the live tree; slots are collected in pre-order,
						// so positions before si are unaffected.
						slots = slotsOf(st)
						break
					}
					slot.set(orig)
					seq.texts[i] = text
				}
			}
		}
	}
}
