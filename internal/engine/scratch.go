package engine

import (
	"bytes"
	"hash/maphash"
	"strconv"
	"unsafe"

	"sqlancerpp/internal/sqlast"
)

// This file implements the statement scratch: the memory a statement's
// validation and execution build and drop before the statement ends.
// Each DB owns one. run resets it before every statement, so a
// statement that failed or panicked half-way leaves nothing behind, and
// a subquery consumer (a scalar subquery or EXISTS) marks it before the
// subquery runs and releases it once the one value it needs is copied
// out. Nothing that outlives its statement may point into it: a Result
// returned by Query is built on the heap, and the view catalogue copies
// the columns validation computed. The one exception is QueryScratch,
// whose Result is built here and dies when the next statement resets
// the scratch; the oracles read each of their results this way and
// drop it before their next query. Exec builds the result it discards
// here too.

// Chunk sizes and the retention cap of one stack. A stack's chunks
// start at scratchFirstChunkBytes and double up to scratchChunkBytes, so
// an instance that runs a few small statements pays for small chunks (a
// reducer opens one instance per bug); an allocation larger than a
// chunk gets a chunk of its own. reset drops the chunks past
// scratchRetainBytes, so one huge statement does not raise the memory an
// instance keeps for the rest of its life.
const (
	scratchFirstChunkBytes = 256
	scratchChunkBytes      = 32 << 10
	scratchRetainBytes     = 128 << 10
	// scratchSetRetain is the largest key set (in keys, at its last use)
	// reset keeps for reuse.
	scratchSetRetain = 1024
)

// stack is one typed scratch stack: chunked backing storage handed out
// bottom-up. Chunks never move or grow, so a slice handed out stays
// valid until the stack is released below it. Every element above the
// top is zero: release clears what it frees.
type stack[T any] struct {
	chunks [][]T
	cur    int // the chunk allocations come from
	off    int // its used length
}

// stackPos is a stack's top, as a mark records it.
type stackPos struct{ cur, off int }

func (st *stack[T]) pos() stackPos { return stackPos{st.cur, st.off} }

// alloc hands out n zero elements whose capacity is exactly n, so an
// append by the holder reallocates instead of writing into a neighbour.
func (st *stack[T]) alloc(n int) []T {
	if st.cur < len(st.chunks) && st.off+n <= len(st.chunks[st.cur]) {
		s := st.chunks[st.cur][st.off : st.off+n : st.off+n]
		st.off += n
		return s
	}
	if n == 0 {
		return []T{}
	}
	// Move up to a chunk that fits n. Everything above the top is free,
	// so a chunk there that is too small is replaced.
	if len(st.chunks) > 0 {
		st.cur++
	}
	st.off = 0
	if st.cur == len(st.chunks) || len(st.chunks[st.cur]) < n {
		var zero T
		elem := int(unsafe.Sizeof(zero))
		size := scratchFirstChunkBytes / elem
		if st.cur > 0 {
			size = max(min(2*len(st.chunks[st.cur-1]), scratchChunkBytes/elem), size)
		}
		c := make([]T, max(size, n))
		if st.cur == len(st.chunks) {
			st.chunks = append(st.chunks, c)
		} else {
			st.chunks[st.cur] = c
		}
	}
	st.off = n
	return st.chunks[st.cur][:n:n]
}

// grow returns s with room for one more element: s itself when it has
// room, else a copy with double the capacity. s must come from this
// stack (or be nil); the old copy stays dead until the next release.
func (st *stack[T]) grow(s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	ns := st.alloc(max(2*cap(s), 8))
	copy(ns, s)
	return ns[:len(s)]
}

// release drops everything allocated since p and clears it.
func (st *stack[T]) release(p stackPos) {
	if st.cur == p.cur && st.off == p.off {
		return
	}
	if st.cur == p.cur {
		clear(st.chunks[p.cur][p.off:st.off])
	} else {
		// The chunks passed over were used up to their last few
		// elements, so clearing them whole costs about what was used.
		clear(st.chunks[p.cur][p.off:])
		for i := p.cur + 1; i < st.cur; i++ {
			clear(st.chunks[i])
		}
		clear(st.chunks[st.cur][:st.off])
	}
	st.cur, st.off = p.cur, p.off
}

// reset empties the stack and drops the chunks past scratchRetainBytes.
func (st *stack[T]) reset() {
	st.release(stackPos{})
	var zero T
	total := 0
	for i, c := range st.chunks {
		total += len(c) * int(unsafe.Sizeof(zero))
		if total > scratchRetainBytes {
			clear(st.chunks[i:])
			st.chunks = st.chunks[:i]
			break
		}
	}
}

// keySet is a set of byte-string keys, numbered in the order they were
// added: the keys lie back to back in one buffer, and an open-addressed
// table indexes them by number. A set keeps its buffers between uses,
// so a warm set allocates nothing for the keys it holds.
type keySet struct {
	keys  []byte
	ends  []int   // ends[n] is where key n ends in keys
	table []int32 // n+1 for key n, 0 for an empty slot; a power-of-two length
}

// keySeed seeds every set's hash. A set's contents and numbering do not
// depend on it.
var keySeed = maphash.MakeSeed()

// key returns key n.
func (ks *keySet) key(n int) []byte {
	start := 0
	if n > 0 {
		start = ks.ends[n-1]
	}
	return ks.keys[start:ks.ends[n]]
}

// len is the number of keys in the set.
func (ks *keySet) len() int { return len(ks.ends) }

// add returns the number of key, adding it (under the next number) when
// the set lacks it.
func (ks *keySet) add(key []byte) (n int, added bool) {
	if 2*(len(ks.ends)+1) > len(ks.table) {
		ks.grow()
	}
	i, ok := ks.find(key)
	if ok {
		return int(ks.table[i]) - 1, false
	}
	ks.keys = append(ks.keys, key...)
	ks.ends = append(ks.ends, len(ks.keys))
	ks.table[i] = int32(len(ks.ends))
	return len(ks.ends) - 1, true
}

// has reports whether the set holds key.
func (ks *keySet) has(key []byte) bool {
	if len(ks.ends) == 0 {
		return false
	}
	_, ok := ks.find(key)
	return ok
}

// find returns the slot holding key, or else the empty slot where it
// goes. The table must have an empty slot.
func (ks *keySet) find(key []byte) (slot int, ok bool) {
	mask := uint64(len(ks.table) - 1)
	for i := maphash.Bytes(keySeed, key) & mask; ; i = (i + 1) & mask {
		n := ks.table[i]
		if n == 0 {
			return int(i), false
		}
		if bytes.Equal(ks.key(int(n)-1), key) {
			return int(i), true
		}
	}
}

// grow doubles the table (keeping it at most half full) and indexes
// every key again.
func (ks *keySet) grow() {
	ks.table = make([]int32, max(2*len(ks.table), 16))
	for n := range ks.ends {
		i, _ := ks.find(ks.key(n))
		ks.table[i] = int32(n + 1)
	}
}

// setStack lends out emptied key sets, one per open user.
type setStack struct {
	sets  []*keySet
	depth int
}

func (ss *setStack) take() *keySet {
	if ss.depth == len(ss.sets) {
		ss.sets = append(ss.sets, &keySet{})
	}
	ks := ss.sets[ss.depth]
	ks.keys, ks.ends = ks.keys[:0], ks.ends[:0]
	clear(ks.table)
	ss.depth++
	return ks
}

// reset returns every set and drops those whose last use held more than
// scratchSetRetain keys or scratchChunkBytes of key bytes.
func (ss *setStack) reset() {
	ss.depth = 0
	for _, ks := range ss.sets {
		if len(ks.ends) > scratchSetRetain || cap(ks.keys) > scratchChunkBytes {
			*ks = keySet{}
		}
	}
}

// stmtScratch is a DB's statement scratch, one stack per type the
// validate and execute paths build. Its zero value is ready: chunks are
// allocated on first use, never at Open. mark, release and reset name
// every stack: a stack added here goes into all three (a loop over an
// interface slice instead cost about 4% of the oracle loop's CPU), and
// TestScratchReleaseCoversEveryStack checks that they do.
type stmtScratch struct {
	vals     stack[Value]
	lists    stack[[]Value] // join-row backing, output and sort-key row lists
	jrows    stack[jrow]
	rels     stack[matRel]
	rowRels  stack[rowRel]
	envs     stack[rowEnv]
	members  stack[*rowEnv]
	execs    stack[scratchExec]
	ctxs     stack[evalCtx]
	exprs    stack[sqlast.Expr]
	ints     stack[int]
	bools    stack[bool]
	strs     stack[string]
	cmps     stack[resolvedCmp]
	results  stack[Result]
	sels     stack[sqlast.Select]
	scopes   stack[scope]
	srels    stack[scopeRel]
	cols     stack[Column]
	naturals stack[naturalEq]
	sets     setStack
	// key is the buffer a group, DISTINCT or set-operation key is
	// rendered into before a set looks it up (and copies it in). It is
	// used only between evaluations, never across one, so a nested
	// statement cannot overwrite a key in use.
	key []byte
}

// scratchMark is the scratch's top, as mark records it.
type scratchMark struct {
	vals, lists, jrows, rels, rowRels, envs, members, execs, ctxs, exprs,
	ints, bools, strs, cmps, results, sels, scopes, srels, cols, naturals stackPos
	sets int
}

func (sc *stmtScratch) mark() scratchMark {
	return scratchMark{
		sc.vals.pos(), sc.lists.pos(), sc.jrows.pos(), sc.rels.pos(), sc.rowRels.pos(),
		sc.envs.pos(), sc.members.pos(), sc.execs.pos(), sc.ctxs.pos(), sc.exprs.pos(),
		sc.ints.pos(), sc.bools.pos(), sc.strs.pos(), sc.cmps.pos(), sc.results.pos(),
		sc.sels.pos(), sc.scopes.pos(), sc.srels.pos(), sc.cols.pos(), sc.naturals.pos(), sc.sets.depth,
	}
}

// release drops everything allocated since m.
func (sc *stmtScratch) release(m scratchMark) {
	sc.vals.release(m.vals)
	sc.lists.release(m.lists)
	sc.jrows.release(m.jrows)
	sc.rels.release(m.rels)
	sc.rowRels.release(m.rowRels)
	sc.envs.release(m.envs)
	sc.members.release(m.members)
	sc.execs.release(m.execs)
	sc.ctxs.release(m.ctxs)
	sc.exprs.release(m.exprs)
	sc.ints.release(m.ints)
	sc.bools.release(m.bools)
	sc.strs.release(m.strs)
	sc.cmps.release(m.cmps)
	sc.results.release(m.results)
	sc.sels.release(m.sels)
	sc.scopes.release(m.scopes)
	sc.srels.release(m.srels)
	sc.cols.release(m.cols)
	sc.naturals.release(m.naturals)
	sc.sets.depth = m.sets
}

// reset empties the scratch for the next statement.
func (sc *stmtScratch) reset() {
	sc.vals.reset()
	sc.lists.reset()
	sc.jrows.reset()
	sc.rels.reset()
	sc.rowRels.reset()
	sc.envs.reset()
	sc.members.reset()
	sc.execs.reset()
	sc.ctxs.reset()
	sc.exprs.reset()
	sc.ints.reset()
	sc.bools.reset()
	sc.strs.reset()
	sc.cmps.reset()
	sc.results.reset()
	sc.sels.reset()
	sc.scopes.reset()
	sc.srels.reset()
	sc.cols.reset()
	sc.naturals.reset()
	sc.sets.reset()
	if cap(sc.key) > scratchChunkBytes {
		sc.key = nil
	}
}

// The four allocators below build a SELECT's result. A nil scratch
// means the heap: the result is returned by Query, whose caller may hold
// it across later statements. Otherwise the result is read and dropped
// inside the statement (a subquery's, a derived table's, a view's) or
// before the next one (QueryScratch's, Exec's).

func (sc *stmtScratch) result() *Result {
	if sc == nil {
		return &Result{}
	}
	return &sc.results.alloc(1)[0]
}

func (sc *stmtScratch) values(n int) []Value {
	if sc == nil {
		return make([]Value, n)
	}
	return sc.vals.alloc(n)
}

func (sc *stmtScratch) rowList(n int) [][]Value {
	if sc == nil {
		return make([][]Value, n)
	}
	return sc.lists.alloc(n)
}

func (sc *stmtScratch) names(n int) []string {
	if sc == nil {
		return make([]string, n)
	}
	return sc.strs.alloc(n)
}

// splitAnd flattens a conjunction into its top-level conjuncts, in a
// scratch list of exactly their count.
func (sc *stmtScratch) splitAnd(e sqlast.Expr) []sqlast.Expr {
	return splitAnd(e, sc.exprs.alloc(countConjs(e))[:0])
}

// coreOf strips the compound arms and trailing clauses, leaving one
// executable SELECT core (a shallow copy in the scratch).
func (sc *stmtScratch) coreOf(sel *sqlast.Select) *sqlast.Select {
	core := &sc.sels.alloc(1)[0]
	*core = *sel
	core.Compound = nil
	core.OrderBy = nil
	core.Limit = nil
	core.Offset = nil
	return core
}

// nullRow is n NULLs (the zero Value is NULL).
func (sc *stmtScratch) nullRow(n int) []Value { return sc.vals.alloc(n) }

// appendRow appends the canonical dedup/compare key of a row (renderRow)
// to buf.
func appendRow(buf []byte, row []Value) []byte {
	for i, v := range row {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = appendValue(buf, v)
	}
	return buf
}

// appendValue appends v.Render() to buf.
func appendValue(buf []byte, v Value) []byte {
	switch v.K {
	case KindInt:
		return strconv.AppendInt(buf, v.I, 10)
	case KindText:
		buf = append(buf, '\'')
		buf = append(buf, v.S...)
		return append(buf, '\'')
	default:
		return append(buf, v.Render()...)
	}
}

// autoColNames are the generated names of the first unnamed output
// columns, kept as constants so naming them allocates nothing.
var autoColNames = [...]string{"col1", "col2", "col3", "col4", "col5", "col6", "col7", "col8",
	"col9", "col10", "col11", "col12", "col13", "col14", "col15", "col16"}

// autoColName is the name of unnamed output column i (from 1).
func autoColName(i int) string {
	if i <= len(autoColNames) {
		return autoColNames[i-1]
	}
	return "col" + itoa(i)
}
