package sqlparse

import "sqlancerpp/internal/sqlast"

// slab hands out the nodes of one type for one statement. The parser
// sets want from the statement's token counts (nodes.size) before it
// parses; the first node taken allocates an array of want nodes, and
// each later node is the next element. A node beyond the estimate is
// allocated on its own. The parser drops the array when the parse ends,
// so the statement's tree holds the only references to it: no slab
// outlives or serves more than one statement.
type slab[T any] struct {
	free []T // the unused tail of this statement's array
	want int // array length to allocate on first use
}

// new returns a zeroed node with an address of its own.
func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		if s.want == 0 {
			return new(T)
		}
		s.free = make([]T, s.want)
		s.want = 0
	}
	n := &s.free[0]
	s.free = s.free[1:]
	return n
}

// leaves hands out column references and literals, the two commonest
// nodes, from one array of cells holding one of each, long enough for
// the more numerous: a statement pays one allocation for both. Like
// slab, it allocates on first use and then hands out nodes one by one.
type leaves struct {
	cells      []leaf
	cols, lits int // cells whose column reference, whose literal is taken
	want       int
}

type leaf struct {
	col sqlast.ColumnRef
	lit sqlast.Literal
}

func (s *leaves) column() *sqlast.ColumnRef {
	if s.cols == len(s.cells) && !s.alloc() {
		return new(sqlast.ColumnRef)
	}
	s.cols++
	return &s.cells[s.cols-1].col
}

func (s *leaves) literal() *sqlast.Literal {
	if s.lits == len(s.cells) && !s.alloc() {
		return new(sqlast.Literal)
	}
	s.lits++
	return &s.cells[s.lits-1].lit
}

// alloc allocates the statement's cells, and reports false if they
// are allocated already (and used up) or none are wanted.
func (s *leaves) alloc() bool {
	if s.cells != nil || s.want == 0 {
		return false
	}
	s.cells = make([]leaf, s.want)
	return true
}

// lists gathers the lists of one element type for one statement. A list
// being parsed collects its elements on stack, above the lists that
// enclose it; when it ends (end), its elements move to done and a fix-up
// records the slice field that will hold them. carve then copies every
// finished list into one array of exactly their total length and points
// each field at its part, with cap == len, so an append by a consumer
// reallocates instead of writing into a neighbouring list.
type lists[T any] struct {
	stack []T
	done  []T
	fixes []listFix[T]
}

type listFix[T any] struct {
	dst    *[]T
	off, n int
}

func (l *lists[T]) push(v T) { l.stack = append(l.stack, v) }

// mark returns the stack position a new list starts at.
func (l *lists[T]) mark() int { return len(l.stack) }

// len returns the number of elements pushed since mark.
func (l *lists[T]) len(mark int) int { return len(l.stack) - mark }

// end finishes the list started at mark and returns its fix-up, or -1
// for an empty list: carve stores the list in *dst, which stays nil for
// an empty one. A nil dst is set later with bind.
func (l *lists[T]) end(mark int, dst *[]T) int {
	items := l.stack[mark:]
	fix := -1
	if len(items) > 0 {
		fix = len(l.fixes)
		l.fixes = append(l.fixes, listFix[T]{dst: dst, off: len(l.done), n: len(items)})
		l.done = append(l.done, items...)
	}
	clear(items)
	l.stack = l.stack[:mark]
	return fix
}

// endShort finishes the list started at mark as end does, except that a
// list no longer than short is stored in short, at once, and takes no
// room in the array carve allocates.
func (l *lists[T]) endShort(mark int, dst *[]T, short []T) {
	items := l.stack[mark:]
	if len(items) == 0 || len(items) > len(short) {
		l.end(mark, dst)
		return
	}
	n := copy(short, items)
	*dst = short[:n:n]
	clear(items)
	l.stack = l.stack[:mark]
}

// bind sets the field a finished list is stored in.
func (l *lists[T]) bind(fix int, dst *[]T) {
	if fix >= 0 {
		l.fixes[fix].dst = dst
	}
}

// carve stores every finished list in its field, from one array.
func (l *lists[T]) carve() {
	if len(l.done) == 0 {
		return
	}
	all := make([]T, len(l.done))
	copy(all, l.done)
	for _, f := range l.fixes {
		*f.dst = all[f.off : f.off+f.n : f.off+f.n]
	}
}

// reset drops every reference to the statement, keeping the buffers.
func (l *lists[T]) reset() {
	if len(l.done) > 0 {
		clear(l.done)
		clear(l.fixes)
		l.done, l.fixes = l.done[:0], l.fixes[:0]
	}
	clear(l.stack) // holds a list an error cut short
	l.stack = l.stack[:0]
}

// nodes holds one statement's node slabs and list buffers.
type nodes struct {
	slabs
	exprs     lists[sqlast.Expr]
	items     lists[sqlast.SelectItem]
	from      lists[sqlast.FromItem]
	whens     lists[sqlast.When]
	orderBy   lists[sqlast.OrderItem]
	compounds lists[sqlast.CompoundPart]
}

// selectCell holds a SELECT core together with room for a one-item
// projection list and a one-item FROM list with its table name: in the
// common query these take no allocation of their own. joinCell has room
// for two FROM items; a statement that joins (size sets wide) takes all
// its SELECT cores from joinCells, and every other statement from the
// smaller selectCells.
type selectCell struct {
	sel    sqlast.Select
	items  [1]sqlast.SelectItem
	from   [1]sqlast.FromItem
	tables [1]sqlast.TableName // of the FROM list's first item
}

type joinCell struct {
	sel    sqlast.Select
	items  [1]sqlast.SelectItem
	from   [2]sqlast.FromItem
	tables [2]sqlast.TableName // of the FROM list's first two items
}

// selectRoom is the room a SELECT core's cell has for its short lists.
type selectRoom struct {
	items  []sqlast.SelectItem
	from   []sqlast.FromItem
	tables []sqlast.TableName
}

// newSelect returns a new SELECT core and the room its cell has.
func (n *nodes) newSelect() (*sqlast.Select, selectRoom) {
	if n.wide {
		c := n.joins.new()
		return &c.sel, selectRoom{c.items[:], c.from[:], c.tables[:]}
	}
	c := n.selects.new()
	return &c.sel, selectRoom{c.items[:], c.from[:], c.tables[:]}
}

// slabs holds one slab per node type; column references and literals
// share one.
type slabs struct {
	wide     bool // a FROM list has two items or more: see selectCell
	selects  slab[selectCell]
	joins    slab[joinCell]
	binaries slab[sqlast.Binary]
	unaries  slab[sqlast.Unary]
	leaves   leaves
	tables   slab[sqlast.TableName] // past those in a SELECT core's cell
	derived  slab[sqlast.DerivedTable]
	funcs    slab[sqlast.Func]
	inLists  slab[sqlast.InList]
	likes    slab[sqlast.Like]
	betweens slab[sqlast.Between]
	isNulls  slab[sqlast.IsNull]
	isBools  slab[sqlast.IsBool]
	exists   slab[sqlast.Exists]
	subquery slab[sqlast.Subquery]
	cases    slab[sqlast.Case]
	casts    slab[sqlast.Cast]
	limits   slab[int64] // LIMIT and OFFSET counts
}

// carve stores the statement's finished lists in their nodes.
func (n *nodes) carve() {
	n.exprs.carve()
	n.items.carve()
	n.from.carve()
	n.whens.carve()
	n.orderBy.carve()
	n.compounds.carve()
}

// reset forgets the statement: its slabs and list elements stay with
// its tree, and the list buffers stay with the parser.
func (n *nodes) reset() {
	n.slabs = slabs{}
	n.exprs.reset()
	n.items.reset()
	n.from.reset()
	n.whens.reset()
	n.orderBy.reset()
	n.compounds.reset()
}

// size sets each slab's want to the number of nodes of its type that
// toks build, counted from each token and its neighbours. The counts are
// exact on the statements the generator writes; elsewhere a count may
// be high (the array is then longer than needed) or low (the nodes past
// it are allocated one by one), and a slab no node is taken from
// allocates nothing.
func (n *nodes) size(toks []Token) {
	var (
		// fromItem[d] is 0 while no FROM list is open at parenthesis
		// depth d, and k while the list's k-th item is being read.
		fromItem          [64]uint8
		closed            uint8 // stands for fromItem[d] past its end
		depth             int
		prev2, prev       = &noToken, &noToken
		columns, literals int
		selects           int
	)
	item := func() *uint8 {
		if depth < len(fromItem) {
			return &fromItem[depth]
		}
		closed = 0
		return &closed
	}
	// tableRef reports whether the token after prev starts an item of
	// an open FROM list.
	tableRef := func() bool {
		switch prev.code {
		case kwFrom, kwJoin, opComma:
			return *item() > 0
		}
		return false
	}
	for i := range toks[:len(toks)-1] { // the last token is EOF
		t, next := &toks[i], toks[i+1].code
		switch t.Kind {
		case TokIdent:
			switch {
			case next == opLParen:
				n.funcs.want++
			case next == opDot:
				// a column's table qualifier
			case tableRef():
				if *item() > uint8(len(joinCell{}.tables)) {
					n.tables.want++
				} // else in its SELECT core's cell
			case prev.code == kwAs || endsOperand(prev):
				// an alias
			default:
				columns++
			}
		case TokInt:
			if prev.code == kwLimit || prev.code == kwOffset {
				n.limits.want++
			} else {
				literals++
			}
		case TokString:
			literals++
		}
		switch t.code {
		case kwSelect:
			selects++
		case kwNull, kwTrue, kwFalse:
			switch {
			case prev.code != kwIs && (prev.code != kwNot || prev2.code != kwIs):
				literals++
			case t.code == kwNull:
				n.isNulls.want++
			default:
				n.isBools.want++
			}
		case kwDistinct:
			if prev.code == kwIs || prev.code == kwNot && prev2.code == kwIs {
				n.binaries.want++ // IS [NOT] DISTINCT FROM
			}
		case kwAnd, kwOr, kwXor, opSlash, opPercent, opAmp, opPipe, opCaret,
			opEq, opLt, opGt, opNullSafeEq, opShl, opShr, opLe, opGe, opNeq,
			opNeq2, opConcat, opEqEq:
			n.binaries.want++
		case opPlus, opMinus, opStar:
			switch {
			case endsOperand(prev):
				n.binaries.want++
			case t.code == opMinus && toks[i+1].Kind == TokInt:
				// folded into the literal
			case t.code != opStar:
				n.unaries.want++
			}
		case opTilde:
			n.unaries.want++
		case kwNot:
			switch next {
			case kwIn, kwBetween, kwLike, kwGlob, kwExists:
			default:
				if prev.code != kwIs {
					n.unaries.want++
				}
			}
		case kwIn:
			n.inLists.want++
		case kwLike, kwGlob:
			n.likes.want++
		case kwBetween:
			n.betweens.want++
			n.binaries.want-- // its AND
		case kwExists:
			n.exists.want++
		case kwCase:
			n.cases.want++
		case kwCast:
			n.casts.want++
		case kwFrom:
			if prev.code != kwDistinct {
				*item() = 1
			}
		case kwJoin, opComma:
			if k := item(); *k > 0 && *k < 255 {
				*k++
				n.wide = true
			}
		case kwWhere, kwGroup, kwHaving, kwOrder, kwLimit, kwOffset, kwUnion, kwIntersect, kwExcept:
			*item() = 0
		case opLParen:
			if next == kwSelect {
				switch {
				case prev.code == kwExists:
				case tableRef():
					n.derived.want++
				default:
					n.subquery.want++
				}
			}
			depth++
			*item() = 0
		case opRParen:
			*item() = 0
			depth = max(depth-1, 0)
		}
		prev2, prev = prev, t
	}
	n.binaries.want = max(n.binaries.want, 0)
	n.leaves.want = max(columns, literals)
	if n.wide {
		n.joins.want = selects
	} else {
		n.selects.want = selects
	}
}

// noToken stands for the tokens before the first.
var noToken Token

// endsOperand reports whether t can end an operand, so that a + - or *
// after it is a binary operator and an identifier after it an alias.
func endsOperand(t *Token) bool {
	switch t.Kind {
	case TokIdent, TokInt, TokString:
		return true
	}
	switch t.code {
	case opRParen, kwNull, kwTrue, kwFalse, kwEnd:
		return true
	}
	return false
}
