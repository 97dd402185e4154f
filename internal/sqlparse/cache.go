package sqlparse

import (
	"math"
	"sync"

	"sqlancerpp/internal/sqlast"
)

// Cache is a thread-safe LRU of parsed statements keyed on SQL text.
//
// The layers above the engine re-execute identical text constantly: the
// oracles run variant pairs over the same base query, the reducer replays
// a shrinking statement list on reset instances, and the cross-DBMS
// experiments execute each bug-inducing case on every target. Caching the
// parse preserves the black-box "SQL text in" contract while removing the
// lexer and parser from those hot paths.
//
// Parse returns the cached AST *shared*: callers must treat it as
// immutable. The engine executes the shared copy and clones only the
// statements whose sub-ASTs outlive execution in catalog state (DB.run).
//
// Seed fills an entry with a tree the caller built instead of one the
// parser built: the oracles and the campaign runner render each tree
// they generate and seed it under its text, so the engine finds it
// instead of parsing the text back. A seeded tree must equal what Parse
// builds from its text (nil and empty slices alike), that parse must
// succeed, and nothing may modify the tree afterwards.
//
// The LRU allocates nothing per entry: entries live in one slice that
// grows to the capacity and is then recycled from its least recently
// used end, linked by index, and byID maps a statement's text to its
// slot.
type Cache struct {
	mu         sync.Mutex
	cap        int
	entries    []cacheEntry
	byID       map[string]int32
	head, tail int32 // most and least recently used slots; -1 when empty

	hits, misses uint64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	sql        string
	stmt       sqlast.Stmt
	prev, next int32 // the neighbouring slots toward head and tail; -1 at the ends
}

// DefaultCacheSize bounds the process-wide cache. An entry (SQL text, AST
// and LRU bookkeeping) of a generated campaign statement averages
// 1.4-1.6 KB, so a full cache holds about 5.7-6.6 MB, measured on sqlite,
// tidb and cratedb campaigns (Go 1.24, linux/amd64). Campaign runners do
// not use it: each parses through a small cache of its own. It serves
// engines opened without engine.WithParseCache, whose reuse is long-range:
// the cross-DBMS re-execution study replays 25-40 cases of ~15 statements
// on one target after another, a cyclic reuse distance of 400-600
// statements.
const DefaultCacheSize = 4096

// shared is the process-wide cache of engine instances opened without
// their own (engine.WithParseCache).
var shared = NewCache(DefaultCacheSize)

// Shared returns the process-wide statement cache.
func Shared() *Cache { return shared }

// NewCache returns an empty cache holding at most capacity statements.
func NewCache(capacity int) *Cache {
	capacity = min(max(capacity, 1), math.MaxInt32)
	return &Cache{cap: capacity, byID: make(map[string]int32), head: -1, tail: -1}
}

// Parse returns the shared, immutable AST for src, parsing on a miss.
// Parse errors are returned without being cached (the campaign rarely
// replays syntactically invalid text).
func (c *Cache) Parse(src string) (sqlast.Stmt, error) {
	if c == nil {
		return Parse(src)
	}
	c.mu.Lock()
	if i, ok := c.byID[src]; ok {
		c.moveToFront(i)
		c.hits++
		st := c.entries[i].stmt
		c.mu.Unlock()
		return st, nil
	}
	c.misses++
	c.mu.Unlock()

	st, err := Parse(src) // parse outside the lock
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if _, ok := c.byID[src]; !ok { // a concurrent miss may have won
		c.insert(src, st)
	}
	c.mu.Unlock()
	return st, nil
}

// Seed caches st as the tree of src when src is not cached yet, in the
// slot a miss on src would fill; it counts neither a hit nor a miss and
// leaves an existing entry where it is. st must be what Parse(src)
// returns, and it is shared from here on: see the Cache comment.
func (c *Cache) Seed(src string, st sqlast.Stmt) {
	if seedCheck != nil {
		seedCheck(src, st)
	}
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.byID[src]; !ok {
		c.insert(src, st)
	}
	c.mu.Unlock()
}

// seedCheck, when set, sees every seeded text and tree before the cache
// takes them. It is nil outside tests, which set it to prove the
// seeding contract (parse src, compare the trees).
var seedCheck func(src string, st sqlast.Stmt)

// insert stores st as the most recently used entry, in a new slot while
// the cache is below capacity and in the least recently used one after.
func (c *Cache) insert(src string, st sqlast.Stmt) {
	var i int32
	if len(c.entries) < c.cap {
		i = int32(len(c.entries))
		c.entries = append(c.entries, cacheEntry{})
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.byID, c.entries[i].sql)
	}
	c.entries[i] = cacheEntry{sql: src, stmt: st}
	c.byID[src] = i
	c.pushFront(i)
}

func (c *Cache) moveToFront(i int32) {
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *Cache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Len returns the number of cached statements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byID)
}

// Stats returns the hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
