package sqlparse

import (
	"container/list"
	"sync"

	"sqlancerpp/internal/sqlast"
)

// Cache is a thread-safe LRU of parsed statements keyed on SQL text.
//
// The layers above the engine re-execute identical text constantly: the
// oracles run variant pairs over the same base query, the reducer replays
// a shrinking statement list on fresh instances, and the cross-DBMS
// experiments execute each bug-inducing case on every target. Caching the
// parse preserves the black-box "SQL text in" contract while removing the
// lexer and parser from those hot paths.
//
// Parse returns the cached AST *shared*: callers must treat it as
// immutable. The engine executes the shared copy and clones only the
// statements whose sub-ASTs outlive execution in catalog state (DB.run).
type Cache struct {
	mu   sync.Mutex
	cap  int
	lru  list.List
	byID map[string]*list.Element

	hits, misses uint64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	sql  string
	stmt sqlast.Stmt
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
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{cap: capacity, byID: make(map[string]*list.Element)}
	return c
}

// Parse returns the shared, immutable AST for src, parsing on a miss.
// Parse errors are returned without being cached (the campaign rarely
// replays syntactically invalid text).
func (c *Cache) Parse(src string) (sqlast.Stmt, error) {
	if c == nil {
		return Parse(src)
	}
	c.mu.Lock()
	if el, ok := c.byID[src]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		st := el.Value.(*cacheEntry).stmt
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
		c.byID[src] = c.lru.PushFront(&cacheEntry{sql: src, stmt: st})
		if c.lru.Len() > c.cap {
			last := c.lru.Back()
			c.lru.Remove(last)
			delete(c.byID, last.Value.(*cacheEntry).sql)
		}
	}
	c.mu.Unlock()
	return st, nil
}

// Len returns the number of cached statements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
