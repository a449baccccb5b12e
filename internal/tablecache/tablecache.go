// Package tablecache is the shared compiled-table cache behind the
// simulator's reuse layer: an LRU of immutable verified hop tables
// (schedule.Compile), keyed by the schedule's canonical parameters
// (schedule.KeyOf). Sweep drivers, repeated scenario runs and rvserve's
// sessions build a given table once and share it.
//
// Entries are ref-counted: a lookup or insert pins the entry and hands
// back a Handle; Handle.Release unpins it. Eviction walks the LRU tail
// and only drops unpinned entries, so the cache may transiently exceed
// its byte budget while pinned. Pinning is bookkeeping, not a
// correctness mechanism — entries are immutable, so even an evicted
// table held by a live engine stays valid; eviction only costs a
// rebuild on the next miss. That is what makes correctness independent
// of the budget (CI proves it by running the golden suite at a 1-byte
// budget).
package tablecache

import (
	"os"
	"strconv"
	"sync"

	"rendezvous/internal/schedule"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Pinned and Refs expose pin leaks: a long-running caller that borrows
// tables and never releases them (a missing Engine.Close, or handles
// dropped on the floor) shows up as Pinned > 0 while idle, and pinned
// entries can never be evicted — the cache grows past its budget
// without bound. rvserve surfaces these on /v1/stats and its drain
// path asserts Pinned == 0 after the last engine closes.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Pinned    int   // entries with at least one outstanding pin
	Refs      int64 // total outstanding pins across all entries
}

type entry struct {
	key        string
	val        any
	bytes      int64
	refs       int
	prev, next *entry
}

// Cache is the LRU itself. A nil *Cache is valid and disables caching:
// every method computes the requested artifact directly and returns a
// zero Handle.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	table  map[string]*entry
	head   *entry // most recently used
	tail   *entry // least recently used

	hits, misses, evictions int64
}

// New builds a cache with the given byte budget. Budgets below the size
// of a single table still work — every insert is immediately evicted on
// release, degrading to compute-per-use.
func New(budget int64) *Cache {
	return &Cache{budget: budget, table: make(map[string]*entry)}
}

// DefaultBudget is the shared cache's byte budget unless BudgetEnv
// overrides it.
const DefaultBudget = 256 << 20

// BudgetEnv names the environment variable overriding the shared
// cache's byte budget in bytes (read once, at first use). CI's
// golden-thrash job sets it to 1 to prove results are budget-independent
// under worst-case eviction pressure.
const BudgetEnv = "RV_TABLECACHE_BUDGET"

var (
	sharedOnce  sync.Once
	sharedCache *Cache
)

// Shared returns the process-wide cache every engine uses by default.
func Shared() *Cache {
	sharedOnce.Do(func() {
		budget := int64(DefaultBudget)
		if v := os.Getenv(BudgetEnv); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
				budget = n
			}
		}
		sharedCache = New(budget)
	})
	return sharedCache
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.table),
		Bytes:     c.bytes,
	}
	for e := c.head; e != nil; e = e.next {
		if e.refs > 0 {
			s.Pinned++
			s.Refs += int64(e.refs)
		}
	}
	return s
}

// Handle pins one cache entry against eviction. The zero Handle is
// valid and releases nothing. Release each handle at most once; the
// engine's Close does this for every table it borrowed.
type Handle struct {
	c *Cache
	e *entry
}

// Release unpins the entry, making it evictable once no other holder
// remains.
func (h Handle) Release() {
	if h.c == nil {
		return
	}
	h.c.mu.Lock()
	if h.e.refs > 0 {
		h.e.refs--
	}
	if h.c.bytes > h.c.budget {
		h.c.evictLocked()
	}
	h.c.mu.Unlock()
}

// Compile is schedule.Compile through the cache: every caller whose
// schedule has a cache key shares one verified hop table per key.
// Schedules without a key, already-compiled schedules, and compile
// refusals (period over the cap, verification mismatch) pass through
// uncached.
func (c *Cache) Compile(s schedule.Schedule) (schedule.Schedule, Handle) {
	if _, done := s.(*schedule.Compiled); done || c == nil {
		return schedule.Compile(s), Handle{}
	}
	key, ok := schedule.KeyOf(s)
	if !ok {
		return schedule.Compile(s), Handle{}
	}
	key = "c|" + key
	if v, h, ok := c.get(key); ok {
		return v.(schedule.Schedule), h
	}
	cs := schedule.Compile(s)
	cc, compiled := cs.(*schedule.Compiled)
	if !compiled {
		return cs, Handle{}
	}
	v, h := c.put(key, cs, 8*int64(cc.Period()))
	return v.(schedule.Schedule), h
}

// get pins and returns the entry under key.
func (c *Cache) get(key string) (any, Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.table[key]
	if !ok {
		c.misses++
		return nil, Handle{}, false
	}
	c.hits++
	e.refs++
	c.unlink(e)
	c.pushFront(e)
	return e.val, Handle{c: c, e: e}, true
}

// put inserts val under key pinned, evicting cold entries past the
// budget. An entry a concurrent miss inserted first keeps its value:
// both are verified tables of one schedule, and every caller then
// shares that one.
func (c *Cache) put(key string, val any, bytes int64) (any, Handle) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.table[key]
	if ok {
		c.unlink(e)
	} else {
		e = &entry{key: key, val: val, bytes: bytes}
		c.table[key] = e
		c.bytes += bytes
	}
	e.refs++
	c.pushFront(e)
	c.evictLocked()
	return e.val, Handle{c: c, e: e}
}

// evictLocked walks from the LRU tail dropping unpinned entries until
// the budget is met. Pinned entries are skipped, not blocked on.
func (c *Cache) evictLocked() {
	for e := c.tail; c.bytes > c.budget && e != nil; {
		prev := e.prev
		if e.refs == 0 {
			c.unlink(e)
			delete(c.table, e.key)
			c.bytes -= e.bytes
			c.evictions++
		}
		e = prev
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
