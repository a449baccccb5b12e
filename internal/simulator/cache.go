package simulator

import (
	"sync"

	"rendezvous/internal/tablecache"
)

// The engine side of the shared table cache (internal/tablecache).
// Every NewEngine captures the current process-wide cache; compiled hop
// tables are then borrowed from it instead of rebuilt per engine, and
// Close returns the pins when the engine is done. Schedules without a
// cache key behave exactly as before — built locally, owned by the
// engine.

// tableCacheState holds the cache new engines capture. Initialized
// lazily to tablecache.Shared() so the env-var budget override is read
// exactly once, at first engine construction.
var tableCacheState struct {
	mu   sync.Mutex
	c    *tablecache.Cache
	init bool
}

func currentTableCache() *tablecache.Cache {
	tableCacheState.mu.Lock()
	defer tableCacheState.mu.Unlock()
	if !tableCacheState.init {
		tableCacheState.c = tablecache.Shared()
		tableCacheState.init = true
	}
	return tableCacheState.c
}

// SetTableCache replaces the cache captured by subsequent NewEngine
// calls, returning the previous one. A nil cache disables table sharing
// (every engine builds privately). Existing engines keep the cache they
// were built with. It exists for tests and benchmarks that need an
// isolated or disabled cache; production callers use the shared one.
func SetTableCache(c *tablecache.Cache) (previous *tablecache.Cache) {
	tableCacheState.mu.Lock()
	defer tableCacheState.mu.Unlock()
	if !tableCacheState.init {
		tableCacheState.c = tablecache.Shared()
		tableCacheState.init = true
	}
	previous = tableCacheState.c
	tableCacheState.c = c
	return previous
}

// TableCache returns the cache subsequent NewEngine calls capture (see
// SetTableCache); nil when table sharing is disabled. Long-running
// callers that report cache stats (rvserve) read it so their numbers
// describe the cache their engines actually use.
func TableCache() *tablecache.Cache {
	return currentTableCache()
}

// pinLocked records a cache pin for Close to release. Zero handles
// (uncached artifacts) are dropped — releasing them is a no-op, so
// tracking them would only grow the slice. Caller holds e.mu.
func (e *Engine) pinLocked(h tablecache.Handle) {
	if h != (tablecache.Handle{}) {
		e.handles = append(e.handles, h)
	}
}

// Close releases the engine's pins on shared cache entries, making them
// evictable. The engine itself remains fully usable — its compiled
// slice keeps its references, and any table the cache later evicts
// stays valid (entries are immutable). Close is idempotent, and a run
// issued after Close is not a misuse: any tables such a run borrows
// anew (e.g. compiled tables for a horizon that first spans two
// periods) are re-tracked on the engine, and a later Close releases
// them too — long-running callers may Close at any quiescent point
// without leaking pins (tablecache.Stats.Pinned is the observable).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.handles {
		h.Release()
	}
	e.handles = nil
}
