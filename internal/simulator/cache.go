package simulator

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"rendezvous/internal/schedule"
	"rendezvous/internal/tablecache"
)

// The engine side of the shared table cache (internal/tablecache).
// Every NewEngine captures the current process-wide cache; compiled hop
// tables, dense-id tables, and horizon prefix tables are then borrowed
// from it instead of rebuilt per engine, and Close returns the pins
// when the engine is done. Schedules without a cache key behave exactly
// as before — built locally, owned by the engine.

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

// prefixBudget caps the memory the engine spends on horizon-prefix
// dense tables (schedule.DensePrefix) for schedules whose period is
// too long to compile: 4 bytes per agent per slot adds up at network
// scale, so fleets over the budget keep the regenerate-per-block
// fallback.
var prefixBudget atomic.Int64

func init() { prefixBudget.Store(64 << 20) }

// SetPrefixBudget sets the horizon-prefix table budget in bytes,
// returning the previous value. It exists for tests and benchmarks that
// need to force the no-table fallback paths.
func SetPrefixBudget(bytes int) (previous int) {
	return int(prefixBudget.Swap(int64(bytes)))
}

// pinLocked records a cache pin for Close to release. Zero handles
// (uncached artifacts) are dropped — releasing them is a no-op, so
// tracking them would only grow the slice. Caller holds e.mu.
func (e *Engine) pinLocked(h tablecache.Handle) {
	if h != (tablecache.Handle{}) {
		e.handles = append(e.handles, h)
	}
}

// uniKeyLocked returns the engine's universe fingerprint — an FNV-1a
// hash of the sorted hop-set union that scopes dense-table cache keys,
// since dense ids are positions in that union. Caller holds e.mu.
func (e *Engine) uniKeyLocked() string {
	if e.uniKey == "" {
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for _, ch := range e.union {
			v := uint64(ch)
			for b := 0; b < 8; b++ {
				h ^= v & 0xff
				h *= prime64
				v >>= 8
			}
		}
		h ^= uint64(len(e.union))
		h *= prime64
		e.uniKey = strconv.FormatUint(h, 36)
	}
	return e.uniKey
}

// setDenseLocked makes d agent i's dense table and swaps the agent's
// pin for h, so the engine holds one dense pin per agent. densePins is
// allocated with the first table: engines that never run a joint scan
// carry none. Caller holds e.mu (engine before cache, as everywhere).
func (e *Engine) setDenseLocked(i int, d *schedule.DenseTable, h tablecache.Handle) {
	if e.densePins == nil {
		e.densePins = make([]tablecache.Handle, len(e.agents))
	}
	e.densePins[i].Release()
	e.dense[i], e.densePins[i] = d, h
}

// Close releases the engine's pins on shared cache entries, making them
// evictable. The engine itself remains fully usable — its compiled and
// dense slices keep their references, and any table the cache later
// evicts stays valid (entries are immutable). Close is idempotent, and
// a run issued after Close is not a misuse: any tables such a run
// borrows anew (e.g. longer prefix tables for a horizon past the
// engine's) are re-tracked on the engine, and a later Close releases
// them too — long-running callers may Close at any quiescent point
// without leaking pins (tablecache.Stats.Pinned is the observable).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range slices.Concat(e.handles, e.densePins) {
		h.Release()
	}
	e.handles = nil
	clear(e.densePins)
}
