package tablecache

import (
	"fmt"
	"testing"

	"rendezvous/internal/schedule"
)

func mustCyclic(t *testing.T, seq []int) *schedule.Cyclic {
	t.Helper()
	c, err := schedule.NewCyclic(seq)
	if err != nil {
		t.Fatalf("NewCyclic(%v): %v", seq, err)
	}
	return c
}

func seq(base, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = base + i
	}
	return xs
}

func TestCompileSharesTables(t *testing.T) {
	c := New(1 << 20)
	a := mustCyclic(t, seq(1, 16))
	b := mustCyclic(t, seq(1, 16)) // distinct value, equal parameters

	ca, ha := c.Compile(a)
	cb, hb := c.Compile(b)
	defer ha.Release()
	defer hb.Release()

	if ca != cb {
		t.Fatalf("equal-parameter schedules got distinct compiled tables")
	}
	if _, ok := ca.(*schedule.Compiled); !ok {
		t.Fatalf("Compile returned %T, want *schedule.Compiled", ca)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after shared compile = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	for slot := 0; slot < 40; slot++ {
		if got, want := ca.Channel(slot), a.Channel(slot); got != want {
			t.Fatalf("cached table: channel(%d) = %d, want %d", slot, got, want)
		}
	}
}

// TestStatsPinned pins the pin-leak observables: Pinned counts entries
// with outstanding pins, Refs the pins themselves, and both return to
// zero once every handle is released — the invariant rvserve's drain
// asserts after closing its engines.
func TestStatsPinned(t *testing.T) {
	c := New(1 << 20)
	a := mustCyclic(t, seq(1, 16))
	b := mustCyclic(t, seq(30, 16))

	_, ha := c.Compile(a)
	_, hb1 := c.Compile(b)
	_, hb2 := c.Compile(b) // second pin on the same entry

	if st := c.Stats(); st.Pinned != 2 || st.Refs != 3 {
		t.Fatalf("with 3 pins over 2 entries, stats = %+v", st)
	}
	hb1.Release()
	if st := c.Stats(); st.Pinned != 2 || st.Refs != 2 {
		t.Fatalf("after one release, stats = %+v", st)
	}
	hb2.Release()
	ha.Release()
	st := c.Stats()
	if st.Pinned != 0 || st.Refs != 0 {
		t.Fatalf("pins survive full release: %+v", st)
	}
	if st.Entries != 2 {
		t.Fatalf("unpinned entries under budget were dropped: %+v", st)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	s := mustCyclic(t, seq(1, 8))
	cs, h := c.Compile(s)
	h.Release() // zero handle must be a no-op
	if _, ok := cs.(*schedule.Compiled); !ok {
		t.Fatalf("nil cache Compile returned %T, want *schedule.Compiled", cs)
	}
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", got)
	}
}

func TestUnkeyedSchedulePassesThrough(t *testing.T) {
	c := New(1 << 20)
	// A raw func-backed schedule has no CacheKey.
	s := scheduleFunc{}
	cs, h := c.Compile(s)
	h.Release()
	if _, ok := cs.(*schedule.Compiled); !ok {
		t.Fatalf("unkeyed Compile returned %T, want *schedule.Compiled", cs)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("unkeyed schedule was cached: %+v", st)
	}
}

// scheduleFunc is a minimal keyless schedule: constant channel 3.
type scheduleFunc struct{}

func (scheduleFunc) Channel(t int) int { return 3 }
func (scheduleFunc) Period() int       { return 4 }
func (scheduleFunc) Channels() []int   { return []int{3} }

// TestEvictionUnderPressure is the cache-eviction-under-pressure check:
// a budget far below one table forces every unpinned entry out, counts
// evictions, and the returned tables stay correct throughout.
func TestEvictionUnderPressure(t *testing.T) {
	c := New(1) // 1 byte: nothing unpinned survives
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			s := mustCyclic(t, seq(10*i+1, 8))
			cs, h := c.Compile(s)
			for slot := 0; slot < 16; slot++ {
				if got, want := cs.Channel(slot), s.Channel(slot); got != want {
					t.Fatalf("round %d sched %d: channel(%d) = %d, want %d", round, i, slot, got, want)
				}
			}
			// Pinned entries may hold the cache over budget...
			if st := c.Stats(); st.Entries == 0 {
				t.Fatalf("pinned entry evicted: %+v", st)
			}
			h.Release()
		}
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("over-budget cache retained entries after release: %+v", st)
	}
	if st.Evictions < 12 {
		t.Fatalf("evictions = %d, want >= 12 (every release past budget evicts)", st.Evictions)
	}
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 (budget 1 can never retain)", st.Hits)
	}
}

func TestLRUEvictsColdestFirst(t *testing.T) {
	// Each 8-slot Cyclic compiles to an 8-entry table = 64 bytes;
	// budget fits exactly two.
	c := New(128)
	a := mustCyclic(t, seq(1, 8))
	b := mustCyclic(t, seq(21, 8))
	d := mustCyclic(t, seq(41, 8))

	_, ha := c.Compile(a)
	_, hb := c.Compile(b)
	ha.Release()
	hb.Release()
	// Touch a so b is coldest, then insert d to force one eviction.
	_, ha = c.Compile(a)
	ha.Release()
	_, hd := c.Compile(d)
	hd.Release()

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want exactly 1 eviction / 2 entries", st)
	}
	_, ha = c.Compile(a)
	ha.Release()
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("a was evicted instead of b: %+v", st)
	}
}

func TestConcurrentCompile(t *testing.T) {
	c := New(1 << 20)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				s := mustCyclicErr(seq(10*(i%5)+1, 8))
				cs, h := c.Compile(s)
				if got, want := cs.Channel(3), s.Channel(3); got != want {
					err = fmt.Errorf("channel(3) = %d, want %d", got, want)
				}
				h.Release()
			}
			done <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
}

func mustCyclicErr(seq []int) *schedule.Cyclic {
	c, err := schedule.NewCyclic(seq)
	if err != nil {
		panic(err)
	}
	return c
}
