package schedule

import (
	"strconv"
)

// Cache keys: a schedule's identity as a pure function.
//
// Every schedule in this repository is a deterministic function of its
// construction parameters, so two values built from equal parameters
// emit identical hop sequences forever. CacheKey canonicalizes those
// parameters into a short string, which is what lets the shared table
// cache (internal/tablecache) recognize "the same schedule" across
// engines, runs, and processes-worth of sweep jobs and hand every
// caller one compiled table instead of rebuilding it per engine.
//
// The contract is strict: two schedules may share a key ONLY if their
// Channel functions are extensionally equal (same channel at every
// slot). Schedules that cannot promise that — Dynamic timelines, the
// beacon protocols (whose permutations depend on an external source),
// any wrapper over an unkeyed schedule — simply do not implement the
// interface, and KeyOf reports ok=false; such schedules are still fully
// usable, they just never share cached tables.

// CacheKeyer is the optional identity contract next to Schedule
// (analogous to BlockEvaluator): CacheKey returns a canonical encoding
// of the schedule's construction parameters, with ok=false when the
// schedule cannot guarantee extensional equality for equal keys.
type CacheKeyer interface {
	CacheKey() (key string, ok bool)
}

// KeyOf returns the schedule's cache key when it implements CacheKeyer
// (directly or by delegation) and ok=false otherwise. The key spaces of
// distinct schedule types never collide: every implementation prefixes
// its type tag.
func KeyOf(s Schedule) (string, bool) {
	k, ok := s.(CacheKeyer)
	if !ok {
		return "", false
	}
	return k.CacheKey()
}

// KeyInts renders an int slice into a compact canonical form for cache
// keys ("|3.90.512"); exported so schedule implementations outside this
// package (internal/baselines) build keys the same way.
func KeyInts(xs []int) string {
	b := make([]byte, 0, 4*len(xs)+1)
	b = append(b, '|')
	for i, x := range xs {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// CacheKey implements CacheKeyer: a Constant is its channel.
func (c Constant) CacheKey() (string, bool) {
	return "const|" + strconv.Itoa(c.ch), true
}

// CacheKey implements CacheKeyer. The full sequence identifies a
// Cyclic, but sequences can be long, so the key carries its length and
// an FNV-1a fingerprint instead of the literal values.
func (c *Cyclic) CacheKey() (string, bool) {
	return "cyc|" + strconv.Itoa(len(c.seq)) + "|" + strconv.FormatUint(fnvInts(c.seq), 36), true
}

// CacheKey implements CacheKeyer: a General schedule is determined by
// its universe and channel set (primes and words are derived).
func (g *General) CacheKey() (string, bool) {
	return "gen|" + strconv.Itoa(g.n) + KeyInts(g.channels), true
}

// CacheKey implements CacheKeyer by delegation: the §3.2 wrapper is a
// pure function of its inner schedule (c0 is derived), so it is keyed
// iff the inner schedule is.
func (s *Symmetric) CacheKey() (string, bool) {
	inner, ok := KeyOf(s.inner)
	if !ok {
		return "", false
	}
	return "sym(" + inner + ")", true
}

// CacheKey implements CacheKeyer by delegation: a compiled table is a
// verified equivalent of its inner schedule, so it shares the inner
// key, and a wrapper around it keys the same entry as one around the
// uncompiled schedule.
func (c *Compiled) CacheKey() (string, bool) {
	return KeyOf(c.inner)
}

// fnvInts is FNV-1a over the little-endian bytes of each value — a
// stable 64-bit fingerprint for int-slice key components.
func fnvInts(xs []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range xs {
		v := uint64(x)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return h
}
