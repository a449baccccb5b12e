package schedule

import "sync"

// The §3.2 reduction: any schedule Σ that guarantees rendezvous for all
// pairs of sets can be transformed into one that additionally guarantees
// O(1) rendezvous for identical sets, at a 12× cost for everyone else.
//
// When the inner schedule calls for channel c1, the wrapped schedule
// performs the 12-slot block (c0 c1 c0 c0 c1 c1)² with c0 = min(S). The
// bit pattern 010011 satisfies 010011 ◇₀ 010011 — any two rotations
// realize simultaneous (0,0) and (1,1) — so two agents with the same set
// hit (c0, c0) within the first overlapping block (O(1) slots), while
// any rendezvous slot of the inner schedules maps to a (c1, c1) hit
// inside the corresponding overlapping blocks.

// symmetricPattern is the §3.2 access pattern: 0 ⇒ hop min(S), 1 ⇒ hop
// the channel the inner schedule called for.
var symmetricPattern = [6]byte{0, 1, 0, 0, 1, 1}

// SymmetricBlockLen is the length of the wrapped block emitted for each
// inner slot (the 6-slot pattern repeated twice).
const SymmetricBlockLen = 12

// Symmetric wraps an inner schedule with the §3.2 pattern.
type Symmetric struct {
	inner Schedule
	c0    int
}

var _ Schedule = (*Symmetric)(nil)
var _ HopMasker = (*Symmetric)(nil)

// NewSymmetric wraps inner with the §3.2 min-channel pattern.
func NewSymmetric(inner Schedule) *Symmetric {
	chans := inner.Channels()
	c0 := chans[0]
	for _, c := range chans[1:] {
		if c < c0 {
			c0 = c
		}
	}
	return &Symmetric{inner: inner, c0: c0}
}

// Channel implements Schedule.
func (s *Symmetric) Channel(t int) int {
	CheckSlot(t)
	if symmetricPattern[t%SymmetricBlockLen%6] == 0 {
		return s.c0
	}
	return s.inner.Channel(t / SymmetricBlockLen)
}

// innerBufPool recycles the wrapper's inner-slot buffers: handing a
// stack array to FillBlock's interface call forces it to the heap, and
// the joint engine calls ChannelBlock once per agent per block — tens
// of thousands of times per fleet run.
var innerBufPool = sync.Pool{New: func() any { return new([32]int) }}

// ChannelBlock implements BlockEvaluator: the inner schedule is
// evaluated in blocks of its own (one inner slot per 12 outer slots)
// and each inner channel c1 expands to its whole 12-slot block
// (c0 c1 c0 c0 c1 c1)², copied into dst — clipped at dst's first and
// last block — so the wrapper does no per-slot division or pattern
// lookup and adds no per-slot inner calls.
func (s *Symmetric) ChannelBlock(dst []int, start int) {
	CheckSlot(start)
	if len(dst) == 0 {
		return
	}
	bp := innerBufPool.Get().(*[32]int)
	defer innerBufPool.Put(bp)
	c0 := s.c0
	in := start / SymmetricBlockLen
	last := (start + len(dst) - 1) / SymmetricBlockLen
	off := start % SymmetricBlockLen // dst[0]'s position in its block
	out := 0
	for in <= last {
		ibuf := bp[:min(last-in+1, len(bp))]
		FillBlock(s.inner, ibuf, in)
		for _, c1 := range ibuf {
			if off == 0 && out+SymmetricBlockLen <= len(dst) {
				symmetricBlock((*[SymmetricBlockLen]int)(dst[out:]), c0, c1)
				out += SymmetricBlockLen
				continue
			}
			var b [SymmetricBlockLen]int
			symmetricBlock(&b, c0, c1)
			out += copy(dst[out:], b[off:])
			off = 0
		}
		in += len(ibuf)
	}
}

// HopMask implements HopMasker: the bit of c0, ORed with the inner
// schedule's hop mask over the inner slots the range touches, one per
// 12 outer slots. An inner schedule without a HopMask gives all ones.
func (s *Symmetric) HopMask(start, n int) uint64 {
	CheckSlot(start)
	im, ok := s.inner.(HopMasker)
	if !ok {
		return ^uint64(0)
	}
	first := start / SymmetricBlockLen
	return 1<<(uint(s.c0)&63) | im.HopMask(first, (start+n-1)/SymmetricBlockLen-first+1)
}

// symmetricBlock stores the block played for inner channel c1:
// symmetricPattern twice, spelled out element by element so it
// compiles to twelve direct stores with no per-slot lookup. Assigning
// an array literal to *b would build it in a stack temporary and copy
// it through runtime.duffcopy, a third of the pairwise scan's CPU.
func symmetricBlock(b *[SymmetricBlockLen]int, c0, c1 int) {
	b[0], b[1], b[2], b[3], b[4], b[5] = c0, c1, c0, c0, c1, c1
	b[6], b[7], b[8], b[9], b[10], b[11] = c0, c1, c0, c0, c1, c1
}

// Period implements Schedule.
func (s *Symmetric) Period() int { return SymmetricBlockLen * s.inner.Period() }

// Channels implements Schedule.
func (s *Symmetric) Channels() []int { return s.inner.Channels() }

// AllChannels propagates the complete hop set of wrapped schedules
// whose channel availability varies over time (see Dynamic).
func (s *Symmetric) AllChannels() []int { return AllChannels(s.inner) }

// PeriodIsEventual propagates the EventualPeriod marker of wrapped
// schedules whose period is only eventually valid (see Dynamic).
func (s *Symmetric) PeriodIsEventual() bool { return IsEventuallyPeriodic(s.inner) }

// MinChannel returns c0 = min(S), the channel symmetric pairs meet on.
func (s *Symmetric) MinChannel() int { return s.c0 }

// Inner returns the wrapped schedule.
func (s *Symmetric) Inner() Schedule { return s.inner }
