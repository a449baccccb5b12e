package schedule

import "math/bits"

// The posting-list layer of the dense-id pipeline: an inverted index
// over dense channel ids, rebuilt one time slot at a time. Where
// dense.go turns schedules into flat int32 id streams, PostingIndex
// groups one slot of those streams by channel — the posting list of
// members (agents, in the simulator's use) listening on each channel —
// via a two-pass counting gather: Count every member's channel, Place
// the per-channel group offsets, then Put each member into its group.
// Members are presented in visit order within a group (the simulator
// visits ascending), which is the contract first-meeting detection
// relies on: a member only ever intersects against earlier-id members
// of its own group.
//
// The index holds member ids, not bitsets: groups are disjoint (a
// member listens on exactly one channel per slot), so the consumer can
// materialize one group's member bitset at a time in its own scratch
// while walking it, rather than the index keeping a bitset per
// channel. Which channels have members is itself a
// bitset (ChannelMask), kept by an unconditional OR in Count — no
// first-arrival branch on the hot path — and ResetSlot clears in
// O(touched channels), so a slot in which most channels are silent
// costs nothing for them. The gather is O(members) per slot at any
// universe size.

// PostingIndex gathers one slot's members into per-channel posting
// lists. It is sized once for a (channels, members) universe and reused
// across slots and runs; it is not safe for concurrent use (each
// worker owns one).
type PostingIndex struct {
	cnt  []int32  // per-channel member count for the slot being built
	pos  []int32  // per-channel write cursor into out (end offset after Put)
	mask []uint64 // bitset of channels with ≥ 1 member this slot
	out  []int32  // members grouped by channel, caller's visit order within each
}

// NewPostingIndex returns an index over the given universe sizes: any
// number of channels and members.
func NewPostingIndex(channels, members int) *PostingIndex {
	return &PostingIndex{
		cnt:  make([]int32, channels),
		pos:  make([]int32, channels),
		mask: make([]uint64, (channels+63)/64),
		out:  make([]int32, members),
	}
}

// Count notes one member listening on channel ch (counting pass; call
// once per member, before Place). Branch-free: the channel mask is
// kept by an unconditional OR.
func (p *PostingIndex) Count(ch int32) {
	p.cnt[ch]++
	p.mask[ch>>6] |= 1 << (ch & 63)
}

// Place seals the counting pass, assigning each touched channel's
// group a contiguous region of the member array.
func (p *PostingIndex) Place() {
	s := int32(0)
	for wi, b := range p.mask {
		for ; b != 0; b &= b - 1 {
			c := wi<<6 + bits.TrailingZeros64(b)
			p.pos[c] = s
			s += p.cnt[c]
		}
	}
}

// Put appends member m to channel ch's group (placement pass; visit
// members in the same order as Count so groups keep that order).
func (p *PostingIndex) Put(ch, m int32) {
	p.out[p.pos[ch]] = m
	p.pos[ch]++
}

// ChannelMask returns the bitset of channels with at least one member
// this slot: bit c of word c>>6. Valid until ResetSlot; the slice
// aliases the index.
func (p *PostingIndex) ChannelMask() []uint64 { return p.mask }

// Group returns channel ch's members in visit order. Valid after every
// Put, until ResetSlot; the slice aliases the index.
func (p *PostingIndex) Group(ch int32) []int32 {
	end := p.pos[ch]
	return p.out[end-p.cnt[ch] : end]
}

// ResetSlot forgets the current slot's groups in O(touched channels),
// readying the index for the next Count pass.
func (p *PostingIndex) ResetSlot() {
	for wi, b := range p.mask {
		if b == 0 {
			continue
		}
		for ; b != 0; b &= b - 1 {
			p.cnt[wi<<6+bits.TrailingZeros64(b)] = 0
		}
		p.mask[wi] = 0
	}
}
