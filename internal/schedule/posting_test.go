package schedule

import (
	"math/bits"
	"testing"
)

// gather drives one full slot through the two-pass protocol: Count
// every (channel, member) pair in order, Place, then Put in the same
// order. assign[i] is member i's channel, with -1 meaning absent.
func gather(p *PostingIndex, assign []int32) {
	for _, ch := range assign {
		if ch >= 0 {
			p.Count(ch)
		}
	}
	p.Place()
	for m, ch := range assign {
		if ch >= 0 {
			p.Put(ch, int32(m))
		}
	}
}

// touched decodes ChannelMask into an ascending channel list.
func touched(p *PostingIndex) []int32 {
	var out []int32
	for wi, b := range p.ChannelMask() {
		for ; b != 0; b &= b - 1 {
			out = append(out, int32(wi<<6+bits.TrailingZeros64(b)))
		}
	}
	return out
}

func wantGroups(t *testing.T, p *PostingIndex, want map[int32][]int32) {
	t.Helper()
	tc := touched(p)
	if len(tc) != len(want) {
		t.Fatalf("touched channels %v, want those of %v", tc, want)
	}
	for _, ch := range tc {
		ms, ok := want[ch]
		if !ok {
			t.Fatalf("unexpected touched channel %d (want %v)", ch, want)
		}
		got := p.Group(ch)
		if len(got) != len(ms) {
			t.Fatalf("ch %d: got %v want %v", ch, got, ms)
		}
		for i := range ms {
			if got[i] != ms[i] {
				t.Fatalf("ch %d: got %v want %v", ch, got, ms)
			}
		}
	}
}

func TestPostingIndexRoundTrip(t *testing.T) {
	p := NewPostingIndex(4, 130)
	// Channel assignment spanning member word boundaries, visited in
	// member order as the simulator does: groups must come back in that
	// order.
	assign := make([]int32, 130)
	for i := range assign {
		assign[i] = -1
	}
	for _, m := range []int{0, 63, 64, 65, 127, 128, 129} {
		assign[m] = 0
	}
	assign[5] = 2
	assign[66] = 3
	gather(p, assign)
	wantGroups(t, p, map[int32][]int32{
		0: {0, 63, 64, 65, 127, 128, 129},
		2: {5},
		3: {66},
	})
}

// TestPostingIndexResetSlot pins slot reuse: after ResetSlot the index
// accepts a fresh gather whose groups show no trace of the previous
// slot, including on channels only the previous slot touched.
func TestPostingIndexResetSlot(t *testing.T) {
	p := NewPostingIndex(3, 200)
	gather(p, []int32{0, 0, 1, -1, 0})
	wantGroups(t, p, map[int32][]int32{0: {0, 1, 4}, 1: {2}})
	p.ResetSlot()
	if tc := touched(p); len(tc) != 0 {
		t.Fatalf("touched channels after ResetSlot: %v", tc)
	}
	gather(p, []int32{2, -1, 2})
	wantGroups(t, p, map[int32][]int32{2: {0, 2}})
	p.ResetSlot()
	// A slot may be empty; the protocol must still cycle.
	gather(p, []int32{-1, -1, -1})
	if tc := touched(p); len(tc) != 0 {
		t.Fatalf("empty slot touched channels: %v", tc)
	}
}

// TestPostingIndexMaskBoundary pins the channel mask across its own
// word boundary: channels 63, 64, and 127 in a 130-channel universe
// must land in the right mask words and group correctly.
func TestPostingIndexMaskBoundary(t *testing.T) {
	p := NewPostingIndex(130, 6)
	gather(p, []int32{63, 64, 127, 63, 129, 0})
	wantGroups(t, p, map[int32][]int32{
		0:   {5},
		63:  {0, 3},
		64:  {1},
		127: {2},
		129: {4},
	})
	p.ResetSlot()
	if tc := touched(p); len(tc) != 0 {
		t.Fatalf("touched channels after ResetSlot: %v", tc)
	}
}

// TestPostingIndexTinyUniverse covers the empty universe: an index
// over zero members still cycles through an empty slot.
func TestPostingIndexTinyUniverse(t *testing.T) {
	p := NewPostingIndex(1, 0)
	gather(p, nil)
	if tc := touched(p); len(tc) != 0 {
		t.Fatalf("empty universe touched channels: %v", tc)
	}
}

// TestPostingIndexLargeUniverse gathers past 4,096 members, the width
// one 64-bit summary word of 64-member posting words covers: the index
// takes any member count, and groups spanning that boundary keep their
// visit order.
func TestPostingIndexLargeUniverse(t *testing.T) {
	const members = 4096 + 130
	p := NewPostingIndex(3, members)
	assign := make([]int32, members)
	want := map[int32][]int32{}
	for m := range assign {
		ch := int32(m % 3)
		if m >= 4000 && m < 4200 {
			ch = 1 // one long group straddling member 4,096
		}
		assign[m] = ch
		want[ch] = append(want[ch], int32(m))
	}
	gather(p, assign)
	wantGroups(t, p, want)
	p.ResetSlot()
	gather(p, assign[:4097])
	last := map[int32][]int32{}
	for m, ch := range assign[:4097] {
		last[ch] = append(last[ch], int32(m))
	}
	wantGroups(t, p, last)
}
