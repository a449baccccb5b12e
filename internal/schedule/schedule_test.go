package schedule

import (
	"testing"
)

// ttr returns the number of slots after the later agent wakes until the
// two schedules first hop a common channel, given that a woke delta
// slots earlier than b. ok is false if no rendezvous occurs within
// horizon slots.
func ttr(a, b Schedule, delta, horizon int) (int, bool) {
	for s := 0; s < horizon; s++ {
		if a.Channel(s+delta) == b.Channel(s) {
			return s, true
		}
	}
	return 0, false
}

func TestConstant(t *testing.T) {
	c := NewConstant(7)
	for _, slot := range []int{0, 1, 100} {
		if c.Channel(slot) != 7 {
			t.Fatalf("Channel(%d) = %d", slot, c.Channel(slot))
		}
	}
	if c.Period() != 1 {
		t.Errorf("Period = %d", c.Period())
	}
	if ch := c.Channels(); len(ch) != 1 || ch[0] != 7 {
		t.Errorf("Channels = %v", ch)
	}
}

func TestCyclic(t *testing.T) {
	c, err := NewCyclic([]int{3, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 3, 2, 3, 1, 3, 2}
	for i, w := range want {
		if got := c.Channel(i); got != w {
			t.Fatalf("Channel(%d) = %d, want %d", i, got, w)
		}
	}
	if c.Period() != 4 {
		t.Errorf("Period = %d", c.Period())
	}
	chans := c.Channels()
	if len(chans) != 3 || chans[0] != 1 || chans[1] != 2 || chans[2] != 3 {
		t.Errorf("Channels = %v", chans)
	}
	// The returned slice must be a copy.
	chans[0] = 99
	if c.Channels()[0] == 99 {
		t.Error("Channels leaked internal state")
	}
	if _, err := NewCyclic(nil); err == nil {
		t.Error("empty cycle: expected error")
	}
}

func TestValidateChannels(t *testing.T) {
	if _, err := ValidateChannels(0, []int{1}); err == nil {
		t.Error("n=0: expected error")
	}
	if _, err := ValidateChannels(5, nil); err == nil {
		t.Error("empty set: expected error")
	}
	if _, err := ValidateChannels(5, []int{2, 2}); err == nil {
		t.Error("duplicates: expected error")
	}
	if _, err := ValidateChannels(5, []int{0, 3}); err == nil {
		t.Error("channel 0: expected error")
	}
	if _, err := ValidateChannels(5, []int{3, 6}); err == nil {
		t.Error("channel > n: expected error")
	}
	got, err := ValidateChannels(9, []int{5, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Errorf("sorted = %v", got)
	}
}

// TestHopMaskEntryPoint pins HopMask's two answers: a schedule with a
// native HopMask gets its own mask, and one without gets all ones, as
// does the §3.2 wrapper around it.
func TestHopMaskEntryPoint(t *testing.T) {
	g, err := NewAsync(160, []int{5, 69, 140})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCyclic([]int{3, 70, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int{0, 11, 250, 4097} {
		if m, want := HopMask(g, start, 200), g.HopMask(start, 200); m != want {
			t.Fatalf("native: HopMask(start=%d) = %#x, want %#x", start, m, want)
		}
		for _, s := range []Schedule{c, NewSymmetric(c)} {
			if m := HopMask(s, start, 200); m != ^uint64(0) {
				t.Fatalf("%T without a native mask: HopMask(start=%d) = %#x, want all ones", s, start, m)
			}
		}
	}
}
