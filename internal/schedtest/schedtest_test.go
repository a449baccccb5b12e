package schedtest

import (
	"fmt"
	"strings"
	"testing"

	"rendezvous/internal/schedule"
)

// The suite's own test: Conform must FAIL each deliberately broken
// schedule below, with a message naming the violated clause. A
// conformance suite that cannot reject a broken implementation is
// decorative; this file proves each clause bites.

// recorder implements T, capturing the first Fatalf instead of
// aborting the test binary. Fatalf panics with abortConform to mimic
// FailNow's control flow (Conform assumes Fatalf does not return).
type recorder struct {
	failed bool
	msg    string
}

type abortConform struct{}

func (r *recorder) Helper() {}
func (r *recorder) Fatalf(format string, args ...any) {
	r.failed = true
	r.msg = fmt.Sprintf(format, args...)
	panic(abortConform{})
}

// conformFailure runs Conform against s and returns the recorded
// failure message ("" if the suite passed the schedule).
func conformFailure(s schedule.Schedule) string {
	rec := &recorder{}
	func() {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(abortConform); !ok {
					panic(p)
				}
			}
		}()
		Conform(rec, s)
	}()
	return rec.msg
}

// base returns a healthy two-channel cycle for the saboteurs to wrap.
func base(t *testing.T) *schedule.Cyclic {
	t.Helper()
	c, err := schedule.NewCyclic([]int{3, 7, 3, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// broken wraps a healthy schedule and lets each test override exactly
// one behavior. The zero overrides delegate everything.
type broken struct {
	schedule.Schedule
	channel  func(inner schedule.Schedule, t int) int
	channels func(inner schedule.Schedule) []int
	period   func(inner schedule.Schedule) int
	block    func(inner schedule.Schedule, dst []int, start int)
}

func (b *broken) Channel(t int) int {
	if b.channel != nil {
		return b.channel(b.Schedule, t)
	}
	return b.Schedule.Channel(t)
}

func (b *broken) Channels() []int {
	if b.channels != nil {
		return b.channels(b.Schedule)
	}
	return b.Schedule.Channels()
}

func (b *broken) Period() int {
	if b.period != nil {
		return b.period(b.Schedule)
	}
	return b.Schedule.Period()
}

func (b *broken) ChannelBlock(dst []int, start int) {
	if b.block != nil {
		b.block(b.Schedule, dst, start)
		return
	}
	schedule.FillBlock(b.Schedule, dst, start)
}

// withAll adds a lying AllChannels on top of broken.
type withAll struct {
	*broken
	all []int
}

func (w withAll) AllChannels() []int { return append([]int(nil), w.all...) }

// withMask adds a HopMask on top of broken: the exact fold of the
// window's channels, minus the bits in drop.
type withMask struct {
	*broken
	drop uint64
}

func (w withMask) HopMask(start, n int) uint64 {
	dst := make([]int, n)
	schedule.FillBlock(w.broken, dst, start)
	var m uint64
	for _, c := range dst {
		m |= 1 << (uint(c) & 63)
	}
	return m &^ w.drop
}

func TestConformAcceptsHealthySchedule(t *testing.T) {
	if msg := conformFailure(base(t)); msg != "" {
		t.Fatalf("healthy schedule rejected: %s", msg)
	}
	if msg := conformFailure(&broken{Schedule: base(t)}); msg != "" {
		t.Fatalf("transparent wrapper rejected: %s", msg)
	}
	if msg := conformFailure(withMask{broken: &broken{Schedule: base(t)}}); msg != "" {
		t.Fatalf("exact HopMask rejected: %s", msg)
	}
}

// TestConformRejectsEachBrokenClause: one saboteur per conformance
// clause; every one must be rejected with a message naming its clause.
func TestConformRejectsEachBrokenClause(t *testing.T) {
	cases := []struct {
		name    string
		build   func() schedule.Schedule
		wantMsg string // substring the failure must contain
	}{
		{
			name: "non-positive period",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), period: func(schedule.Schedule) int { return 0 }}
			},
			wantMsg: "want positive",
		},
		{
			name: "empty channel set",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channels: func(schedule.Schedule) []int { return nil }}
			},
			wantMsg: "empty",
		},
		{
			name: "unsorted channel set",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channels: func(schedule.Schedule) []int { return []int{7, 3} }}
			},
			wantMsg: "not sorted",
		},
		{
			name: "duplicate channels",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channels: func(schedule.Schedule) []int { return []int{3, 3, 7} }}
			},
			wantMsg: "duplicate",
		},
		{
			name: "impure channel",
			build: func() schedule.Schedule {
				calls := 0
				return &broken{Schedule: base(t), channel: func(inner schedule.Schedule, tt int) int {
					if tt < 0 {
						return inner.Channel(tt)
					}
					calls++
					if calls%2 == 0 && tt == 3 {
						return 7
					}
					return inner.Channel(tt)
				}}
			},
			wantMsg: "impure",
		},
		{
			name: "hop outside declared set",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channel: func(inner schedule.Schedule, tt int) int {
					if tt == 2 {
						return 99
					}
					return inner.Channel(tt)
				}}
			},
			wantMsg: "not in hop set",
		},
		{
			name: "period violation",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channel: func(inner schedule.Schedule, tt int) int {
					if tt >= 5 { // inner period is 5: second cycle diverges
						return 3
					}
					return inner.Channel(tt)
				}}
			},
			wantMsg: "period violation",
		},
		{
			name: "block path diverges from per-slot",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), block: func(inner schedule.Schedule, dst []int, start int) {
					schedule.FillBlock(inner, dst, start)
					for i := range dst {
						if (start+i)%11 == 10 {
							dst[i] = 3
						}
					}
				}}
			},
			wantMsg: "want Channel",
		},
		{
			name: "negative slot not rejected",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), channel: func(inner schedule.Schedule, tt int) int {
					if tt < 0 {
						return 3 // silently tolerates the contract violation
					}
					return inner.Channel(tt)
				}}
			},
			wantMsg: "Channel(-1) did not panic",
		},
		{
			name: "negative block start not rejected",
			build: func() schedule.Schedule {
				return &broken{Schedule: base(t), block: func(inner schedule.Schedule, dst []int, start int) {
					if start < 0 {
						for i := range dst {
							dst[i] = 3
						}
						return
					}
					schedule.FillBlock(inner, dst, start)
				}}
			},
			wantMsg: "ChannelBlock(start=-3) did not panic",
		},
		{
			name: "HopMask missing a hopped channel",
			build: func() schedule.Schedule {
				return withMask{broken: &broken{Schedule: base(t)}, drop: 1 << 7}
			},
			wantMsg: "HopMask(start=",
		},
		{
			name: "AllChannels missing a hopped channel",
			build: func() schedule.Schedule {
				return withAll{broken: &broken{Schedule: base(t)}, all: []int{3}}
			},
			wantMsg: "missing from AllChannels",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := conformFailure(c.build())
			if msg == "" {
				t.Fatalf("Conform accepted the broken schedule")
			}
			if !strings.Contains(msg, c.wantMsg) {
				t.Fatalf("failure message %q does not name the clause (want substring %q)", msg, c.wantMsg)
			}
		})
	}
}
