package schedule_test

import (
	"testing"

	"rendezvous/internal/schedtest"
	"rendezvous/internal/schedule"
)

// TestConformance runs the shared Schedule conformance suite against
// every construction in this package, including compiled tables and
// the flagship wrapper stack.
func TestConformance(t *testing.T) {
	cases := map[string]func(t *testing.T) schedule.Schedule{
		"Constant": func(t *testing.T) schedule.Schedule {
			return schedule.NewConstant(3)
		},
		"Cyclic": func(t *testing.T) schedule.Schedule {
			c, err := schedule.NewCyclic([]int{2, 5, 2, 9, 1})
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"General": func(t *testing.T) schedule.Schedule {
			g, err := schedule.NewGeneral(64, []int{3, 17, 40, 63})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"GeneralSingleton": func(t *testing.T) schedule.Schedule {
			g, err := schedule.NewGeneral(16, []int{7})
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"Symmetric(General)": func(t *testing.T) schedule.Schedule {
			s, err := schedule.NewAsync(64, []int{3, 17, 40})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"Symmetric(General)PastChannel64": func(t *testing.T) schedule.Schedule {
			// 5 and 69 share hop-mask bit 5, 133 and 5 do too.
			s, err := schedule.NewAsync(160, []int{5, 69, 133, 150})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"Symmetric(Cyclic)": func(t *testing.T) schedule.Schedule {
			c, err := schedule.NewCyclic([]int{4, 1, 4, 2})
			if err != nil {
				t.Fatal(err)
			}
			return schedule.NewSymmetric(c)
		},
		"DynamicSinglePhase": func(t *testing.T) schedule.Schedule {
			d, err := schedule.NewDynamic(32, []schedule.Phase{
				{FromSlot: 0, Channels: []int{1, 9, 30}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"DynamicMultiPhase": func(t *testing.T) schedule.Schedule {
			d, err := schedule.NewDynamic(32, []schedule.Phase{
				{FromSlot: 0, Channels: []int{1, 9, 30}},
				{FromSlot: 137, Channels: []int{9, 12}},
				{FromSlot: 1000, Channels: []int{2, 9, 12, 31}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"Symmetric(DynamicMultiPhase)": func(t *testing.T) schedule.Schedule {
			d, err := schedule.NewDynamic(32, []schedule.Phase{
				{FromSlot: 0, Channels: []int{1, 9, 30}},
				{FromSlot: 137, Channels: []int{9, 12}},
			})
			if err != nil {
				t.Fatal(err)
			}
			return schedule.NewSymmetric(d)
		},
		"Compiled(General)": func(t *testing.T) schedule.Schedule {
			g, err := schedule.NewGeneral(16, []int{2, 7, 11})
			if err != nil {
				t.Fatal(err)
			}
			c := schedule.Compile(g)
			if _, ok := c.(*schedule.Compiled); !ok {
				t.Fatalf("Compile did not materialize a table for period %d", g.Period())
			}
			return c
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			schedtest.Conform(t, build(t))
		})
	}
}

// TestCompileRefusals pins the compile fallback rules: eventually
// periodic schedules and periods beyond the cap must pass through
// unchanged.
func TestCompileRefusals(t *testing.T) {
	d, err := schedule.NewDynamic(32, []schedule.Phase{
		{FromSlot: 0, Channels: []int{1, 9}},
		{FromSlot: 50, Channels: []int{9, 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := schedule.Compile(d); c != schedule.Schedule(d) {
		t.Fatalf("Compile materialized a multi-phase Dynamic (transitional prefix would be lost)")
	}
	if c := schedule.Compile(schedule.NewSymmetric(d)); c.(*schedule.Symmetric) == nil || c == nil {
		t.Fatalf("unexpected nil")
	} else if _, ok := c.(*schedule.Compiled); ok {
		t.Fatalf("Compile materialized a wrapper over a multi-phase Dynamic")
	}
	g, err := schedule.NewGeneral(64, []int{3, 17, 40, 63})
	if err != nil {
		t.Fatal(err)
	}
	if c := schedule.CompileCap(g, g.Period()-1); c != schedule.Schedule(g) {
		t.Fatalf("CompileCap ignored the size cap")
	}
	// Compile is idempotent: compiling a compiled schedule is a no-op.
	c1 := schedule.Compile(g)
	if c2 := schedule.Compile(c1); c2 != c1 {
		t.Fatalf("Compile of a Compiled schedule rebuilt the table")
	}
}
