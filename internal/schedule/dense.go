package schedule

// The dense-id variant of the block layer: the simulator remaps raw
// channel values to dense ids 0 … count−1 once per engine (from the
// union of every agent's hop set), and the hot loops then consume
// int32 id blocks — flat occupancy indexing with no per-slot value→id
// translation, and half the buffer bytes of []int. The raw channel
// value is recovered from the id→value table only at the rare
// candidate meeting.

// DenseTable is one full period of a compiled schedule remapped to
// dense int32 channel ids. Like Compiled it is immutable after
// construction and safe for concurrent readers.
type DenseTable struct {
	table []int32
	// prefix marks a table built by DensePrefix: it covers only slots
	// [0, len(table)), not a full period, so wraparound reads are a
	// caller bug rather than a cheap modulo.
	prefix bool
}

// CompileDense remaps a compiled schedule's hop table through id,
// yielding a dense-id table. ok is false when s carries no materialized
// hop table (CompileCap fell back to the schedule's own evaluation —
// eventual period, period over the cap, or failed verification); such
// schedules keep the FillBlockDense fallback path. id is applied once
// per table slot at build time, so a schedule that violates its
// AllChannels contract still fails loudly (the id func panics), just at
// construction instead of mid-scan.
func CompileDense(s Schedule, id func(ch int) int32) (d *DenseTable, ok bool) {
	c, isCompiled := s.(*Compiled)
	if !isCompiled {
		return nil, false
	}
	out := make([]int32, len(c.table))
	for i, ch := range c.table {
		out[i] = id(ch)
	}
	return &DenseTable{table: out}, true
}

// DensePrefix materializes dense ids for schedule-local slots
// [0, slots) of an arbitrary schedule — the horizon-bounded complement
// of CompileDense for schedules whose period is too long to compile.
// Evaluation cost is paid once at build time; every later FillBlock is
// a straight copy. The caller owns the memory trade (4 bytes per slot)
// and must not read at or past slots. A prefix table of slots serves
// every shorter horizon too: its first L slots are the L-slot prefix.
func DensePrefix(s Schedule, slots int, id func(ch int) int32, scratch []int) *DenseTable {
	out := make([]int32, slots)
	for base := 0; base < slots; base += len(scratch) {
		m := min(len(scratch), slots-base)
		raw := scratch[:m]
		FillBlock(s, raw, base)
		for i, ch := range raw {
			out[base+i] = id(ch)
		}
	}
	return &DenseTable{table: out, prefix: true}
}

// Len returns the slots covered by the table: one period for
// CompileDense tables, the materialized prefix for DensePrefix ones.
func (d *DenseTable) Len() int { return len(d.table) }

// Covers reports whether d serves reads of slots [0, slots): a period
// table serves every slot, a prefix table every slot below its length,
// and a nil table none.
func (d *DenseTable) Covers(slots int) bool {
	return d != nil && (!d.prefix || slots <= len(d.table))
}

// FillBlock fills dst[i] with the dense id of slot start+i: a wrapped
// copy of the period table, mirroring Compiled.ChannelBlock. Prefix
// tables do not wrap; reading past their coverage panics.
func (d *DenseTable) FillBlock(dst []int32, start int) {
	CheckSlot(start)
	if d.prefix {
		copy(dst, d.table[start:start+len(dst)])
		return
	}
	p := len(d.table)
	off := start % p
	for len(dst) > 0 {
		n := copy(dst, d.table[off:])
		dst = dst[n:]
		off = 0
	}
}

// FillBlockDense fills dst[i] = id(s.Channel(start+i)): straight copies
// from d when the schedule has a dense table, otherwise a FillBlock into
// scratch followed by a remap pass (scratch must hold at least len(dst)
// ints). It is the dense counterpart of FillBlock and the single entry
// point the simulator's dense hot loops use.
func FillBlockDense(s Schedule, d *DenseTable, dst []int32, start int, id func(ch int) int32, scratch []int) {
	if len(dst) == 0 {
		return
	}
	CheckSlot(start)
	if d != nil {
		d.FillBlock(dst, start)
		return
	}
	raw := scratch[:len(dst)]
	FillBlock(s, raw, start)
	for i, ch := range raw {
		dst[i] = id(ch)
	}
}
