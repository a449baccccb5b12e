package simulator

import (
	"math"
	"math/bits"
	"sync/atomic"

	"rendezvous/internal/schedule"
)

// Inverted-index meeting engine.
//
// The pairwise decomposition walks the pair axis, comparing each pair's
// schedule blocks window by window, and an occupancy scan would walk a
// per-channel agent list for every arrival, checking a per-pair entry
// for each listed agent — O(candidate pairs) of random access into
// arrays that grow quadratically with the fleet. This engine is the transpose. For
// each slot inside a block-aligned window, agents are bucketed into
// per-dense-channel-id posting lists (schedule.PostingIndex, a two-pass
// counting gather). Each agent sits on exactly one channel per slot, so
// the groups partition the slot's arrivals and can be processed
// independently: walking a group in ascending id order, its members'
// 64-agent bitset words build up in a stack array, and each member
// detects its new meetings word-parallel:
//
//	cand = posting[w] &^ met[i][w]
//
// — the channel's earlier co-listeners AND-NOT the agents i has
// already met in this scan. Already-met pairs vanish from cand before
// any per-pair work happens, and whole 64-agent words vanish from the
// iteration once saturated: met rows are seeded with every unmeetable
// pair plus the diagonal and above (a triangular row never sees a
// later id), so a word goes all-ones exactly when everyone in it has
// been dealt with, and a per-agent full-word mask prunes it from every
// later arrival. The steady-state cost per slot is O(active agents)
// with a small constant: per-pair work is paid exactly once per
// meeting, and a slot's posting state lives entirely in registers, the
// stack and the L1-resident gather arrays — no per-arrival stamp checks
// or shared-words read-modify-writes survive from the pair-axis
// designs.
//
// The scan records into the per-pair hit arrays the time-sharded merge
// consumes, and feeds the shared seen-bitset, so the window-partition
// argument for byte-identical Results at any worker count covers it.
// One kernel serves every fleet size. A summary word marks which of 64
// posting words are nonzero, so it covers 4,096 agents: a fleet of up
// to 4,096 agents walks each group in one pass over one summary word,
// and a larger fleet walks one pass per summary word its group spans,
// with the same saturation pruning throughout. Environments apply as
// channel masks before
// intersection: at most one Available call per (channel, slot), made
// lazily when the channel's group first exposes a live candidate pair,
// after which a blocked channel's whole group is skipped.

// metTemplateBudget caps the per-worker met-template memory the
// posting scan may spend: the triangular template is O(agents²/128)
// words, which passes ~256 MB near 65k agents — past that the dense
// pair state is the real wall (that is what contact topologies are
// for), and such fleets run the pairwise decomposition, which keeps no
// per-worker pair state.
const metTemplateBudget = 1 << 28

// metTemplateBytes sizes the triangular met template at fleet size n
// without building it: rows total Σ(i>>6 + 1) words.
func metTemplateBytes(n int) int64 {
	q := int64(n) >> 6
	words := 64*q*(q-1)/2 + (int64(n)-q<<6)*q + int64(n)
	return words * 8
}

// usesPostingScan is the joint entry points' gate: whether a run over
// horizon takes the posting scan over the triangular pair state. Four
// shapes run pairwise instead: empty horizons, horizons whose slot keys
// overflow the int32 hit encoding, dense fleets whose met template
// passes metTemplateBudget, and every fleet with a contact topology,
// whose contact-edge CSR pair state has no met rows to seed.
func (e *Engine) usesPostingScan(horizon int) bool {
	return horizon > 0 && horizon < math.MaxInt32 && e.ps.rowBase != nil &&
		metTemplateBytes(len(e.agents)) <= metTemplateBudget
}

// metBase returns the triangular met-row offsets: row i occupies
// met[metBase[i] : metBase[i+1]], covering posting words 0 … i>>6.
// Rows are triangular because a posting list at any instant holds only
// earlier-id arrivals, so row i never needs a word past its own.
// Cached on the engine (it depends only on the fleet size).
func (e *Engine) metBase() []int32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.metRowBase != nil {
		return e.metRowBase
	}
	n := len(e.agents)
	base := make([]int32, n+1)
	off := int32(0)
	for i := 0; i < n; i++ {
		base[i] = off
		off += int32(i>>6) + 1
	}
	base[n] = off
	e.metRowBase = base
	return base
}

// metSeed returns the met-row template the posting scan starts from,
// and its full-word masks (rowFull), cached on the engine per effective
// horizon: every horizon past the fleet's last wake shares one template
// (see eligibleHorizon for why that is exact). Row i pre-marks the
// diagonal, the bits of its last word above i (ids
// that can never appear in a posting list i detects against), and
// every earlier agent j with which i can never meet within the horizon
// (disjoint hop sets or non-overlapping activity windows). Only
// topology-free engines take the posting scan, so no pair is out of
// contact range. Seeding unmeetable pairs is what lets saturation
// pruning converge: a row word goes all-ones exactly when every agent
// in it has either met i or never can, at which point no arrival ever
// looks at it again. rowFull holds one word per agent per summary word
// (one summary word per 4,096 agents), laid out summary word by
// summary word: bit w&63 of full[(w>>6)*n+i] marks agent i's row word
// w saturated, so a row's seeded-full words are pruned from the first
// slot on, at every fleet size.
func (e *Engine) metSeed(horizon int) (tmpl, full []uint64) {
	base := e.metBase()
	horizon = e.eligibleHorizon(horizon)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.metSeedTmpl != nil && e.metSeedHorizon == horizon {
		return e.metSeedTmpl, e.metSeedFull
	}
	n := len(e.agents)
	tmpl = make([]uint64, base[n])
	full = make([]uint64, n*((n+4095)>>12))
	for i := 0; i < n; i++ {
		row := tmpl[base[i]:base[i+1]]
		iw := i >> 6
		row[iw] |= ^uint64(0) << (i & 63) // diagonal and above: never posted before i arrives
		for j := 0; j < i; j++ {
			if !e.pairMeetable(j, i, horizon) {
				row[j>>6] |= 1 << (j & 63)
			}
		}
		for w := 0; w <= iw; w++ {
			if row[w] == ^uint64(0) {
				full[(w>>6)*n+i] |= 1 << (w & 63)
			}
		}
	}
	e.metSeedHorizon, e.metSeedTmpl, e.metSeedFull = horizon, tmpl, full
	return tmpl, full
}

// postingScratch is one worker's private posting-scan state: the
// per-agent dense-id block buffers, the posting gather, the per-agent
// activity clamps for the current block, the slot-major id transpose
// and the met rows. Recycled through Engine.postPool.
type postingScratch struct {
	// bufs are per-agent views into flat (n*blockLen): agent i's dense
	// channel ids for the current block. raw is the FillBlockDense
	// fallback scratch (blockLen) for schedules without a dense table.
	flat []int32
	bufs [][]int32
	raw  []int
	post *schedule.PostingIndex
	// from/to clamp each agent's activity to the current block:
	// active at offset x iff from[i] ≤ x < to[i].
	from, to []int32
	// ids is the slot-major transpose of the block buffers:
	// ids[off*n+i] is agent i's dense channel id at block offset off.
	ids []int32
	// met holds triangular met-rows (see Engine.metBase): row i is the
	// bitset of earlier agents i has already met within this worker's
	// windows (or never can meet — see metSeed), the word-parallel
	// mirror of hits[p].s != 0. rowFull marks each row's saturated
	// words (see metSeed).
	met     []uint64
	rowFull []uint64
}

// getPostingScratch returns a pooled scratch seeded for a fresh scan:
// met rows copied from tmpl and full-word masks from full. The block
// buffers are refilled before every read, the posting gather is
// self-cleaning (every slot ends in ResetSlot) and the group bitset
// lives on scanShardPosting's stack, so pooled reuse needs no other
// reset.
func (e *Engine) getPostingScratch(tmpl, full []uint64) *postingScratch {
	sc, _ := e.postPool.Get().(*postingScratch)
	if sc == nil {
		n := len(e.agents)
		sc = &postingScratch{
			flat:    make([]int32, n*blockLen),
			bufs:    make([][]int32, n),
			raw:     make([]int, blockLen),
			post:    schedule.NewPostingIndex(e.chIdx.count, n),
			from:    make([]int32, n),
			to:      make([]int32, n),
			ids:     make([]int32, n*blockLen),
			met:     make([]uint64, len(tmpl)),
			rowFull: make([]uint64, len(full)),
		}
		for i := range sc.bufs {
			sc.bufs[i] = sc.flat[i*blockLen : (i+1)*blockLen]
		}
	}
	copy(sc.met, tmpl)
	copy(sc.rowFull, full)
	return sc
}

// fillBlockWindowClamped materializes every agent's dense-id channels
// for global slots [base, base+m) into sc.bufs, clamped to its activity
// window: a copy out of the agent's dense table when the plan has one,
// a per-block evaluate + remap otherwise (beacons, huge-period Random
// past the prefix budget). sc.from/sc.to receive each agent's active
// offset range within the block (an empty range for agents inactive
// across the whole block), so the scan tests activity with two dense
// int32 compares instead of loading Agent structs per slot.
func (e *Engine) fillBlockWindowClamped(p *runPlan, sc *postingScratch, base, m int) {
	from, to := sc.from, sc.to
	for i := range e.agents {
		a := &e.agents[i]
		if a.Wake >= base+m || (a.Leave > 0 && a.Leave <= base) {
			from[i], to[i] = 0, 0
			continue
		}
		lo := max(0, a.Wake-base)
		hi := m
		if a.Leave > 0 && a.Leave < base+m {
			hi = a.Leave - base
		}
		from[i], to[i] = int32(lo), int32(hi)
		schedule.FillBlockDense(p.scheds[i], p.dense[i], sc.bufs[i][lo:hi], base+lo-a.Wake, e.id32, sc.raw)
	}
}

// transposeIDs rewrites the agent-major block buffers into the
// slot-major layout the scan consumes: dst[off*n+i] = bufs[i][off] for
// off in [0, m). The scan's inner loop walks agents within one slot,
// so slot-major turns its id loads into a sequential stream; done
// agent-major, those same loads touch one cache line per agent and
// evict each other long before their next offset is needed. 64×64
// tiling keeps the transpose's own working set L1-resident, paying the
// strided access pattern once per line instead of once per element.
// Buffer contents outside an agent's from/to clamp transpose as
// garbage and must stay guarded by the clamp on the read side.
func transposeIDs(dst []int32, bufs [][]int32, n, m int) {
	const tile = 64
	for ob := 0; ob < m; ob += tile {
		oe := min(ob+tile, m)
		for ib := 0; ib < n; ib += tile {
			ie := min(ib+tile, n)
			for off := ob; off < oe; off++ {
				row := dst[off*n : off*n+n]
				for i := ib; i < ie; i++ {
					row[i] = bufs[i][off]
				}
			}
		}
	}
}

// shardState is one worker's view of a sharded scan: its private hit
// array plus the run-wide environment and cancellation state. Bundling
// them keeps the scan entry points small enough that every argument
// travels in a register.
type shardState struct {
	hits      []hit32
	env       Environment
	seen      []uint64
	seenCount *atomic.Int64
	done      *atomic.Bool
	meetable  int64
	// solo marks a single-worker run: the seen bitset has no other
	// writers, so the scan may update it without atomics, and the
	// worker's hits arrive in time order, so it stops at the next block
	// once done fires.
	solo bool
	// cancel is the run's cooperative stop seam, polled once per
	// 256-slot block at the top of scanShardPosting's block loop (never
	// inside the //go:noinline halves scanGroup and recordCands — see
	// the miscompilation guards there). Nil on uncancellable runs.
	cancel *Canceler
}

// scanShardPosting runs the posting scan over global slots [lo, hi),
// recording each pair's first hit within this worker's windows into
// st.hits and feeding the shared completion and cancellation state.
// It owns the block fill, the transpose and the per-slot counting
// gather, and hands each channel group of two or more members to
// scanGroup. The returned bool reports whether [lo, hi) was scanned to
// completion (false when st.cancel fired mid-window). A solo worker's
// early exit also ends the window, and counts as complete: every
// meetable pair already holds its true first meeting, so the rest of
// the window cannot change the Result, and the cancellation merge must
// keep what it recorded.
func (e *Engine) scanShardPosting(plan *runPlan, psc *postingScratch, st *shardState, lo, hi int) bool {
	n := len(e.agents)
	ids := psc.ids
	// Reslicing to exactly n lets the compiler drop the bounds checks on
	// the per-agent loads in the gather loops.
	from, to := psc.from[:n], psc.to[:n]
	post := psc.post
	// pw holds one summary word's 64 posting words: it never leaves the
	// stack because groups are processed to completion one at a time,
	// and scanGroup clears its nonzero words after every pass.
	var pw [64]uint64
	gcx := groupScanCtx{
		rowBase: e.ps.rowBase, mbase: e.metRowBase[:n], // built by metSeed before workers spawn
		union: e.union, met: psc.met, rowFull: psc.rowFull, n: n,
		hits: st.hits, env: st.env, seen: st.seen,
		st: st, meetable: st.meetable, solo: st.solo,
	}
	complete := true
	for base := lo; base < hi; base += blockLen {
		if st.solo && st.done.Load() {
			break // every meetable pair met: the window is done, not abandoned
		}
		if st.cancel.poll() {
			complete = false
			break
		}
		m := min(blockLen, hi-base)
		e.fillBlockWindowClamped(plan, psc, base, m)
		transposeIDs(ids, psc.bufs, n, m)
		for off := 0; off < m; off++ {
			t := base + off
			tk := int32(t) + 1
			off32 := int32(off)
			slotIDs := ids[off*n : off*n+n]
			// Counting gather: group this slot's arrivals by channel.
			// Visiting agents in ascending id twice keeps each group in
			// ascending id order, which scanGroup's detection relies on.
			for i := 0; i < n; i++ {
				if off32 >= from[i] && off32 < to[i] {
					post.Count(slotIDs[i])
				}
			}
			post.Place()
			for i := 0; i < n; i++ {
				if off32 >= from[i] && off32 < to[i] {
					post.Put(slotIDs[i], int32(i))
				}
			}
			for wi, b := range post.ChannelMask() {
				if b == 0 {
					continue
				}
				for ; b != 0; b &= b - 1 {
					c := int32(wi<<6 + bits.TrailingZeros64(b))
					g := post.Group(c)
					if len(g) < 2 {
						continue // a lone listener meets nobody
					}
					gcx.t, gcx.tk, gcx.d, gcx.probed = t, tk, int(c), st.env == nil
					scanGroup(&gcx, &pw, g)
				}
			}
			post.ResetSlot()
		}
	}
	return complete
}

// groupScanCtx carries the state one worker's scanGroup and
// recordCands calls share. It lives on scanShardPosting's stack, built
// once per scan rather than once per group, with the group fields reset
// per group; met and rowFull alias the worker's scratch, so each
// group's updates are visible to later groups.
type groupScanCtx struct {
	rowBase  []int
	mbase    []int32
	union    []int
	met      []uint64
	rowFull  []uint64
	n        int // fleet size: rowFull's stride per summary word
	hits     []hit32
	env      Environment
	seen     []uint64
	st       *shardState
	meetable int64
	solo     bool
	// t, tk and d are the group being scanned: slot t, its hit key
	// tk = t+1 and dense channel d. probed records that the group's
	// channel was found available at t (always true without an
	// environment).
	t      int
	tk     int32
	d      int
	probed bool
}

// scanGroup intersects one channel group (slot cx.t, dense channel
// cx.d) against the met matrix, recording each newly-met pair's first
// hit, and leaves pw cleared for the next group. Group members arrive
// in ascending agent id, so each member only intersects against
// earlier-id members, within its triangular met row, and the pair
// index needs no swap. The walk takes one pass per summary word s the
// group spans, in ascending order: the pass's members — those with ids
// in s's 4,096-agent range, a contiguous run of the group — post
// themselves into pw and its summary nz, and every member from the run
// on intersects against the nonzero posting words so far, skipping the
// row words its rowFull mask marks saturated. A fleet of up to 4,096
// agents walks every group in one pass. The environment is consulted
// lazily, at most once per (channel, slot): only when the group first
// exposes a candidate pair not already met (see recordCands).
//
// Kept out of scanShardPosting — and out of its inliner's reach —
// deliberately, with the per-pair bookkeeping in its own //go:noinline
// half (recordCands): combined shapes have repeatedly tripped optimizer
// wrong-code bugs in this toolchain (wild writes, dropped counter
// updates, a met-row load through a corrupted base register — failures
// that vanish under -N or -race), and the split keeps each half small
// and its walk flat. The bug family was later isolated to the go1.24.0
// atomic.OrUint64 intrinsic (caught by TestPropContactEngines; see
// setSeenBit in joint.go). Do not merge the halves or deepen the
// nesting without re-running the proptest soak.
//
//go:noinline
func scanGroup(cx *groupScanCtx, pw *[64]uint64, g []int32) {
	mbase := cx.mbase
	met := cx.met
	n := cx.n
	for lo := 0; lo < len(g); {
		s := int(g[lo]) >> 12
		ws := s << 6
		full := cx.rowFull[s*n : (s+1)*n]
		var nz uint64
		hi := lo // one past the pass's run: where the next pass starts
	members:
		for _, i32 := range g[lo:] {
			i := int(i32)
			if cm := nz &^ full[i]; cm != 0 {
				rb := int(mbase[i]) + ws
				for ; cm != 0; cm &= cm - 1 {
					w := bits.TrailingZeros64(cm) & 63
					if cand := pw[w] &^ met[rb+w]; cand != 0 && !recordCands(cx, cand, ws+w, i) {
						hi = len(g) // channel masked out this slot: nobody in the group meets
						break members
					}
				}
			}
			if i>>12 == s {
				w := (i >> 6) & 63
				pw[w] |= 1 << (i & 63)
				nz |= 1 << w
				hi++
			}
		}
		for ; nz != 0; nz &= nz - 1 {
			pw[bits.TrailingZeros64(nz)&63] = 0
		}
		lo = hi
	}
}

// recordCands records every candidate bit of posting word w as a first
// meeting of member i: the hit entry, the met-row bit, and the shared
// seen/cancellation state; and marks the row word saturated in i's
// rowFull mask once it fills. It first probes the environment if the
// group has not been probed yet, and reports false, recording
// nothing, when the group's channel is masked out this slot. The
// recording half of scanGroup, split out so the walk stays on the
// toolchain's safe ground (see the optimizer-bug caution there).
//
//go:noinline
func recordCands(cx *groupScanCtx, cand uint64, w, i int) bool {
	if !cx.probed {
		cx.probed = true
		if !cx.env.Available(cx.union[cx.d], cx.t) {
			return false
		}
	}
	rb := int(cx.mbase[i])
	tk, d := cx.tk, cx.d
	rowBase := cx.rowBase
	met := cx.met
	hits := cx.hits
	seen := cx.seen
	st := cx.st
	meetable := cx.meetable
	solo := cx.solo
	for cand != 0 {
		tz := bits.TrailingZeros64(cand)
		cand &= cand - 1
		o := w<<6 + tz
		p := rowBase[o] + i - o - 1
		hits[p] = hit32{s: tk, ch: int32(d)}
		met[rb+w] |= 1 << (tz & 63)
		if solo {
			if seen[p>>6]&(1<<(p&63)) == 0 {
				seen[p>>6] |= 1 << (p & 63)
				if st.seenCount.Add(1) == meetable {
					st.done.Store(true)
				}
			}
		} else if setSeenBit(seen, p) {
			if st.seenCount.Add(1) == meetable {
				st.done.Store(true)
			}
		}
	}
	if met[rb+w] == ^uint64(0) {
		cx.rowFull[(w>>6)*cx.n+i] |= 1 << (w & 63)
	}
	return true
}
