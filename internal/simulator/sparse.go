package simulator

// Contact-sparse meeting scan.
//
// The inverted scan (inverted.go) made slot cost O(occupancy +
// meetings), but its per-pair state — met rows, triangular hit arrays —
// still grows O(agents²), and its group intersection considers every
// earlier co-channel listener a candidate. Under a contact topology
// almost none of them are: only in-range pairs can rendezvous, and the
// engine's cell-major renumbering (NewEngineContact) makes "in range"
// three contiguous id intervals — the 3×3 cell neighborhood rows of
// the agent's grid cell.
//
// This scan keeps the posting gather (agents bucket into per-channel
// groups, ascending id) and swaps the bitset intersection for interval
// intersection: each group member binary-searches its three
// neighborhood intervals inside the group's earlier members, walking
// exactly the in-range co-channel candidates — O(in-range occupancy),
// not O(occupancy²) and not O(all-pairs). Pair state is indexed by
// contact edge (pairSpace CSR), so hit arrays and the seen bitset are
// O(contact edges). It runs inside the shared posting driver
// (scanShardPosting) and records into the same per-worker hit arrays
// and shared cancellation state as the other posting kernels, so the
// time-sharded merge and its byte-identical-at-any-worker-count
// argument carry over unchanged.

// sparseGroupCtx carries the scan-invariant state one worker's
// scanGroupSparse calls share, mirroring groupScanCtx.
type sparseGroupCtx struct {
	topo     *topoState
	union    []int
	hits     []hit32
	env      Environment
	seen     []uint64
	st       *shardState
	meetable int64
	solo     bool
	cand     []int32 // candidate-edge scratch, reused across groups
}

// lowerBound32 returns the first index in ascending-sorted a whose
// value is ≥ v.
func lowerBound32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// scanGroupSparse detects one channel group's in-range meetings (dense
// id d, slot t). For each member, the earlier co-channel listeners
// within contact range are exactly the earlier group members inside
// the member's 3×3 cell-neighborhood id intervals (ids are cell-major,
// so each neighborhood row is one contiguous interval): three binary
// searches, then a walk of just those candidates, each confirmed by
// the exact radius test and mapped to its contact-edge slot.
//
// MISCOMPILATION GUARD: with the go1.24.0 atomic.OrUint64 intrinsic
// inlined into the candidate walk, the compiler miscompiles this
// function — later candidates in a slot silently dropped, so first
// meetings are recorded a slot or more late; workers > 1 and
// optimized builds only (-N -l and -race are correct). Caught by
// TestPropContactEngines. The cancellation OR therefore goes through
// setSeenBit (a Load+CAS loop, joint.go), the recording is a separate
// //go:noinline half, and both must stay that way; re-run the
// proptest soak (PROPTEST_ITERS=1500) after any change here. The wide
// scan hit the same bug family (see scanGroupWide).
//
//go:noinline
func scanGroupSparse(cx *sparseGroupCtx, g []int32, t int, tk int32, d int) {
	topo := cx.topo
	hits := cx.hits
	cand := cx.cand[:0]
	cellsX, cellsY := topo.cellsX, topo.cellsY
	cellStart := topo.cellStart
	for gi := 1; gi < len(g); gi++ {
		i := int(g[gi])
		earlier := g[:gi]
		c := int(topo.cellOf[i])
		cx0, cy0 := c%cellsX, c/cellsX
		xLo, xHi := max(cx0-1, 0), min(cx0+1, cellsX-1)
		yHi := min(cy0+1, cellsY-1)
		for yy := max(cy0-1, 0); yy <= yHi; yy++ {
			rLo := cellStart[yy*cellsX+xLo]
			rHi := cellStart[yy*cellsX+xHi+1]
			if rLo == rHi {
				continue
			}
			for k := lowerBound32(earlier, rLo); k < len(earlier) && earlier[k] < rHi; k++ {
				j := int(earlier[k])
				if !topo.inRange2(j, i) {
					continue
				}
				p := topo.edgeOf(j, i)
				if p < 0 || hits[p].s != 0 {
					continue
				}
				cand = append(cand, int32(p))
			}
		}
	}
	cx.cand = cand
	if len(cand) == 0 {
		return
	}
	// The environment is consulted lazily — only when the group has an
	// unseen in-range candidate, at most once per (channel, slot). A
	// blocked channel abandons the whole group.
	if cx.env != nil && !cx.env.Available(cx.union[d], t) {
		return
	}
	recordSparseHits(cx, cand, tk, d)
}

// recordSparseHits records the gathered edges' first hits and feeds
// the shared cancellation state — scanGroupSparse's recording half,
// kept //go:noinline per the miscompilation guard above.
//
//go:noinline
func recordSparseHits(cx *sparseGroupCtx, cand []int32, tk int32, d int) {
	hits := cx.hits
	seen := cx.seen
	st := cx.st
	meetable := cx.meetable
	solo := cx.solo
	for _, p32 := range cand {
		p := int(p32)
		hits[p] = hit32{s: tk, ch: int32(d)}
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
}
