package simulator

import "sync/atomic"

// Canceler is the cooperative stop seam for a run: fire Cancel from any
// goroutine and every worker of the run's pairwise scan stops at its
// next block-window boundary. The check discipline is one poll per live
// pair per 256-slot window, plus one per chunk claim, so an
// uncancelled run pays a handful of atomic loads per pair and window,
// nothing per slot.
//
// A cancelled run returns a partial Result: some subset of the true
// first meetings (every hit it did record is exact — the scan records
// only genuine first meetings — but pairs may be missing and, on
// multi-worker runs, which subset depends on scheduling). What is
// guaranteed, and what the cancellation proptest clause enforces, is
// the reuse contract: cancellation leaves every pooled scratch and
// cache pin in its normal end-of-run state, and a Session.Reset
// followed by a re-run is byte-identical to a fresh engine's run.
//
// A Canceler is one-shot: once fired it stays fired, and every run
// observing it stops immediately. Use a fresh Canceler per run (or per
// retry); the zero value is ready to use, and a nil *Canceler is valid
// everywhere and never fires.
type Canceler struct {
	flag atomic.Bool
	// armed/budget implement CancelAfterPolls, the deterministic
	// mid-scan trigger the white-box tests and the proptest clause use.
	armed  atomic.Bool
	budget atomic.Int64
}

// Cancel requests the stop. Safe from any goroutine, idempotent.
func (c *Canceler) Cancel() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Canceled reports whether the stop has been requested. A cheap single
// atomic load — callers outside the scan (chunk-claim loops, the serve
// layer's post-run status check) use this rather than poll so the
// CancelAfterPolls budget counts only block-boundary checks.
func (c *Canceler) Canceled() bool {
	return c != nil && c.flag.Load()
}

// CancelAfterPolls arms the canceler to fire on the n-th block-boundary
// check instead of an external event: n=1 fires at the first check
// (before any slot is scanned), huge n never fires. On single-worker
// runs the poll sequence is deterministic, which is how the white-box
// boundary tests and the proptest clause cancel at an exact window; on
// multi-worker runs the firing poll is scheduling-dependent, but every
// guarantee a cancelled run makes is independent of where it stopped.
func (c *Canceler) CancelAfterPolls(n int64) {
	c.budget.Store(n)
	c.armed.Store(true)
}

// poll is the per-block check the scan makes: true once the run
// should stop. Nil-safe so un-cancellable runs thread a nil receiver
// through the same code path.
func (c *Canceler) poll() bool {
	if c == nil {
		return false
	}
	if c.flag.Load() {
		return true
	}
	if c.armed.Load() && c.budget.Add(-1) <= 0 {
		c.flag.Store(true)
		return true
	}
	return false
}
