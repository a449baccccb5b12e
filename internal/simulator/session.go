package simulator

// Session re-runs one engine's fleet shape with a recycled Result, so a
// steady-state re-run (same fleet, any horizon/environment) performs
// ~zero allocations: the engine's pooled scratch — the pair list, the
// block rings, the compiled tables — already survives across runs, and
// the session closes the last gap by reusing the result's O(pairs)
// pair words too. This is the reuse layer sweep drivers and
// a long-running rvserve sit on: build the engine once, then run many.
//
// A session is NOT safe for concurrent use — each run rewrites the one
// held Result (individual runs still fan out over their own workers).
// Callers needing concurrent runs on one engine open one session per
// goroutine, or use the Engine methods directly (which allocate a fresh
// Result per run and stay fully concurrent).
//
// The Result returned by a session run is owned by the session: it is
// valid until the next run on the same session. Callers that need to
// keep results across runs copy what they need (Meetings materializes).
type Session struct {
	e    *Engine
	res  *Result
	canc *Canceler
}

// Session opens a reusable run context on the engine. Sessions are
// independent: an engine can serve many, and the engine's own Run
// methods remain usable alongside.
func (e *Engine) Session() *Session { return &Session{e: e} }

// Engine returns the session's engine.
func (s *Session) Engine() *Engine { return s.e }

// Reset clears the held result so the next run starts fresh. Runs reset
// implicitly; Reset exists so callers can drop meeting state eagerly
// (and as the explicit seam the session-reuse proptest oracle
// exercises).
func (s *Session) Reset() {
	if s.res != nil {
		s.res.reset(s.res.Horizon)
	}
}

// Close releases the engine's pins on shared cache tables (see
// Engine.Close). The session and engine remain usable; Close signals
// that the fleet's tables may be evicted when cold.
func (s *Session) Close() { s.e.Close() }

// SetCanceler installs the cooperative stop seam the session's next
// runs honor (see Canceler). A fired canceler stays fired, so callers
// reusing a session across jobs install a fresh one per job (or nil to
// make runs uncancellable again). Cancellation never compromises reuse:
// after a cancelled run, Reset (or simply the next run's implicit
// reset) restores the session to a state whose runs are byte-identical
// to a fresh engine's — the invariant the cancellation proptest clause
// enforces.
func (s *Session) SetCanceler(c *Canceler) { s.canc = c }

// result returns the held result, reset and sized for horizon,
// allocating it on first use.
func (s *Session) result(horizon int) *Result {
	if s.res == nil {
		s.res = s.e.newResult(horizon)
		return s.res
	}
	s.res.reset(horizon)
	return s.res
}

// reset rewinds a result for reuse: every pair slot's word reads
// unmet again and the tally is empty.
func (r *Result) reset(horizon int) {
	r.Horizon = horizon
	clear(r.first)
	r.tally = PairTally{}
}

// Run is Engine.Run into the session's recycled result: RunParallel at
// one worker.
func (s *Session) Run(horizon int) *Result { return s.RunParallelEnv(horizon, 1, nil) }

// RunEnv is Engine.RunEnv into the session's recycled result:
// RunParallelEnv at one worker.
func (s *Session) RunEnv(horizon int, env Environment) *Result {
	return s.RunParallelEnv(horizon, 1, env)
}

// RunParallel is Engine.RunParallel into the session's recycled result.
func (s *Session) RunParallel(horizon, workers int) *Result {
	return s.RunParallelEnv(horizon, workers, nil)
}

// RunParallelEnv is Engine.RunParallelEnv into the session's recycled
// result.
func (s *Session) RunParallelEnv(horizon, workers int, env Environment) *Result {
	return s.e.runPairwiseEnvInto(s.result(horizon), horizon, workers, env, s.canc)
}
