package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rendezvous/internal/serve"
)

// setupBoots is how many times an untraced run boots and warms a fresh
// daemon; setup_s is the median, and the last boot is measured.
const setupBoots = 5

type options struct {
	seed    uint64
	dur     time.Duration // measured time per phase
	rvserve string        // rvserve binary
	procs   int           // daemon workers and client connections
}

// phase is one measured run of a workload against one daemon.
type phase struct {
	seed   uint64
	setups []float64 // seconds per boot: exec → healthy → warm-up done
	outs   []outcome // every measured job
	// base is the jobs the end-to-end metrics describe: the whole
	// closed loop, or the open loop's first ladder rung.
	base     []outcome
	baseWall time.Duration
	cpu      time.Duration // daemon CPU over base; 0 in-process
	steps    []step
	s0, s1   serve.StatsResponse // after warm-up, after measuring

	depthMax, depthSamples int
	rss                    float64 // MiB; 0 in-process
	pinned                 int
	tr                     *tracer
}

// runPhase boots a daemon (boots times, keeping the last), warms it up
// and measures w on it. With traced set the daemon is hosted in this
// process under a tracer.
func runPhase(ctx context.Context, w workload, o options, traced bool, boots int) (*phase, error) {
	p := &phase{seed: o.seed}
	var d *daemon
	var c *client
	defer func() {
		if d != nil {
			d.kill()
		}
		if c != nil {
			c.close()
		}
	}()
	for b := 0; b < boots; b++ {
		if d != nil {
			c.close()
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if traced {
			p.tr = newTracer()
			d, err = startInProcess(serve.Config{Workers: o.procs, PreRun: p.tr.preRun})
		} else {
			d, err = startDaemon(o.rvserve, o.procs)
		}
		if err != nil {
			d = nil
			return nil, err
		}
		c = newClient(d.base, o.procs, p.tr)
		if err := d.waitHealthy(ctx, c); err != nil {
			return nil, err
		}
		warm, _ := c.closedLoop(ctx, w, o.seed, 0, w.warmup, 0)
		if err := firstFailure(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(t).Seconds())
	}
	if err := c.getJSON(ctx, "/v1/stats", &p.s0); err != nil {
		return nil, err
	}
	stopSampler := p.sampleQueueDepth(ctx, c)
	var cpuErr error
	cpu := func() time.Duration {
		if traced || cpuErr != nil {
			return 0
		}
		var t time.Duration
		t, cpuErr = d.cpuTime()
		return t
	}
	// Peak RSS is read right after the base phase, so the ladder's later
	// rungs (how many depends on where it stops) cannot move it.
	peakRSS := func() (err error) {
		if !traced {
			p.rss, err = d.peakRSS()
		}
		return err
	}
	if w.ladder == nil {
		c0 := cpu()
		p.base, p.baseWall = c.closedLoop(ctx, w, o.seed, w.warmup, maxJobIndex, o.dur)
		p.cpu = cpu() - c0
		p.outs = p.base
		if err := peakRSS(); err != nil {
			return nil, err
		}
	} else {
		first := w.warmup
		rung := w.rungDur(o.dur)
		for k, rate := range w.ladder {
			c0 := cpu()
			outs, wall := c.openLoop(ctx, w, o.seed, first, rate, rung)
			if k == 0 {
				p.base, p.baseWall, p.cpu = outs, wall, cpu()-c0
				if err := peakRSS(); err != nil {
					return nil, err
				}
			}
			first += len(outs)
			p.outs = append(p.outs, outs...)
			s := evalStep(rate, outs)
			p.steps = append(p.steps, s)
			if !s.pass {
				break
			}
		}
	}
	stopSampler()
	if cpuErr != nil {
		return nil, fmt.Errorf("daemon cpu time: %w", cpuErr)
	}
	if err := c.getJSON(ctx, "/v1/stats", &p.s1); err != nil {
		return nil, err
	}
	var err error
	if p.pinned, err = d.stop(); err != nil {
		return nil, err
	}
	if traced {
		p.tr.finish()
	}
	return p, ctx.Err()
}

// sampleQueueDepth polls /v1/stats once a second for the queue depth
// until the returned stop function is called.
func (p *phase) sampleQueueDepth(ctx context.Context, c *client) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			var st serve.StatsResponse
			if c.getJSON(ctx, "/v1/stats", &st) == nil {
				p.depthMax = max(p.depthMax, st.Manager.QueueDepth)
				p.depthSamples++
			}
		}
	}()
	return func() { cancel(); wg.Wait() }
}

func firstFailure(outs []outcome) error {
	for _, o := range outs {
		if !o.ok() {
			return fmt.Errorf("job %d: %s", o.idx, o.err)
		}
	}
	return nil
}

// result is one workload's report.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string // correctness failures
	metrics   metricSet
	steps     []step
	spans     []span // traced run only
}

// runWorkload measures w untraced against an rvserve subprocess, checks
// the daemon's results by replay, and with traced set adds a traced
// in-process phase for the per-layer waits.
func runWorkload(ctx context.Context, w workload, o options, traced bool) (*result, error) {
	if err := w.checkShapes(o.seed); err != nil {
		return nil, err
	}
	if end := w.ladderEnd(o.dur); end > maxJobIndex {
		return nil, fmt.Errorf("a %v ladder reaches job %d, past the %d unique specs", o.dur, end, maxJobIndex)
	}
	boots := setupBoots
	if traced {
		boots = 1
	}
	p, err := runPhase(ctx, w, o, false, boots)
	if err != nil {
		return nil, err
	}
	// attempted and failed describe the jobs the end-to-end metrics do;
	// ladder rungs past the first probe for overload, where a refused
	// job is how a rung fails.
	r := &result{
		workload: w.name, attempted: len(p.base), failed: len(p.base) - countOK(p.base),
		metrics: metricSet{}, steps: p.steps,
	}
	phaseMetrics(r.metrics, w, p)
	st, err := replay(w, o.seed, p.outs)
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
	replayMetrics(r.metrics, st)
	if traced {
		q, err := runPhase(ctx, w, o, true, 1)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		traceMetrics(r.metrics, q, r.metrics["ttr_p50_ms"].Value)
		if q.pinned != 0 {
			r.problems = append(r.problems, fmt.Sprintf("traced run: %d table-cache entries pinned after drain", q.pinned))
		}
		r.spans = q.tr.spans
	}
	if p.pinned != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d table-cache entries pinned after drain", p.pinned))
	}
	if f := r.metrics["client.submit_created_frac"].Value; f != 1 {
		r.problems = append(r.problems, fmt.Sprintf("submit_created_frac %v, want 1 (a spec repeated)", f))
	}
	return r, nil
}

func countOK(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if o.ok() {
			n++
		}
	}
	return n
}
