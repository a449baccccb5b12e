package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rendezvous/internal/serve"
)

// Polling schedule: every pollFast until pollFastFor after the job was
// due, then every pollSlow.
const (
	pollFast    = time.Millisecond
	pollFastFor = 20 * time.Millisecond
	pollSlow    = 10 * time.Millisecond
	// jobTimeout fails a job that has not finished this long after it
	// was due, so a stuck daemon cannot hang the benchmark.
	jobTimeout = 60 * time.Second
	// maxInFlight caps open-loop jobs in flight; past it the generator
	// stalls and its lateness shows the backlog.
	maxInFlight = 1024
)

// client submits jobs to one rvserve and polls them to completion. It
// never retries: a refused or failed job is a failure.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil when untraced
}

// newClient opens at most conns HTTP connections to base.
func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: jobTimeout}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one job as the client saw it. Times are offsets from the
// phase start.
type outcome struct {
	idx       int
	id        string
	due, sent time.Duration
	done      time.Duration // when the poll that saw done returned
	created   bool
	err       string // empty on success
	postDur   time.Duration
	getDurs   []time.Duration
	result    json.RawMessage // the daemon's Result bytes
}

func (o *outcome) ok() bool { return o.err == "" }

func (o *outcome) ttr() time.Duration { return o.done - o.due }

// run submits spec and polls it until it is terminal. due is when the
// job should have been sent; t0 anchors the phase clock.
func (c *client) run(ctx context.Context, t0 time.Time, idx int, spec serve.JobSpec, due time.Duration) outcome {
	o := outcome{idx: idx, due: due}
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err.Error()
		return o
	}
	o.sent = time.Since(t0)
	code, resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	o.postDur = time.Since(t0) - o.sent
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		o.err = fmt.Sprintf("submit: status %d: %v %s", code, err, bytes.TrimSpace(resp))
		return o
	}
	o.created = code == http.StatusAccepted
	var ack serve.SubmitResponse
	if err := json.Unmarshal(resp, &ack); err != nil {
		o.err = fmt.Sprintf("submit: decode ack: %v", err)
		return o
	}
	o.id = ack.ID
	c.tr.span(o.id, "client.submit", t0.Add(o.sent), t0.Add(o.sent+o.postDur))
	for {
		wait := pollSlow
		if time.Since(t0) < due+pollFastFor {
			wait = pollFast
		}
		select {
		case <-ctx.Done():
			o.err = "canceled while polling"
			return o
		case <-time.After(wait):
		}
		start := time.Now()
		code, resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+o.id, nil)
		end := time.Now()
		o.getDurs = append(o.getDurs, end.Sub(start))
		c.tr.span(o.id, "client.poll", start, end)
		if err != nil || code != http.StatusOK {
			o.err = fmt.Sprintf("poll: status %d: %v %s", code, err, bytes.TrimSpace(resp))
			return o
		}
		var jr struct {
			Status serve.JobStatus
			Error  string
			Result json.RawMessage
		}
		if err := json.Unmarshal(resp, &jr); err != nil {
			o.err = fmt.Sprintf("poll: decode: %v", err)
			return o
		}
		switch jr.Status {
		case serve.StatusDone:
			o.done = end.Sub(t0)
			o.result = jr.Result
			c.tr.span(o.id, "job", t0.Add(o.due), end)
			return o
		case serve.StatusQueued, serve.StatusRunning:
		default:
			o.err = fmt.Sprintf("job ended %s: %s", jr.Status, jr.Error)
			return o
		}
		if end.Sub(t0) > due+jobTimeout {
			o.err = fmt.Sprintf("job still %s %v after it was due", jr.Status, jobTimeout)
			return o
		}
	}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes it into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	code, b, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	return json.Unmarshal(b, v)
}

// closedLoop runs jobs from index first upward on closedClients
// clients, each issuing its next job when the last one finishes, until
// index last (exclusive) or, when dur is non-zero, until dur has
// passed. A job is due when its client issues it.
func (c *client) closedLoop(ctx context.Context, w workload, seed uint64, first, last int, dur time.Duration) (outs []outcome, wall time.Duration) {
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(int64(first))
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < closedClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (dur == 0 || time.Since(t0) < dur) {
				i := int(next.Add(1) - 1)
				if i >= last {
					return
				}
				o := c.run(ctx, t0, i, w.spec(seed, i), time.Since(t0))
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// openLoop sends jobs from index first at rate jobs/s for dur, each on
// its own goroutine at its due time, whatever the daemon's progress.
func (c *client) openLoop(ctx context.Context, w workload, seed uint64, first int, rate float64, dur time.Duration) (outs []outcome, wall time.Duration) {
	res := make([]outcome, int(rate*dur.Seconds()))
	sem := make(chan struct{}, maxInFlight)
	t0 := time.Now()
	var wg sync.WaitGroup
	sent := 0
	for ; sent < len(res); sent++ {
		k := sent
		due := time.Duration(float64(k) / rate * float64(time.Second))
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			i := first + k
			res[k] = c.run(ctx, t0, i, w.spec(seed, i), due)
		}()
	}
	wg.Wait()
	return res[:sent], time.Since(t0)
}
