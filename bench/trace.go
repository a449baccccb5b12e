package main

import (
	"sort"
	"sync"
	"time"

	"rendezvous/internal/serve"
)

// tracer keeps the traced run's spans in memory: one "job" root per job
// id, with client.submit, client.poll, serve.queue and serve.service
// children. The serve spans come from the public Config.PreRun seam,
// which runs on the worker goroutine as it claims a job.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	claims map[string]time.Time
	wg     sync.WaitGroup // goroutines waiting to close serve.service spans
}

// span is one timed interval; times are microseconds from the tracer's
// start.
type span struct {
	Job     string `json:"job"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUs-s.StartUs) * time.Microsecond }

func newTracer() *tracer { return &tracer{t0: time.Now(), claims: map[string]time.Time{}} }

// span records an interval of job id; a nil tracer records nothing.
func (t *tracer) span(job, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Job: job, Name: name, StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds()}
	if name != "job" {
		s.Parent = "job"
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// preRun is the serve.Config.PreRun hook: it stamps the claim and
// closes the job's serve.service span once the job is terminal.
func (t *tracer) preRun(j *serve.Job) {
	claim := time.Now()
	t.mu.Lock()
	t.claims[j.ID] = claim
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		j.Wait()
		t.span(j.ID, "serve.service", claim, time.Now())
	}()
}

// finish waits for the serve.service spans (call it after the drain,
// when every job is terminal) and derives each job's serve.queue span:
// from the client's submit to the worker's claim.
func (t *tracer) finish() {
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if c, ok := t.claims[s.Job]; ok && s.Name == "client.submit" {
			t.spans = append(t.spans, span{Job: s.Job, Name: "serve.queue", Parent: "job",
				StartUs: s.StartUs, EndUs: max(s.StartUs, c.Sub(t.t0).Microseconds())})
		}
	}
}

// traceSummary is the per-layer view of the spans of measured jobs.
type traceSummary struct {
	queueWait, service []float64          // ms per job
	selfMs             map[string]float64 // mean self time per job, by span name
	jobs               int
}

// summarize reduces the spans of the given job ids. A span's self time
// is its duration minus the part of it its children cover; only "job"
// spans have children.
func (t *tracer) summarize(ids map[string]bool) traceSummary {
	byJob := map[string][]span{}
	for _, s := range t.spans {
		if ids[s.Job] {
			byJob[s.Job] = append(byJob[s.Job], s)
		}
	}
	sum := traceSummary{selfMs: map[string]float64{}, jobs: len(byJob)}
	for _, ss := range byJob {
		var root *span
		var kids [][2]int64
		for i := range ss {
			s := &ss[i]
			switch s.Name {
			case "job":
				root = s
				continue
			case "serve.queue":
				sum.queueWait = append(sum.queueWait, ms(s.dur()))
			case "serve.service":
				sum.service = append(sum.service, ms(s.dur()))
			}
			sum.selfMs[s.Name] += ms(s.dur())
			kids = append(kids, [2]int64{s.StartUs, s.EndUs})
		}
		if root != nil {
			sum.selfMs["job"] += ms(root.dur() - covered(kids, root.StartUs, root.EndUs))
		}
	}
	for k := range sum.selfMs {
		sum.selfMs[k] /= float64(max(1, sum.jobs))
	}
	return sum
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return time.Duration(total) * time.Microsecond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
