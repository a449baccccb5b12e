package main

import (
	"math"
	"sort"

	"rendezvous/internal/serve"
	"rendezvous/internal/stats"
)

// metricDef names one reported metric. End-to-end metrics carry the
// bound BENCHMARK.json records: the share of the baseline median by
// which the metric may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
	e2e                bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{name: name, unit: unit, better: better, bound: bound, e2e: true}
}

func layer(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, better: better}
}

// metricDefs lists every metric in report order. BENCHMARK.json mirrors
// it (bench_test.go checks that).
var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("ttr_p50_ms", "ms", "lower", 0.25),
	e2e("jobs_per_s", "jobs/s", "higher", 0.25),
	e2e("agent_slots_per_s", "agent-slots/s", "higher", 0.25),
	e2e("cpu_ms_per_job", "ms", "lower", 0.25),
	e2e("peak_rss_mb", "MiB", "lower", 0.25),

	layer("client.ttr_p90_ms", "ms", "lower"),
	layer("client.ttr_p99_ms", "ms", "lower"),
	layer("client.max_rate_jobs_s", "jobs/s", "higher"),
	layer("client.fail_frac", "ratio", "lower"),
	layer("client.gen_late_p99_ms", "ms", "lower"),
	layer("client.polls_per_job", "count", "lower"),
	layer("client.submit_created_frac", "ratio", "higher"),

	layer("serve.http.post_p50_ms", "ms", "lower"),
	layer("serve.http.post_p99_ms", "ms", "lower"),
	layer("serve.http.get_p50_ms", "ms", "lower"),
	layer("serve.http.server_post_p99_us", "us", "lower"),
	layer("serve.http.server_get_p99_us", "us", "lower"),
	layer("serve.http.errors", "count", "lower"),
	layer("serve.http.encode_us", "us", "lower"),

	layer("serve.manager.session_reuse_frac", "ratio", "higher"),
	layer("serve.manager.shed", "count", "lower"),
	layer("serve.manager.queue_depth_max", "count", "lower"),
	layer("serve.manager.queue_wait_p50_ms", "ms", "lower"),
	layer("serve.manager.queue_wait_p99_ms", "ms", "lower"),
	layer("serve.manager.service_p50_ms", "ms", "lower"),
	layer("serve.manager.service_p90_ms", "ms", "lower"),

	layer("scenario.build_ms", "ms", "lower"),
	layer("scenario.open_ms", "ms", "lower"),
	layer("scenario.graph_ms", "ms", "lower"),
	layer("scenario.summarize_ms", "ms", "lower"),

	layer("schedule.build_us_per_agent", "us", "lower"),

	layer("simulator.engine_build_ms", "ms", "lower"),
	layer("simulator.run_first_ms", "ms", "lower"),
	layer("simulator.run_steady_ms", "ms", "lower"),
	layer("simulator.agent_slots_per_s", "agent-slots/s", "higher"),
	layer("simulator.route_pairwise_frac", "ratio", "lower"),
	layer("simulator.route_joint_frac", "ratio", "higher"),
	layer("simulator.meetings_per_job", "count", "higher"),

	layer("tablecache.hit_frac", "ratio", "higher"),
	layer("tablecache.misses_per_job", "count", "lower"),
	layer("tablecache.evictions", "count", "lower"),
	layer("tablecache.bytes_mb", "MiB", "lower"),
	layer("tablecache.pinned_after_drain", "count", "lower"),

	layer("trace.ttr_p50_ms", "ms", "lower"),
	layer("trace.overhead_frac", "ratio", "lower"),
	layer("trace.self.job_ms", "ms", "lower"),
	layer("trace.self.client.submit_ms", "ms", "lower"),
	layer("trace.self.client.poll_ms", "ms", "lower"),
	layer("trace.self.serve.queue_ms", "ms", "lower"),
	layer("trace.self.serve.service_ms", "ms", "lower"),
}

// minTailSamples is the sample count below which a closed-loop phase's
// tail percentiles are unresolved.
const minTailSamples = 100

// metric is one measured value with the samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects metrics by name.
type metricSet map[string]metric

func (m metricSet) add(name string, v float64, n int) {
	for _, d := range metricDefs {
		if d.name == name {
			m[name] = metric{Name: name, Value: v, Unit: d.unit, N: n}
			return
		}
	}
	panic("bench: undefined metric " + name)
}

// ordered returns the set's metrics in metricDefs order.
func (m metricSet) ordered() []metric {
	var out []metric
	for _, d := range metricDefs {
		if v, ok := m[d.name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pct is the p-quantile of xs.
func pct(xs []float64, p float64) float64 { return stats.Percentile(sorted(xs), p) }

func median(xs []float64) float64 { return pct(xs, 0.5) }

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ttrsMs returns each job's time-to-result in ms; a failed job counts
// as +Inf, so it misses every latency limit.
func ttrsMs(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i := range outs {
		xs[i] = math.Inf(1)
		if outs[i].ok() {
			xs[i] = ms(outs[i].ttr())
		}
	}
	return xs
}

// step is one open-loop ladder rung.
type step struct {
	rate            float64
	jobs, failed    int
	ttrP99, lateP99 float64 // ms
	pass            bool
}

// evalStep applies the ladder's limits to one rung's jobs.
func evalStep(rate float64, outs []outcome) step {
	s := step{rate: rate, jobs: len(outs)}
	late := make([]float64, len(outs))
	for i := range outs {
		if !outs[i].ok() {
			s.failed++
		}
		late[i] = ms(outs[i].sent - outs[i].due)
	}
	s.ttrP99 = pct(ttrsMs(outs), 0.99)
	s.lateP99 = pct(late, 0.99)
	s.pass = s.jobs > 0 && s.failed == 0 && s.ttrP99 <= limitTTRp99Ms && s.lateP99 <= limitLateP99Ms
	return s
}

// maxRate is the highest rung passed before the first failing one (0
// when the first fails).
func maxRate(steps []step) float64 {
	r := 0.0
	for _, s := range steps {
		if !s.pass {
			break
		}
		r = s.rate
	}
	return r
}

// statsDelta is the change in /v1/stats counters over the measured
// phase.
func statsDelta(s0, s1 serve.StatsResponse) (opened, reused, shed, hits, misses, evictions float64) {
	m0, m1, c0, c1 := s0.Manager, s1.Manager, s0.Cache, s1.Cache
	return float64(m1.SessionsOpened - m0.SessionsOpened), float64(m1.SessionsReused - m0.SessionsReused),
		float64(m1.Shed - m0.Shed), float64(c1.Hits - c0.Hits), float64(c1.Misses - c0.Misses),
		float64(c1.Evictions - c0.Evictions)
}

// phaseMetrics derives the end-to-end and client, serve and table-cache
// metrics of one measured phase.
func phaseMetrics(m metricSet, w workload, p *phase) {
	base := p.base
	n := len(base)
	ttr := ttrsMs(base)
	var ok, created, polls int
	var slots float64
	var post, get []float64
	for _, o := range base {
		if o.ok() {
			ok++
			sc := w.spec(p.seed, o.idx).Scenario
			slots += float64(sc.Agents) * float64(sc.Horizon)
		}
		polls += len(o.getDurs)
		post = append(post, ms(o.postDur))
		for _, g := range o.getDurs {
			get = append(get, ms(g))
		}
	}
	wall := p.baseWall.Seconds()
	if len(p.setups) > 0 {
		m.add("setup_s", median(p.setups), len(p.setups))
	}
	m.add("ttr_p50_ms", pct(ttr, 0.5), n)
	m.add("client.ttr_p90_ms", pct(ttr, 0.9), n)
	m.add("client.ttr_p99_ms", pct(ttr, 0.99), n)
	m.add("jobs_per_s", float64(ok)/wall, ok)
	m.add("agent_slots_per_s", slots/wall, ok)
	if p.cpu > 0 {
		m.add("cpu_ms_per_job", ms(p.cpu)/float64(max(ok, 1)), ok)
	}
	if p.rss > 0 {
		m.add("peak_rss_mb", p.rss, 1)
	}
	m.add("client.fail_frac", frac(float64(n-ok), float64(n)), n)
	for _, o := range p.outs {
		if o.created {
			created++
		}
	}
	m.add("client.submit_created_frac", frac(float64(created), float64(len(p.outs))), len(p.outs))
	m.add("client.polls_per_job", frac(float64(polls), float64(n)), n)
	m.add("serve.http.post_p50_ms", pct(post, 0.5), len(post))
	m.add("serve.http.post_p99_ms", pct(post, 0.99), len(post))
	m.add("serve.http.get_p50_ms", pct(get, 0.5), len(get))
	if w.ladder != nil {
		late := make([]float64, n)
		for i, o := range base {
			late[i] = ms(o.sent - o.due)
		}
		m.add("client.gen_late_p99_ms", pct(late, 0.99), n)
		m.add("client.max_rate_jobs_s", maxRate(p.steps), len(p.steps))
	} else {
		m.add("client.gen_late_p99_ms", 0, 0)
		m.add("client.max_rate_jobs_s", 0, 0)
	}

	routes := p.s1.Routes
	postR, getR := routes["POST /v1/jobs"], routes["GET /v1/jobs/{id}"]
	var errs int64
	for _, r := range routes {
		errs += r.Errors
	}
	m.add("serve.http.server_post_p99_us", float64(postR.P99Us), int(postR.Count))
	m.add("serve.http.server_get_p99_us", float64(getR.P99Us), int(getR.Count))
	m.add("serve.http.errors", float64(errs), int(postR.Count+getR.Count))
	opened, reused, shed, hits, misses, evictions := statsDelta(p.s0, p.s1)
	jobs := len(p.outs)
	m.add("serve.manager.session_reuse_frac", frac(reused, opened+reused), int(opened+reused))
	m.add("serve.manager.shed", shed, jobs)
	m.add("serve.manager.queue_depth_max", float64(p.depthMax), p.depthSamples)
	m.add("tablecache.hit_frac", frac(hits, hits+misses), int(hits+misses))
	m.add("tablecache.misses_per_job", frac(misses, float64(jobs)), jobs)
	m.add("tablecache.evictions", evictions, jobs)
	m.add("tablecache.bytes_mb", float64(p.s1.Cache.Bytes)/(1<<20), 1)
	m.add("tablecache.pinned_after_drain", float64(p.pinned), 1)
}

// replayMetrics derives the scenario, schedule and simulator metrics,
// and the result encode time, from the off-clock replay.
func replayMetrics(m metricSet, st replayStats) {
	m.add("scenario.build_ms", median(st.build), len(st.build))
	m.add("scenario.open_ms", median(st.open), len(st.open))
	m.add("scenario.graph_ms", median(st.graph), len(st.graph))
	m.add("scenario.summarize_ms", median(st.summarize), len(st.summarize))
	m.add("schedule.build_us_per_agent", frac(st.schedUs, float64(st.agentsBuilt)), st.agentsBuilt)
	m.add("simulator.engine_build_ms", median(st.engine), len(st.engine))
	m.add("simulator.run_first_ms", median(st.runFirst), len(st.runFirst))
	m.add("simulator.run_steady_ms", median(st.runSteady), len(st.runSteady))
	m.add("simulator.agent_slots_per_s", frac(st.agentSlots, st.runSec), st.jobs)
	m.add("simulator.route_pairwise_frac", frac(float64(st.pairwise), float64(st.jobs)), st.jobs)
	m.add("simulator.route_joint_frac", frac(float64(st.joint), float64(st.jobs)), st.jobs)
	m.add("simulator.meetings_per_job", frac(float64(st.meetings), float64(st.jobs)), st.jobs)
	m.add("serve.http.encode_us", median(st.encodeUs), len(st.encodeUs))
}

// traceMetrics derives the queue and service waits, per-span self time
// and tracing overhead from the traced phase q, against the untraced
// phase's median time-to-result.
func traceMetrics(m metricSet, q *phase, untracedP50 float64) {
	ids := map[string]bool{}
	for _, o := range q.base {
		if o.ok() {
			ids[o.id] = true
		}
	}
	sum := q.tr.summarize(ids)
	p50 := median(ttrsMs(q.base))
	m.add("trace.ttr_p50_ms", p50, len(q.base))
	m.add("trace.overhead_frac", p50/untracedP50-1, len(q.base))
	m.add("serve.manager.queue_wait_p50_ms", pct(sum.queueWait, 0.5), len(sum.queueWait))
	m.add("serve.manager.queue_wait_p99_ms", pct(sum.queueWait, 0.99), len(sum.queueWait))
	m.add("serve.manager.service_p50_ms", pct(sum.service, 0.5), len(sum.service))
	m.add("serve.manager.service_p90_ms", pct(sum.service, 0.9), len(sum.service))
	for _, name := range []string{"job", "client.submit", "client.poll", "serve.queue", "serve.service"} {
		m.add("trace.self."+name+"_ms", sum.selfMs[name], sum.jobs)
	}
}
