// Command bench measures what a submitter of rvserve jobs waits for:
// time-to-result, throughput, CPU and memory per job through the
// daemon, on four fleet workloads, with a per-layer ledger beside them.
//
// It is run from the repository root through run.sh, which builds this
// program and cmd/rvserve from the checkout first:
//
//	bash bench/run.sh --workload net1k-warm --seed 1 --seconds 20 --trace 0
//
// Each workload boots rvserve as a subprocess (-workers = nproc, on an
// ephemeral loopback port), warms it up, drives it from this one
// process over at most nproc HTTP connections, drains it, and re-runs a
// sample of its jobs in-process to check every replayed result is
// byte-identical. --trace 1 adds a traced run with the server hosted
// in-process for the per-layer waits. The last line of standard output
// is a JSON summary: end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1. A correctness failure exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all): "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per workload (the open-loop ladder splits them across its rungs)")
	trace := fs.Int("trace", 0, "1 adds a traced in-process run and reports per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload; more than 1 reports each end-to-end metric's median, min and max")
	outFile := fs.String("out", "", "write every metric, with unit and sample count, to this JSON file")
	spansFile := fs.String("spans", "", "with --trace 1, write the traced spans to this JSON file")
	rvserve := fs.String("rvserve", ".bench_build/rvserve", "rvserve binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds and -repeat must be ≥ 1 and --trace 0 or 1")
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	if _, err := os.Stat(*rvserve); err != nil {
		return fmt.Errorf("rvserve binary: %w (build it with bench/run.sh)", err)
	}
	o := options{
		seed: *seed, dur: time.Duration(*seconds) * time.Second,
		rvserve: *rvserve, procs: runtime.NumCPU(),
	}
	cond := conditions{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: o.seed, Seconds: *seconds, Trace: *trace, Repeat: *repeat,
		Workers: o.procs, Conns: o.procs, SetupBoots: setupBoots, Clients: closedClients,
	}
	fmt.Fprintf(out, "# rvserve job benchmark: %s\n", cond)
	fmt.Fprintln(out, "# workload metric value unit (samples)")

	var runs [][]*result // [workload][repeat]
	for _, w := range ws {
		var rs []*result
		for k := 0; k < *repeat; k++ {
			r, err := runWorkload(ctx, w, o, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printResult(out, r, *trace == 1)
			rs = append(rs, r)
		}
		runs = append(runs, rs)
	}
	if *repeat > 1 {
		printStability(out, runs)
	}
	sum, problems := summary(runs, *trace == 1)
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	if *outFile != "" {
		if err := writeOut(*outFile, cond, runs); err != nil {
			return err
		}
	}
	if *spansFile != "" && *trace == 1 {
		spans := map[string][]span{}
		for _, rs := range runs {
			spans[rs[len(rs)-1].workload] = rs[len(rs)-1].spans
		}
		if err := writeJSON(*spansFile, spans); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("correctness check failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// conditions records what a measurement was taken under.
type conditions struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Repeat     int    `json:"repeat"`
	Workers    int    `json:"daemon_workers"`
	Conns      int    `json:"client_conns"`
	SetupBoots int    `json:"setup_boots"`
	Clients    int    `json:"closed_loop_clients"`
}

func (c conditions) String() string {
	return fmt.Sprintf("%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d seconds=%d trace=%d repeat=%d daemon_workers=%d client_conns=%d closed_loop_clients=%d setup_boots=%d",
		c.Go, c.NProc, c.GOMAXPROCS, c.Commit, c.Seed, c.Seconds, c.Trace, c.Repeat, c.Workers, c.Conns, c.Clients, c.SetupBoots)
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// shown reports whether a metric belongs in a run's output: per-layer
// metrics with tracing, end-to-end ones without.
func shown(d metricDef, traced bool) bool { return d.e2e != traced }

func printResult(out io.Writer, r *result, traced bool) {
	for _, s := range r.steps {
		verdict := "pass"
		if !s.pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "%s ladder rate=%.0f jobs/s jobs=%d failed=%d ttr_p99=%.3fms late_p99=%.3fms %s\n",
			r.workload, s.rate, s.jobs, s.failed, s.ttrP99, s.lateP99, verdict)
	}
	for _, m := range r.metrics.ordered() {
		note := ""
		tail := strings.Contains(m.Name, "p90") || strings.Contains(m.Name, "p99")
		if tail && m.N > 0 && m.N < minTailSamples {
			note = " unresolved"
		}
		fmt.Fprintf(out, "%s %s %.6g %s (n=%d)%s\n", r.workload, m.Name, m.Value, m.Unit, m.N, note)
	}
	if traced {
		fmt.Fprintf(out, "%s note: trace.* and serve.manager wait metrics come from a traced run with rvserve hosted in this process; trace.overhead_frac compares its ttr_p50_ms with the untraced subprocess run, so it includes in-process hosting\n", r.workload)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "%s CHECK FAILED: %s\n", r.workload, p)
	}
}

// printStability reports each end-to-end metric's median, min and max
// across repeats, flagging a spread (max−min over median) past the
// metric's bound.
func printStability(out io.Writer, runs [][]*result) {
	fmt.Fprintln(out, "# stability: workload metric median min max spread bound")
	for _, rs := range runs {
		for _, d := range metricDefs {
			if !d.e2e {
				continue
			}
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.metrics[d.name].Value)
			}
			s := sorted(xs)
			med := median(xs)
			spread := frac(s[len(s)-1]-s[0], med)
			flag := ""
			if spread > d.bound {
				flag = " FLAGGED"
			}
			fmt.Fprintf(out, "%s %s %.6g %.6g %.6g %.3f %.2f%s\n", rs[0].workload, d.name, med, s[0], s[len(s)-1], spread, d.bound, flag)
		}
	}
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryStat `json:"metrics"`
}

type summaryStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the runs into the summary line: each shown metric's
// median across repeats, keyed by name alone for one workload and by
// workload.name for several.
func summary(runs [][]*result, traced bool) (summaryLine, []string) {
	s := summaryLine{Metrics: map[string]summaryStat{}}
	var problems []string
	for _, rs := range runs {
		for _, r := range rs {
			s.Attempted += r.attempted
			s.Failed += r.failed
			for _, p := range r.problems {
				problems = append(problems, r.workload+": "+p)
			}
		}
		for _, d := range metricDefs {
			if !shown(d, traced) {
				continue
			}
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.metrics[d.name].Value)
			}
			key := d.name
			if len(runs) > 1 {
				key = rs[0].workload + "." + d.name
			}
			v := median(xs)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				// Failed jobs count as +Inf; JSON has no infinity.
				problems = append(problems, fmt.Sprintf("%s: %s is %v", rs[0].workload, d.name, v))
				v = 0
			}
			s.Metrics[key] = summaryStat{Value: v, Unit: d.unit}
		}
	}
	s.Correct = len(problems) == 0
	return s, problems
}

// outRun is one workload run in the -out file.
type outRun struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func writeOut(path string, cond conditions, runs [][]*result) error {
	doc := struct {
		Conditions conditions `json:"conditions"`
		Runs       []outRun   `json:"runs"`
	}{Conditions: cond}
	for _, rs := range runs {
		for _, r := range rs {
			doc.Runs = append(doc.Runs, outRun{
				Workload: r.workload, Attempted: r.attempted, Failed: r.failed, Problems: r.problems,
				Metrics: r.metrics.ordered(),
			})
		}
	}
	return writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
