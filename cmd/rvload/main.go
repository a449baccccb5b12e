// Command rvload drives an rvserve instance, in two modes:
//
// Check mode replays a deterministic request sequence derived from
// -seed and prints a SHA-256 over the concatenated response bodies —
// two runs against any server (any worker count, cold or warm cache)
// must print the same hash, which is how the smoke test pins the
// daemon's byte-determinism contract:
//
//	rvload -url http://127.0.0.1:8080 -mode jobs -check 64 -seed 7
//
// Load mode sends requests open-loop at -rate for -duration and
// reports achieved throughput with p50/p99/p999 request latency:
//
//	rvload -url http://127.0.0.1:8080 -rate 2000 -duration 10s -c 32
//
// Requests the server sheds (429 queue-full/quota, 503 draining) are
// retried up to -retries times with exponential backoff and jitter,
// honoring the server's Retry-After hint; the load report separates
// attempted (HTTP attempts incl. retries), retried (requests needing
// ≥1 retry), shed (still refused after the budget), and dropped
// (generator drops that kept the load open-loop).
//
// -stats appends one line from the server's /v1/stats (cache hits,
// pinned entries, queue depth) after either mode.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rendezvous/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rvload:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rvload", flag.ContinueOnError)
	url := fs.String("url", "", "rvserve base URL, e.g. http://127.0.0.1:8080 (required)")
	mode := fs.String("mode", "schedule", "request kind: schedule or jobs")
	check := fs.Int("check", 0, "check mode: replay this many deterministic requests and print their hash")
	rate := fs.Int("rate", 2000, "load mode: target request rate per second")
	duration := fs.Duration("duration", 5*time.Second, "load mode: run length")
	conc := fs.Int("c", 16, "load mode: concurrent senders")
	seed := fs.Uint64("seed", 1, "request-sequence seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request (and job-completion) timeout")
	retries := fs.Int("retries", 3, "max retries per request on 429/503 (exponential backoff, honors Retry-After)")
	wantStats := fs.Bool("stats", false, "print server cache/queue stats after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return fmt.Errorf("-url is required")
	}
	if *mode != "schedule" && *mode != "jobs" {
		return fmt.Errorf("-mode %q: want schedule or jobs", *mode)
	}
	if *check < 0 || *rate < 1 || *conc < 1 || *duration <= 0 || *retries < 0 {
		return fmt.Errorf("-check and -retries must be ≥ 0; -rate, -c, -duration must be positive")
	}
	base := strings.TrimSuffix(*url, "/")
	client := &http.Client{Timeout: *timeout}

	var err error
	if *check > 0 {
		err = runCheck(out, client, base, *mode, *check, *seed, *timeout, *retries)
	} else {
		err = runLoad(out, client, base, *mode, *rate, *conc, *duration, *seed, *retries)
	}
	if err != nil {
		return err
	}
	if *wantStats {
		return printStats(out, client, base)
	}
	return nil
}

// mix64 is the SplitMix64 finalizer: request i's parameters are pure
// functions of (seed, i), so the sequence replays identically anywhere.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// requestBody builds the i-th deterministic request for a mode.
// Schedule requests vary the channel set and seed; job requests rotate
// a few fleet seeds across several horizons so a warm server exercises
// session reuse while a cold one builds each fleet once.
func requestBody(mode string, seed uint64, i int) (path, body string) {
	h := mix64(seed + uint64(i))
	if mode == "schedule" {
		n := 16
		c1 := 1 + int(h%uint64(n))
		c2 := 1 + int((h>>16)%uint64(n))
		c3 := 1 + int((h>>32)%uint64(n))
		set := map[int]bool{c1: true, c2: true, c3: true}
		chans := make([]int, 0, 3)
		for c := range set {
			chans = append(chans, c)
		}
		sort.Ints(chans)
		b, _ := json.Marshal(chans)
		return "/v1/schedule", fmt.Sprintf(`{"N":%d,"Channels":%s,"Seed":%d,"Slots":64}`, n, b, h>>40)
	}
	fleetSeed := 1 + h%4
	horizon := 1024 * (1 + (h>>8)%4)
	if h%3 == 0 {
		// Coalition fleet: every agent hops the same block, so one
		// schedule backs the whole fleet. The horizon spans at least two
		// of its 26,880-slot periods, so the engine compiles it through
		// the shared cache and the table fetches hit even on a cold
		// single worker — the hits the serve-smoke stats assertion
		// counts on.
		return "/v1/jobs", fmt.Sprintf(
			`{"Scenario":{"N":12,"Agents":8,"Block":[1,2,5,%d],"Seed":%d,"Horizon":%d},"IncludeMeetings":true}`,
			7+(h>>4)%4, fleetSeed, 64*horizon)
	}
	return "/v1/jobs", fmt.Sprintf(
		`{"Scenario":{"N":12,"Agents":8,"K":4,"Seed":%d,"Horizon":%d},"IncludeMeetings":true}`,
		fleetSeed, horizon)
}

func post(client *http.Client, url, body string) (int, http.Header, []byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// shedStatus reports the server's overload statuses: 429 (queue full or
// fleet quota, with a Retry-After hint) and 503 (draining).
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// postRetry posts with up to retries re-attempts on the shedding
// statuses. The wait honors the server's Retry-After when present,
// otherwise exponential backoff from 50ms, always with jitter and
// capped at 2s so a load tool never parks for a server-sized hint.
// It returns the final status/body plus how many attempts it made;
// transport errors and non-shed statuses return immediately.
func postRetry(client *http.Client, url, body string, retries int) (code int, resp []byte, attempts int, err error) {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var hdr http.Header
		code, hdr, resp, err = post(client, url, body)
		attempts = attempt + 1
		if err != nil || !shedStatus(code) || attempt == retries {
			return
		}
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if ra, e := strconv.Atoi(hdr.Get("Retry-After")); e == nil && ra > 0 {
			wait = time.Duration(ra) * time.Second
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// runCheck replays the deterministic sequence and hashes what the
// server said. Job requests hash the completed job body (status,
// result and all), not the submission ack, so the hash covers the
// simulation output itself.
func runCheck(out io.Writer, client *http.Client, base, mode string, n int, seed uint64, timeout time.Duration, retries int) error {
	hash := sha256.New()
	for i := 0; i < n; i++ {
		path, body := requestBody(mode, seed, i)
		code, resp, _, err := postRetry(client, base+path, body, retries)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if code != http.StatusOK && code != http.StatusAccepted {
			return fmt.Errorf("request %d: status %d: %s", i, code, resp)
		}
		if mode == "jobs" {
			var sub struct{ ID string }
			if err := json.Unmarshal(resp, &sub); err != nil {
				return fmt.Errorf("request %d: decode ack: %w", i, err)
			}
			resp, err = awaitJob(client, base, sub.ID, timeout)
			if err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
		hash.Write(resp)
	}
	fmt.Fprintf(out, "rvload: check mode=%s n=%d seed=%d sha256=%x\n", mode, n, seed, hash.Sum(nil))
	return nil
}

// awaitJob polls until the job is terminal and returns its final body.
func awaitJob(client *http.Client, base, id string, timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var jr struct{ Status string }
		if err := json.Unmarshal(body, &jr); err != nil {
			return nil, fmt.Errorf("decode job %s: %w", id, err)
		}
		switch jr.Status {
		case "done", "failed", "aborted", "canceled":
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %s", id, jr.Status, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runLoad fires requests open-loop: a ticker releases send slots at
// the target rate and -c senders consume them, so server slowdowns
// show up as latency, not a silently reduced offered rate.
func runLoad(out io.Writer, client *http.Client, base, mode string, rate, conc int, duration time.Duration, seed uint64, retries int) error {
	type obs struct {
		micros float64
		ok     bool
	}
	slots := make(chan int, rate) // buffered: a stalled server queues slots
	results := make(chan obs, rate*int(duration/time.Second+1))

	// attempted counts every HTTP attempt including retries; retried
	// counts requests that needed at least one; shed counts requests
	// the server still refused (429/503) after the retry budget.
	var attempted, retried, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range slots {
				path, body := requestBody(mode, seed, i)
				start := time.Now()
				code, _, tries, err := postRetry(client, base+path, body, retries)
				attempted.Add(int64(tries))
				if tries > 1 {
					retried.Add(1)
				}
				if err == nil && shedStatus(code) {
					shed.Add(1)
				}
				results <- obs{
					micros: float64(time.Since(start).Microseconds()),
					ok:     err == nil && code < 400,
				}
			}
		}()
	}

	// Deficit dispatch: every tick releases however many sends the
	// target rate is owed since the last one, so the offered rate is
	// not bounded by timer granularity (a per-request ticker tops out
	// near 1 kHz on coalescing runtimes).
	ticker := time.NewTicker(5 * time.Millisecond)
	begin := time.Now()
	deadline := begin.Add(duration)
	sent, dropped := 0, 0
	for now := begin; now.Before(deadline); now = <-ticker.C {
		target := int(float64(rate) * now.Sub(begin).Seconds())
		for sent < target {
			select {
			case slots <- sent:
				sent++
			default:
				// A second's worth of backlog is already queued;
				// shedding keeps the generator open-loop instead of
				// stalling it behind the slow server.
				dropped += target - sent
				sent = target
			}
		}
	}
	ticker.Stop()
	close(slots)
	wg.Wait()
	elapsed := time.Since(begin)
	close(results)

	lats := make([]float64, 0, sent)
	okCount := 0
	for o := range results {
		lats = append(lats, o.micros)
		if o.ok {
			okCount++
		}
	}
	if len(lats) == 0 {
		return fmt.Errorf("no requests completed")
	}
	sort.Float64s(lats)
	achieved := float64(okCount) / elapsed.Seconds()
	// dropped = generator drops (open-loop backlog), shed = server 429/503
	// after retries — separate failure economies, reported separately.
	fmt.Fprintf(out, "rvload: mode=%s sent=%d ok=%d errors=%d attempted=%d retried=%d shed=%d dropped=%d elapsed=%.2fs achieved=%.0f req/s\n",
		mode, len(lats), okCount, len(lats)-okCount, attempted.Load(), retried.Load(), shed.Load(),
		dropped, elapsed.Seconds(), achieved)
	fmt.Fprintf(out, "rvload: latency p50=%.0fµs p99=%.0fµs p999=%.0fµs max=%.0fµs\n",
		stats.Percentile(lats, 0.50), stats.Percentile(lats, 0.99),
		stats.Percentile(lats, 0.999), lats[len(lats)-1])
	return nil
}

// printStats fetches /v1/stats and prints the cache and queue numbers
// the smoke test greps for.
func printStats(out io.Writer, client *http.Client, base string) error {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Cache struct {
			Hits, Misses, Entries int64
			Pinned                int
		}
		Manager struct {
			QueueDepth     int
			SessionsOpened int64
			SessionsReused int64
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode stats: %w", err)
	}
	fmt.Fprintf(out, "rvload: stats hits=%d misses=%d entries=%d pinned=%d queue=%d sessions=%d/%d\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Entries, st.Cache.Pinned,
		st.Manager.QueueDepth, st.Manager.SessionsOpened, st.Manager.SessionsReused)
	return nil
}
