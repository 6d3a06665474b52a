package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"protogen/internal/jobstore"
)

// fastConfig is the tuning the queue tests share: a deep queue and
// quiet logs, since the tests inject faults on purpose.
func fastConfig() Config {
	return Config{
		Workers:     4,
		QueueDepth:  2048,
		MaxJobs:     8192,
		MaxAttempts: 4,
		Warn:        func(string, ...any) {},
	}
}

// terminalCount reads the number of terminal transitions recorded.
func terminalCount(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terminals
}

// mix64 is the test-side seeded hash for deterministic fake work.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// flakyExec is a fast synthetic executor: per-seed deterministic
// runtime of 1–4ms and, on a job's first attempt, an injected transient
// failure for a transientRate fraction of seeds and a panic for a
// further panicRate fraction. It deliberately ignores ctx so attempts
// abandoned by a shutdown deadline run to completion and exercise the
// discard path.
func flakyExec(transientRate, panicRate float64) Executor {
	var mu sync.Mutex
	attempts := map[int64]int{}
	return func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		attempts[req.Seed]++
		n := attempts[req.Seed]
		mu.Unlock()
		h := mix64(uint64(req.Seed))
		time.Sleep(time.Duration(1+h%4) * time.Millisecond)
		if n == 1 {
			switch u := float64(h>>32&0xffff) / 0x10000; {
			case u < transientRate:
				return Outcome{Status: StatusFailed, Err: fmt.Errorf("injected transient fault"), Transient: true}
			case u < transientRate+panicRate:
				panic(fmt.Sprintf("injected crash (seed %d)", req.Seed))
			}
		}
		ok := true
		return Outcome{
			Status:  StatusDone,
			Summary: fmt.Sprintf("synthetic seed %d", req.Seed),
			OK:      &ok,
			Result:  map[string]int64{"seed": req.Seed},
		}
	}
}

// submitSynthetic posts one synthetic verify-shaped job with the given
// seed and returns its id.
func submitSynthetic(t *testing.T, url string, seed int64) string {
	t.Helper()
	var sub JobView
	postJSON(t, url+"/jobs",
		fmt.Sprintf(`{"kind":"verify","protocol":"MSI","seed":%d}`, seed),
		http.StatusAccepted, &sub)
	return sub.ID
}

// isSettled includes the dead-letter state next to the classic
// terminal trio.
func isSettled(v JobView) bool { return isTerminal(v) || v.Status == StatusDead }

// TestTransientRetrySucceeds: a job whose first attempts fail
// transiently is retried and completes, with the failure chain
// preserved on the terminal record.
func TestTransientRetrySucceeds(t *testing.T) {
	failures := 2
	var mu sync.Mutex
	calls := 0
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= failures {
			return Outcome{Status: StatusFailed, Err: fmt.Errorf("flaky dependency (call %d)", n), Transient: true}
		}
		ok := true
		return Outcome{Status: StatusDone, Summary: "recovered", OK: &ok, Result: map[string]bool{"ok": true}}
	}
	_, ts := newTestServer(t, cfg)
	id := submitSynthetic(t, ts.URL, 1)
	v := pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("retried job: %+v", v)
	}
	if v.Attempt != failures+1 {
		t.Fatalf("attempt count %d, want %d", v.Attempt, failures+1)
	}
	if len(v.Failures) != failures || !strings.Contains(v.Failures[0], "attempt 1: flaky dependency") {
		t.Fatalf("failure chain: %v", v.Failures)
	}
}

// TestRetryBypassesFullQueue: a retry of accepted work is requeued
// even while new submits bounce off a full queue.
func TestRetryBypassesFullQueue(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	calls := 0
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-release
			return Outcome{Status: StatusFailed, Err: fmt.Errorf("crashed"), Transient: true}
		}
		ok := true
		return Outcome{Status: StatusDone, Summary: "ran", OK: &ok}
	}
	_, ts := newTestServer(t, cfg)
	first := submitSynthetic(t, ts.URL, 1)
	pollUntil(t, ts.URL+"/jobs/"+first, 10*time.Second, func(v JobView) bool { return v.Status == StatusRunning })
	second := submitSynthetic(t, ts.URL, 2) // fills the queue
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI"}`, http.StatusServiceUnavailable, nil)
	close(release) // the running job fails transiently into a full queue
	for _, id := range []string{first, second} {
		if v := pollUntil(t, ts.URL+"/jobs/"+id, 10*time.Second, isSettled); v.Status != StatusDone {
			t.Fatalf("job %s: %+v", id, v)
		}
	}
}

// TestDeadLetterAfterMaxAttempts: a job that fails transiently on
// every attempt is parked in the dead-letter state with the whole
// failure chain, and its result endpoint reports the chain.
func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.MaxAttempts = 3
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		return Outcome{Status: StatusFailed, Err: fmt.Errorf("always down"), Transient: true}
	}
	_, ts := newTestServer(t, cfg)
	id := submitSynthetic(t, ts.URL, 1)
	v := pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDead {
		t.Fatalf("status %s, want dead: %+v", v.Status, v)
	}
	if v.Attempt != cfg.MaxAttempts || len(v.Failures) != cfg.MaxAttempts {
		t.Fatalf("attempts %d failures %v, want %d of each", v.Attempt, v.Failures, cfg.MaxAttempts)
	}
	var res struct {
		Error    string   `json:"error"`
		Failures []string `json:"failures"`
	}
	if code := getJSON(t, ts.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("dead-letter result status %d", code)
	}
	if !strings.Contains(res.Error, "always down") || len(res.Failures) != cfg.MaxAttempts {
		t.Fatalf("dead-letter result: %+v", res)
	}
}

// TestShutdownDeadlineReleasesLease is the restart-recovery
// acceptance test: an in-flight job that outlives the shutdown
// deadline must be released back to queued in the durable store, so a
// restarted server re-runs it — and the release must not spend the
// job's attempt budget, which MaxAttempts=1 makes visible: a charged
// release would dead-letter the job.
func TestShutdownDeadlineReleasesLease(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})

	cfg := fastConfig()
	cfg.Workers = 1
	cfg.MaxAttempts = 1
	cfg.StoreDir = dir
	first := true
	var mu sync.Mutex
	cfg.Executor = func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		mu.Lock()
		me := first
		first = false
		mu.Unlock()
		ok := true
		if me {
			<-block // wedged: ignores ctx, outlives any deadline
			return Outcome{Status: StatusDone, Summary: "abandoned attempt", OK: &ok}
		}
		return Outcome{Status: StatusDone, Summary: "after restart", OK: &ok, Result: map[string]bool{"rerun": true}}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	id := submitSynthetic(t, ts.URL, 1)
	pollUntil(t, ts.URL+"/jobs/"+id, 10*time.Second, func(v JobView) bool {
		return v.Status == StatusRunning
	})
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(shutCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline shutdown returned %v, want DeadlineExceeded", err)
	}
	// Let the abandoned attempt report: its outcome must be discarded.
	close(block)
	srv.wg.Wait()
	if v, _ := srv.view(id); v.Status != StatusQueued || terminalCount(srv) != 0 {
		t.Fatalf("late outcome applied after release: %+v", v)
	}

	// The WAL must show the job released back to queued with the release
	// on its failure chain — not running, not lost.
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("WAL after deadline shutdown: %+v", recs)
	}
	released := recs[0]
	if released.State != jobstore.StateQueued {
		t.Fatalf("released job state %s, want queued: %+v", released.State, released)
	}
	if len(released.Failures) == 0 || !strings.Contains(released.Failures[0], "shutdown deadline") {
		t.Fatalf("release not on the failure chain: %v", released.Failures)
	}

	// A restarted server on the same store must replay and re-run it.
	_, ts2 := newTestServer(t, cfg)
	v := pollUntil(t, ts2.URL+"/jobs/"+id, 30*time.Second, isSettled)
	if v.Status != StatusDone || v.Summary != "after restart" {
		t.Fatalf("restarted server did not re-run the job: %+v", v)
	}
	if v.Attempt != released.Attempt+1 {
		t.Fatalf("re-run attempt %d, want released attempt %d + 1", v.Attempt, released.Attempt)
	}
	var res map[string]bool
	if code := getJSON(t, ts2.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK || !res["rerun"] {
		t.Fatalf("re-run result: %d %+v", code, res)
	}
}

// TestResultDurableAcrossRestart: a graceful restart serves finished
// results straight from the replayed store.
func TestResultDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig()
	cfg.Workers = 2
	cfg.StoreDir = dir
	cfg.Executor = flakyExec(0, 0)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	id := submitSynthetic(t, ts.URL, 7)
	pollUntil(t, ts.URL+"/jobs/"+id, 30*time.Second, isSettled)
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	var v JobView
	if code := getJSON(t, ts2.URL+"/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("replayed job status %d", code)
	}
	if v.Status != StatusDone || v.OK == nil || !*v.OK {
		t.Fatalf("replayed job: %+v", v)
	}
	var res map[string]int64
	if code := getJSON(t, ts2.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK || res["seed"] != 7 {
		t.Fatalf("replayed result: %d %+v", code, res)
	}
}

// TestWALCompatReplay boots on a WAL in the earlier lease-based
// format — records carrying lease_expiry, not_before and worker — with
// one finished job, one queued job and three running orphans of a
// crash. The finished job keeps its result, the queued job runs, the
// orphan with budget left re-runs with its interrupted attempt
// charged, the orphan on its last attempt dead-letters, and the orphan
// a client had asked to cancel resolves to canceled.
func TestWALCompatReplay(t *testing.T) {
	dir := t.TempDir()
	const ts = `"submitted":"2026-01-02T03:04:05Z","updated":"2026-01-02T03:04:06Z"`
	lines := []string{
		`{"op":"put","rec":{"id":"job-1","kind":"verify","request":{"kind":"verify","protocol":"MSI","seed":1},"state":"done","attempt":1,"summary":"old result","ok":true,"result":{"seed":1},` + ts + `,"finished":"2026-01-02T03:04:07Z"}}`,
		`{"op":"put","rec":{"id":"job-2","kind":"verify","request":{"kind":"verify","protocol":"MSI","seed":2},"state":"queued","attempt":1,"not_before":"2026-01-02T03:04:09Z","failures":["attempt 1: injected transient fault"],` + ts + `}}`,
		`{"op":"put","rec":{"id":"job-3","kind":"verify","request":{"kind":"verify","protocol":"MSI","seed":3},"state":"running","attempt":1,"worker":"w2","lease_expiry":"2026-01-02T03:04:10Z",` + ts + `,"started":"2026-01-02T03:04:06Z"}}`,
		`{"op":"put","rec":{"id":"job-4","kind":"verify","request":{"kind":"verify","protocol":"MSI","seed":4},"state":"running","attempt":4,"worker":"w1","lease_expiry":"2026-01-02T03:04:10Z",` + ts + `,"started":"2026-01-02T03:04:06Z"}}`,
		`{"op":"put","rec":{"id":"job-5","kind":"verify","request":{"kind":"verify","protocol":"MSI","seed":5},"state":"running","attempt":1,"worker":"w3","lease_expiry":"2026-01-02T03:04:10Z","cancel_requested":true,` + ts + `,"started":"2026-01-02T03:04:06Z"}}`,
	}
	if err := os.WriteFile(filepath.Join(dir, jobstore.WALName), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.StoreDir = dir
	cfg.Executor = flakyExec(0, 0)
	srv, ts2 := newTestServer(t, cfg)
	got := settledSet(t, ts2.URL, []string{"job-1", "job-2", "job-3", "job-4", "job-5"}, 10*time.Second)

	if v := got["job-1"]; v.Status != StatusDone || v.Summary != "old result" || v.Attempt != 1 {
		t.Fatalf("finished job changed on replay: %+v", v)
	}
	if v := got["job-2"]; v.Status != StatusDone || v.Attempt != 2 || v.Summary != "synthetic seed 2" {
		t.Fatalf("queued job: %+v", v)
	}
	v := got["job-3"]
	if v.Status != StatusDone || v.Attempt != 2 || v.Worker != "" {
		t.Fatalf("orphan re-run: %+v", v)
	}
	if len(v.Failures) != 1 || v.Failures[0] != "attempt 1: interrupted by restart" {
		t.Fatalf("orphan failure chain: %v", v.Failures)
	}
	if v := got["job-4"]; v.Status != StatusDead || v.Error != "attempt 4: interrupted by restart" {
		t.Fatalf("orphan on its last attempt: %+v", v)
	}
	if v := got["job-5"]; v.Status != StatusCanceled || !v.Canceled || v.Attempt != 1 {
		t.Fatalf("orphan with a pending cancel: %+v", v)
	}
	if n := terminalCount(srv); n != 4 {
		t.Fatalf("terminal transitions %d, want 4 (job-1 was terminal before boot)", n)
	}
	var health struct {
		Jobs map[string]int `json:"jobs"`
	}
	getJSON(t, ts2.URL+"/healthz", &health)
	if health.Jobs["done"] != 3 || health.Jobs["dead"] != 1 || health.Jobs["canceled"] != 1 || len(health.Jobs) != 3 {
		t.Fatalf("healthz job counts after replay: %v", health.Jobs)
	}
}

// TestHealthzDegradedStore: when the job store stops persisting, the
// server refuses new work (503 submits) and healthz reports degraded
// with a 503. While healthy it reports every configured worker
// goroutine as live.
func TestHealthzDegradedStore(t *testing.T) {
	mem := jobstore.NewMem()
	cfg := fastConfig()
	cfg.Workers = 3
	cfg.Store = mem
	cfg.Executor = flakyExec(0, 0)
	_, ts := newTestServer(t, cfg)

	submitSynthetic(t, ts.URL, 1)
	var health struct {
		Status  string `json:"status"`
		Workers struct {
			Configured int `json:"configured"`
			Live       int `json:"live"`
		} `json:"workers"`
		Queue struct {
			Capacity int `json:"capacity"`
		} `json:"queue"`
		StoreError string `json:"store_error"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthy server: %d %+v", code, health)
	}
	if health.Queue.Capacity != cfg.QueueDepth {
		t.Fatalf("queue capacity %d, want %d", health.Queue.Capacity, cfg.QueueDepth)
	}
	if health.Workers.Configured != cfg.Workers || health.Workers.Live != cfg.Workers {
		t.Fatalf("workers %+v, want %d configured and live", health.Workers, cfg.Workers)
	}

	mem.Fail(fmt.Errorf("disk full"))
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusServiceUnavailable ||
		health.Status != "degraded" || !strings.Contains(health.StoreError, "disk full") {
		t.Fatalf("degraded server: %d %+v", code, health)
	}
	postJSON(t, ts.URL+"/jobs", `{"kind":"verify","protocol":"MSI"}`, http.StatusServiceUnavailable, nil)

	mem.Fail(nil)
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healed server: %d %+v", code, health)
	}
}

// settledSet polls GET /jobs until every id in want is terminal (or
// dead), returning the final views; fails the test at the deadline.
func settledSet(t *testing.T, url string, want []string, deadline time.Duration) map[string]JobView {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		var list struct {
			Jobs []JobView `json:"jobs"`
		}
		if code := getJSON(t, url+"/jobs", &list); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		got := map[string]JobView{}
		for _, v := range list.Jobs {
			got[v.ID] = v
		}
		allSettled := true
		for _, id := range want {
			v, ok := got[id]
			if !ok {
				t.Fatalf("job %s lost: absent from the list", id)
			}
			if !isSettled(v) {
				allSettled = false
				break
			}
		}
		if allSettled {
			return got
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("jobs not settled after %v", deadline)
	return nil
}

// TestKillRestartLoad is the load acceptance test: a large concurrent
// burst over a durable store survives injected executor panics and
// transient failures plus one forced restart with zero lost jobs, zero
// duplicate terminal results, and bounded completion latency.
func TestKillRestartLoad(t *testing.T) {
	jobs := 1000
	if testing.Short() {
		jobs = 150
	}
	dir := t.TempDir()
	cfg := fastConfig()
	cfg.Workers = 8
	cfg.StoreDir = dir
	cfg.Executor = flakyExec(0.05, 0.05)

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	submitted := map[string]time.Time{}
	var ids []string
	firstBatch := jobs * 3 / 5
	for i := 0; i < firstBatch; i++ {
		id := submitSynthetic(t, ts.URL, int64(i))
		submitted[id] = time.Now()
		ids = append(ids, id)
	}

	// Forced restart mid-flight: a near-zero deadline abandons the
	// running attempts and releases them back to the WAL.
	ts.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_ = srv.Shutdown(shutCtx) // deadline path expected; graceful is also legal
	cancel()
	terminal1 := terminalCount(srv)

	srv2, ts2 := newTestServer(t, cfg)
	for i := firstBatch; i < jobs; i++ {
		id := submitSynthetic(t, ts2.URL, int64(i))
		submitted[id] = time.Now()
		ids = append(ids, id)
	}
	got := settledSet(t, ts2.URL, ids, 120*time.Second)
	settledAt := time.Now()

	// Zero lost jobs, no unexplained terminals: with only transient
	// injected faults every job must end done (dead would mean the
	// budget was misaccounted, canceled/failed a leak).
	counts := map[Status]int{}
	for _, id := range ids {
		counts[got[id].Status]++
	}
	if counts[StatusDone] != jobs {
		t.Fatalf("outcome mix %v, want %d done", counts, jobs)
	}

	// Zero duplicate terminal results: terminal transitions recorded
	// across both server incarnations must equal the job count exactly.
	terminal2 := terminalCount(srv2)
	if total := terminal1 + terminal2; total != jobs {
		t.Fatalf("terminal transitions %d (%d then %d), want exactly %d", total, terminal1, terminal2, jobs)
	}

	// p99 completion latency bound — generous, but it catches a queue
	// that strands jobs.
	lat := make([]time.Duration, 0, len(ids))
	for _, id := range ids {
		v := got[id]
		end := settledAt
		if v.Finished != nil {
			end = *v.Finished
		}
		lat = append(lat, end.Sub(submitted[id]))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if p99 > 30*time.Second {
		t.Fatalf("p99 completion latency %v exceeds bound", p99)
	}
	t.Logf("load: %d jobs, outcomes %v, p99 %v, terminal transitions %d + %d", jobs, counts, p99, terminal1, terminal2)
}
