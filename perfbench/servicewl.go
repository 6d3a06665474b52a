package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"protogen"
	"protogen/internal/dsl"
	"protogen/internal/protocols"
	"protogen/internal/service"
	"protogen/internal/verify"
)

const (
	serviceClients = 2                    // closed-loop clients
	serviceCaches  = 2                    // caches of every verify job
	pollInterval   = 2 * time.Millisecond // client status-poll period
)

// serviceModes are the generation modes of the verify requests.
var serviceModes = []string{"nonstalling", "stalling", "deferred"}

// verifyProtocols are the registry protocols the verify requests name:
// every SWMR protocol (TSO-CC is checked without SWMR, see the litmus
// workload, so a default verify of it is a documented failure).
var verifyProtocols = []string{"MSI", "MESI", "MOSI", "MSI_Upgrade", "MSI_Unordered"}

type verifyKey struct{ protocol, mode string }

// serviceOracle holds the direct library results the service's outputs
// are compared with.
type serviceOracle struct {
	verify map[verifyKey]checkPin
	lint   map[string]lintVerdict
}

type lintVerdict struct {
	summary string
	clean   bool
}

// prepareService computes, with direct library calls, the verdict of
// every request the stream can hold: each (protocol, mode) verify at
// the service's checker configuration and each protocol's lint.
func prepareService() (any, error) {
	o := &serviceOracle{verify: map[verifyKey]checkPin{}, lint: map[string]lintVerdict{}}
	var keys []verifyKey
	for _, name := range verifyProtocols {
		for _, mode := range serviceModes {
			keys = append(keys, verifyKey{name, mode})
		}
	}
	pins := make([]checkPin, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += serviceClients {
				p, err := generate(keys[i].protocol, keys[i].mode, nil)
				if err != nil {
					errs[i] = err
					continue
				}
				cfg := verify.DefaultConfig()
				cfg.Caches = serviceCaches
				cfg.Parallelism = 1
				r := verify.Check(p, cfg)
				if !r.OK() || !r.Complete {
					errs[i] = fmt.Errorf("%v: %v", keys[i], r)
				}
				pins[i] = checkPin{states: r.States, edges: r.Edges, depth: r.Depth, complete: r.Complete}
			}
		}(w)
	}
	wg.Wait()
	for i, k := range keys {
		if errs[i] != nil {
			return nil, errs[i]
		}
		o.verify[k] = pins[i]
	}
	eng := protogen.NewEngine()
	defer eng.Close()
	for _, e := range protocols.All {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			return nil, err
		}
		res, err := eng.Lint(context.Background(), protogen.LintJob{Spec: spec})
		if err != nil {
			return nil, err
		}
		o.lint[e.Name] = lintVerdict{summary: res.Summary(), clean: res.Clean()}
	}
	return o, nil
}

// serviceBench is protoserve over loopback with a durable job store
// and a result cache, both in fresh temporary directories.
type serviceBench struct {
	seed   int64
	oracle *serviceOracle
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func setupService(seed int64, oracle any, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp("", "perfbench-service-")
	if err != nil {
		return nil, err
	}
	b := &serviceBench{seed: seed, oracle: oracle.(*serviceOracle), dir: dir}
	b.srv, err = service.New(service.Config{
		Workers:     2,
		Parallelism: 1,
		StoreDir:    filepath.Join(dir, "wal"),
		CacheDir:    filepath.Join(dir, "cache"),
		Warn:        func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.ts = httptest.NewServer(b.srv)
	conns := runtime.NumCPU()
	b.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   2 * time.Minute,
	}
	// Pre-warm the result cache with every cacheable verify, so the
	// hit share is fixed by the request stream, not by how long the
	// run lasts.
	var keys []verifyKey
	for k := range b.oracle.verify {
		keys = append(keys, k)
	}
	s := &sample{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += serviceClients {
				req := service.Request{Kind: "verify", Protocol: keys[i].protocol, Mode: keys[i].mode, Caches: serviceCaches}
				o := b.job(req)
				mu.Lock()
				if o.err != nil {
					s.fail("%v", o.err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if s.failed > 0 {
		b.close()
		return nil, fmt.Errorf("pre-warm: %v", s.failures)
	}
	return b, nil
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	b.ts.Close()
	b.client.CloseIdleConnections()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	view               service.JobView
	submitMs, resultMs float64
	latMs              float64
	seen               time.Time // when the client saw the job terminal
	polls              int
	rejected           bool
	freshStates        int64
	err                error
}

// job submits req, polls it to a terminal state every pollInterval,
// fetches its result and checks the verdict against the oracle.
func (b *serviceBench) job(req service.Request) (o jobOutcome) {
	start := time.Now()
	defer func() { o.latMs = msSince(start) }()
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	resp, err := b.client.Post(b.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submitMs = msSince(start)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusAccepted {
		o.rejected = resp.StatusCode == http.StatusServiceUnavailable
		o.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	if err := json.Unmarshal(raw, &o.view); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	for !terminal(o.view.Status) {
		time.Sleep(pollInterval)
		o.polls++
		if err := b.getJSON("/jobs/"+o.view.ID, &o.view); err != nil {
			o.err = err
			return o
		}
	}
	o.seen = time.Now()
	var res json.RawMessage
	err = b.getJSON("/jobs/"+o.view.ID+"/result", &res)
	o.resultMs = msSince(o.seen)
	if err != nil {
		o.err = err
		return o
	}
	if o.view.Status != service.StatusDone {
		o.err = fmt.Errorf("job %s %s: %s", o.view.ID, o.view.Status, o.view.Error)
		return o
	}
	o.err = b.checkVerdict(req, &o, res)
	return o
}

func terminal(s service.Status) bool {
	switch s {
	case service.StatusDone, service.StatusFailed, service.StatusCanceled, service.StatusDead:
		return true
	}
	return false
}

func (b *serviceBench) getJSON(path string, v any) error {
	resp, err := b.client.Get(b.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(raw, v)
}

// checkVerdict compares a finished job with the direct library call on
// the same request.
func (b *serviceBench) checkVerdict(req service.Request, o *jobOutcome, res json.RawMessage) error {
	ok := o.view.OK != nil && *o.view.OK
	switch req.Kind {
	case "verify":
		want := b.oracle.verify[verifyKey{req.Protocol, req.Mode}]
		var r verify.Result
		if err := json.Unmarshal(res, &r); err != nil {
			return fmt.Errorf("verify result: %w", err)
		}
		if !o.view.Cached {
			o.freshStates = int64(r.States)
		}
		got := checkPin{states: r.States, edges: r.Edges, depth: r.Depth, complete: r.Complete}
		if got != want || !ok || !r.OK() {
			return fmt.Errorf("verify %s/%s: got %+v ok %t, direct call %+v", req.Protocol, req.Mode, got, ok, want)
		}
	case "lint":
		want := b.oracle.lint[req.Protocol]
		if o.view.Summary != want.summary || ok != want.clean {
			return fmt.Errorf("lint %s: got %q clean %t, direct call %q clean %t", req.Protocol, o.view.Summary, ok, want.summary, want.clean)
		}
	}
	return nil
}

// Request kinds of a client's stream.
const (
	kindHit = iota
	kindNoCache
	kindLint
)

// requestStream is one client's request sequence. It runs in blocks of
// blockMix requests, shuffled within the block, so every run sees the
// same mix; cache-hit and no_cache verifies each cycle through every
// (protocol, mode) pair, and lint jobs through every registry protocol,
// in orders drawn from the seed.
type requestStream struct {
	rng               *rand.Rand
	block             []int
	hits, noCache     []verifyKey
	lints             []string
	nHit, nNoC, nLint int
}

// blockMix is one block: 9 cache-hit verifies, 4 no_cache verifies and
// 7 lint jobs (45%, 20%, 35%). Latencies form three clusters: hits
// (fastest, but roughly one in ten waits behind a no_cache verify on a
// busy worker), lint jobs, and no_cache verifies. With this mix the
// median job falls inside the lint cluster, not in the gap between
// hits and lints, where it would jump from run to run.
var blockMix = [...]int{kindHit: 9, kindNoCache: 4, kindLint: 7}

func newRequestStream(seed int64) *requestStream {
	rng := rand.New(rand.NewSource(seed))
	var keys []verifyKey
	for _, name := range verifyProtocols {
		for _, mode := range serviceModes {
			keys = append(keys, verifyKey{name, mode})
		}
	}
	shuffled := func() []verifyKey {
		out := append([]verifyKey(nil), keys...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	st := &requestStream{rng: rng, hits: shuffled(), noCache: shuffled()}
	for _, e := range protocols.All {
		st.lints = append(st.lints, e.Name)
	}
	rng.Shuffle(len(st.lints), func(i, j int) { st.lints[i], st.lints[j] = st.lints[j], st.lints[i] })
	return st
}

// next returns the stream's next request and whether it is a cache hit.
func (st *requestStream) next() (service.Request, bool) {
	if len(st.block) == 0 {
		for kind, n := range blockMix {
			for i := 0; i < n; i++ {
				st.block = append(st.block, kind)
			}
		}
		st.rng.Shuffle(len(st.block), func(i, j int) { st.block[i], st.block[j] = st.block[j], st.block[i] })
	}
	kind := st.block[0]
	st.block = st.block[1:]
	switch kind {
	case kindHit:
		k := st.hits[st.nHit%len(st.hits)]
		st.nHit++
		return service.Request{Kind: "verify", Protocol: k.protocol, Mode: k.mode, Caches: serviceCaches}, true
	case kindNoCache:
		k := st.noCache[st.nNoC%len(st.noCache)]
		st.nNoC++
		return service.Request{Kind: "verify", Protocol: k.protocol, Mode: k.mode, Caches: serviceCaches, NoCache: true}, false
	}
	name := st.lints[st.nLint%len(st.lints)]
	st.nLint++
	return service.Request{Kind: "lint", Protocol: name}, false
}

// walBytes is the job store's on-disk size.
func (b *serviceBench) walBytes() int64 {
	var n int64
	// The callback never fails; a log that cannot be read reads as 0.
	_ = filepath.WalkDir(filepath.Join(b.dir, "wal"), func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (b *serviceBench) measure(budget time.Duration, tr *tracer) *sample {
	s := &sample{}
	walBefore := b.walBytes()
	var (
		mu                               sync.Mutex
		wg                               sync.WaitGroup
		polls, retries, rejected         int
		hits, cacheable                  int
		submit, queue, run, observe, res []float64
	)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := newRequestStream(b.seed*1_000_003 + int64(c))
			for time.Since(start) < budget {
				req, hitClass := stream.next()
				o := b.job(req)
				mu.Lock()
				s.attempted++
				s.lat = append(s.lat, o.latMs)
				s.states += o.freshStates
				if o.err != nil {
					s.fail("%v", o.err)
				}
				if o.rejected {
					rejected++
				}
				if hitClass {
					cacheable++
					if o.view.Cached {
						hits++
					}
				}
				polls += o.polls
				retries += max(o.view.Attempt-1, 0)
				if v := o.view; o.err == nil && v.Started != nil && v.Finished != nil {
					submit = append(submit, o.submitMs)
					queue = append(queue, float64(v.Started.Sub(v.Submitted).Nanoseconds())/1e6)
					run = append(run, float64(v.Finished.Sub(*v.Started).Nanoseconds())/1e6)
					observe = append(observe, float64(o.seen.Sub(*v.Finished).Nanoseconds())/1e6)
					res = append(res, o.resultMs)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	s.wall = time.Since(start)
	jobs := len(s.lat)
	pct, tailMs, _ := tail(s.lat)
	s.extra = append(s.extra,
		namedValue{"job_p50_ms", median(s.lat), "ms", jobs},
		namedValue{fmt.Sprintf("job_p%g_ms", pct), tailMs, "ms", jobs},
		namedValue{"jobs_per_s", float64(jobs) / s.wall.Seconds(), "1/s", jobs})
	if tr != nil {
		tr.addAll("service.submit_ms", submit)
		tr.addAll("service.queue_ms", queue)
		tr.addAll("service.run_ms", run)
		tr.addAll("service.observe_ms", observe)
		tr.addAll("service.result_ms", res)
		tr.add("service.polls_per_job", float64(polls)/float64(max(jobs, 1)))
		tr.add("service.cache_hit_ratio", float64(hits)/float64(max(cacheable, 1)))
		tr.add("service.retries", float64(retries))
		tr.add("service.rejected", float64(rejected))
		tr.add("jobstore.wal_bytes_per_job", float64(b.walBytes()-walBefore)/float64(max(jobs, 1)))
	}
	return s
}
