// Command perfbench is the repository's benchmark. It runs one named
// workload through the layers' public functions, checks every output
// against pinned or independently computed values, and prints its
// metrics:
//
//	bash perfbench/run.sh --workload paper-msi3 --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package (a module of its own that compiles the
// repository from source) and runs it from the repository root.
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics every workload reports (see
// e2eMetrics); earlier lines name the workload-specific figures too
// (verify_s, states_per_s, seeds_per_s, litmus_s, job_p50_ms, the job
// tail at the highest percentile with ten jobs beyond it, jobs_per_s,
// peak_rss_mb, fail_ratio) with their units and sample counts. Peak
// RSS is a figure and a per-layer metric, not an end-to-end one: it
// follows the garbage collector's timing and moved 13-30% between
// runs of one input.
//
// With --trace 1 the run measures the same operations once untraced
// and once with spans around every call into a layer, and the JSON
// holds the per-layer metrics (see layerMetrics) instead; a layer a
// workload does not reach reads 0 with no samples. Nothing inside the
// program is instrumented: every span and count is taken from the
// benchmark's side of a public call, from Result counters, from
// progress callbacks or from the service's JobView timestamps.
//
// Notes:
//   - fuzz seeds are timed here, around each fuzz.Run call, never from
//     SpecReport.ElapsedMS: that field is always 0, because the
//     deferred write in fuzz.checkSourceCtx lands on a copy of the
//     report (r is not a named return).
//   - timings are wall-clock on whatever machine runs the benchmark;
//     counts (states, edges, depth, canonicalization strategy counts,
//     litmus state totals) repeat exactly and are the figures to
//     compare across machines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload's operations for about budget (at
	// least one operation) and reports them. tr is nil in the untraced
	// run; in the traced run every call into a layer is spanned on it.
	measure(budget time.Duration, tr *tracer) *sample
	close() error
}

// workload names one set of inputs and how to set it up.
type workload struct {
	name string
	// setupReps is how many times a run sets the workload up; setup_s
	// is their median. The last set-up is the one measured.
	setupReps int
	// tailPct is the percentile op_tail_ms reports: the highest one
	// with at least ten operations beyond it in a run of the default
	// length. 0 reports the slowest operation, for workloads with too
	// few operations for any percentile. It is fixed per workload so
	// the metric means the same in every run.
	tailPct float64
	// prepare runs once per process before any set-up: the benchmark's
	// own oracle work (direct library calls the outputs are compared
	// with), not part of the workload's set-up time.
	prepare func() (any, error)
	setup   func(seed int64, oracle any, tr *tracer) (instance, error)
}

var workloads = []workload{
	{name: "paper-msi3", setupReps: 15, setup: setupPaper},
	{name: "scale-msi5", setupReps: 15, setup: setupScale},
	{name: "fuzz-campaign", setupReps: 15, setup: setupFuzz},
	{name: "litmus-all", setupReps: 15, setup: setupLitmus},
	{name: "service-mix", setupReps: 3, tailPct: 95, prepare: prepareService, setup: setupService},
}

// sample is what one measured phase observed.
type sample struct {
	lat       []float64 // per-operation latency, ms
	wall      time.Duration
	states    int64 // model-checker states behind the operations
	attempted int
	failed    int
	failures  []string // first few mismatch descriptions
	// extra holds workload-specific end-to-end figures printed by name
	// (value, unit); they are the issue-level names of the generic
	// metrics (verify_s, seeds_per_s, job_p99_ms, ...).
	extra []namedValue
}

type namedValue struct {
	name  string
	value float64
	unit  string
	n     int
}

// fail records one failed operation.
func (s *sample) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0. An operation is the workload's unit of work: one 3-cache
// verification (paper-msi3), one capped 5-cache check (scale-msi5), one
// fuzz seed (fuzz-campaign), one pass of the litmus catalog over every
// registry protocol (litmus-all) or one service job from submit until
// the client holds its result (service-mix).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"states_per_s", "1/s"},
}

// layerMetrics are the per-layer metrics of the traced run, each the
// median of its samples (a count taken once is a single sample).
var layerMetrics = []metricDef{
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_state", "count"},
	{"runtime.alloc_bytes_per_state", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"verify.states", "count"},
	{"verify.edges", "count"},
	{"verify.depth", "count"},
	{"verify.visited_bytes_per_state", "B"},
	{"verify.level_ms", "ms"},
	{"verify.frontier_peak", "count"},
	{"verify.tail_ms", "ms"},
	{"engine.canon_fast", "count"},
	{"engine.canon_tie_states", "count"},
	{"engine.canon_tie_encodes", "count"},
	{"engine.canon_fallbacks", "count"},
	{"engine.rules_ns", "ns"},
	{"engine.clone_ns", "ns"},
	{"engine.apply_ns", "ns"},
	{"engine.canonical_ns", "ns"},
	{"engine.canonical_fallback_ns", "ns"},
	{"engine.fingerprint_ns", "ns"},
	{"store.probe_ns", "ns"},
	{"dsl.parse_ms", "ms"},
	{"core.generate_ms", "ms"},
	{"analyze.lint_ms", "ms"},
	{"depend.analysis_ms", "ms"},
	{"fuzz.verify_full_ms", "ms"},
	{"fuzz.verify_reduced_ms", "ms"},
	{"verify.reduce_emitted_ratio", "ratio"},
	{"sim.steps_per_s", "1/s"},
	{"fuzz.litmus_ms", "ms"},
	{"litmus.test_ms", "ms"},
	{"litmus.states.MSI", "count"},
	{"litmus.states.MESI", "count"},
	{"litmus.states.MOSI", "count"},
	{"litmus.states.MSI_Upgrade", "count"},
	{"litmus.states.MSI_Unordered", "count"},
	{"litmus.states.TSO_CC", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.observe_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.retries", "count"},
	{"service.rejected", "count"},
	{"jobstore.wal_bytes_per_job", "B"},
	{"trace.overhead_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: picks the fuzz seeds and the service request stream")
	seconds := fs.Float64("seconds", 10, "measured time per phase")
	traced := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	pinFuzz := fs.Bool("pin-fuzz", false, "run every pinned fuzz seed and print the pin table (fuzzpins.go)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinFuzz {
		if err := printFuzzPins(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(stdout, wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up setupReps times, measures it, and in
// a traced run measures it again with spans. It prints the human
// readable figures and returns the result line.
func runWorkload(out io.Writer, wl *workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %t nproc %d GOMAXPROCS %d\n",
		wl.name, seed, budget.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var oracle any
	if wl.prepare != nil {
		start := time.Now()
		var err error
		if oracle, err = wl.prepare(); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", wl.name, err)
		}
		fmt.Fprintf(out, "oracle_s %.4f s (direct library calls the outputs are checked against)\n", time.Since(start).Seconds())
	}
	var (
		setups []float64
		inst   instance
	)
	for i := 0; i < wl.setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", wl.name, err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = wl.setup(seed, oracle, nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The measured instance is closed explicitly below, where a failed
	// close (say, an unclean service shutdown) counts as a failure; this
	// covers the error returns.
	measured := inst
	defer func() {
		if measured != nil {
			measured.close()
		}
	}()

	// Peak RSS is a figure, not a checked output: a kernel that refuses
	// the reset or the read costs the figure, not the run.
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(out, "note: peak RSS covers the whole process: %v\n", err)
	}
	before := readRuntime()
	plain := inst.measure(budget, nil)
	rt := before.to(readRuntime())
	peak, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(out, "note: peak RSS unavailable, reported as 0: %v\n", err)
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	reportFailures(out, wl.name, plain)

	p50 := median(plain.lat)
	tailVal, tailName := maxOf(plain.lat), "slowest operation"
	if wl.tailPct > 0 {
		tailVal = percentile(plain.lat, wl.tailPct)
		tailName = fmt.Sprintf("p%g, %d operations beyond it", wl.tailPct, len(plain.lat)-nearestRank(wl.tailPct, len(plain.lat)))
	}
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"op_p50_ms":    p50,
		"op_tail_ms":   tailVal,
		"ops_per_s":    float64(len(plain.lat)) / plain.wall.Seconds(),
		"states_per_s": float64(plain.states) / plain.wall.Seconds(),
	}
	fmt.Fprintf(out, "operations %d in %.3f s; op_tail_ms is the %s\n", len(plain.lat), plain.wall.Seconds(), tailName)
	if len(plain.lat) >= 2 {
		q1, q3 := quartiles(plain.lat)
		fmt.Fprintf(out, "op latency quartiles %.4f .. %.4f ms\n", q1, q3)
	}
	for _, m := range e2eMetrics {
		fmt.Fprintf(out, "metric %-14s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(out, "figure %-14s %14.4f MB (peak resident set of the measured phase)\n", "peak_rss_mb", peak)
	for _, x := range plain.extra {
		fmt.Fprintf(out, "figure %-14s %14.4f %s (n=%d)\n", x.name, x.value, x.unit, x.n)
	}
	fmt.Fprintf(out, "figure %-14s %14.4f ratio (n=%d)\n", "fail_ratio", float64(plain.failed)/float64(max(plain.attempted, 1)), plain.attempted)

	if !traced {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		tr := newTracer()
		// One more set-up under the tracer feeds the parse and generate
		// spans (set-up work every workload pays); it is closed at once.
		extra, err := wl.setup(seed, oracle, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: traced setup: %w", wl.name, err)
		}
		if err := extra.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", wl.name, err)
		}
		spanned := inst.measure(budget, tr)
		reportFailures(out, wl.name+" (traced)", spanned)
		res.Attempted += spanned.attempted
		res.Failed += spanned.failed
		tr.add("trace.overhead_ms", median(spanned.lat)-p50)
		if plain.states > 0 {
			tr.add("runtime.allocs_per_state", rt.allocs/float64(plain.states))
			tr.add("runtime.alloc_bytes_per_state", rt.bytes/float64(plain.states))
		}
		tr.add("runtime.gc_cpu_frac", rt.gcCPUFrac)
		tr.add("runtime.gc_cycles", rt.cycles)
		tr.add("runtime.peak_rss_mb", peak)
		for _, m := range layerMetrics {
			xs := tr.get(m.name)
			v := 0.0
			if len(xs) > 0 {
				v = median(xs)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			fmt.Fprintf(out, "layer %-32s %16.4f %-5s n=%d\n", m.name, v, m.unit, len(xs))
		}
		for _, n := range tr.names() {
			if !isLayerMetric(n) {
				return nil, fmt.Errorf("span %q is not a declared layer metric", n)
			}
		}
	}
	cerr := measured.close()
	measured = nil
	if cerr != nil {
		res.Attempted++
		res.Failed++
		fmt.Fprintf(out, "CHECK FAILED %s: close: %v\n", wl.name, cerr)
	}
	res.Correct = res.Failed == 0
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, errors.New("a metric is not a finite number")
		}
	}
	return res, nil
}

func isLayerMetric(name string) bool {
	for _, m := range layerMetrics {
		if m.name == name {
			return true
		}
	}
	return false
}

func reportFailures(out io.Writer, label string, s *sample) {
	if s.failed == 0 {
		return
	}
	fmt.Fprintf(out, "CHECK FAILED %s: %d of %d operations\n", label, s.failed, s.attempted)
	for _, f := range s.failures {
		fmt.Fprintf(out, "  %s\n", f)
	}
}

// loop runs op until budget is spent: always once, then again while the
// median operation so far still fits in the time left. It returns the
// per-operation latencies (ms) and the measured wall time.
func loop(budget time.Duration, op func()) ([]float64, time.Duration) {
	start := time.Now()
	var lat []float64
	for {
		t := time.Now()
		op()
		lat = append(lat, msSince(t))
		left := budget - time.Since(start)
		if float64(left.Nanoseconds())/1e6 < median(lat) {
			return lat, time.Since(start)
		}
	}
}
