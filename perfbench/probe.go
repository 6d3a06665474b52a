package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer collects the traced run's per-layer samples: every span the
// benchmark wraps around a call into a layer's public function lands
// here as one sample under the layer metric's name, and counts are set
// directly. A nil *tracer is the untraced run: every method is a no-op,
// so the measured code paths are the same in both runs.
type tracer struct {
	mu      sync.Mutex
	samples map[string][]float64 //protogen:guardedby mu
}

func newTracer() *tracer { return &tracer{samples: map[string][]float64{}} }

// add records one sample of metric name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// addAll records many samples of metric name at once.
func (t *tracer) addAll(name string, vs []float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], vs...)
	t.mu.Unlock()
}

// since records the milliseconds elapsed since start as one span of
// metric name.
func (t *tracer) since(name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(name, msSince(start))
}

// get returns the samples of metric name.
func (t *tracer) get(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	gcCPU, totalCPU float64 // seconds
	allocs, bytes   uint64
	cycles          uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return runtimeSnap{gcCPU: f(0), totalCPU: f(1), allocs: u(2), bytes: u(3), cycles: u(4)}
}

// runtimeDelta is what the runtime did between two snapshots.
type runtimeDelta struct {
	gcCPUFrac     float64
	allocs, bytes float64
	cycles        float64
}

func (a runtimeSnap) to(b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		allocs: float64(b.allocs - a.allocs),
		bytes:  float64(b.bytes - a.bytes),
		cycles: float64(b.cycles - a.cycles),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a
// later peakRSSMB covers only what ran in between: one workload's
// measured phase, not the process lifetime with its set-ups.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set size since the last reset.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// names returns the tracer's metric names in order.
func (t *tracer) names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.samples))
	for k := range t.samples {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
