package verify

import (
	"strings"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// TestParallelMatchesSequential is the acceptance gate for the parallel
// checker: on MSI/MESI/MOSI, stalling and non-stalling, every Parallelism
// setting must report identical States, Edges, Depth and Quiescent counts
// (and verdicts) to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"MSI", "MESI", "MOSI"} {
		for _, mode := range []struct {
			name string
			opts core.Options
		}{{"stalling", core.StallingOpts()}, {"nonstalling", core.NonStallingOpts()}} {
			e, ok := protocols.Lookup(name)
			if !ok {
				t.Fatalf("unknown builtin %s", name)
			}
			p := gen(t, e.Source, mode.opts)
			seq := QuickConfig()
			seq.Parallelism = 1
			want := Check(p, seq)
			for _, par := range []int{2, 4, 8} {
				cfg := QuickConfig()
				cfg.Parallelism = par
				got := Check(p, cfg)
				if got.States != want.States || got.Edges != want.Edges ||
					got.Depth != want.Depth || got.Quiescent != want.Quiescent ||
					got.OK() != want.OK() || got.Complete != want.Complete {
					t.Errorf("%s %s P=%d: got %v, want %v", name, mode.name, par, got, want)
				}
			}
		}
	}
}

// seedGolden pins the exact exploration numbers of the original
// sequential string-keyed checker (recorded before the binary encoding
// and parallel rewrite) for every registry protocol in both generation
// modes — the shared baseline for the exact-mode and fingerprint-mode
// pinning tests.
var seedGolden = []struct {
	protocol, mode       string
	states, edges, depth int
	quiescent            int
}{
	{"MSI", "stalling", 8180, 19064, 43, 218},
	{"MSI", "nonstalling", 11963, 28281, 46, 218},
	{"MESI", "stalling", 8452, 19637, 48, 229},
	{"MESI", "nonstalling", 11762, 27701, 48, 229},
	{"MOSI", "stalling", 12362, 28602, 45, 358},
	{"MOSI", "nonstalling", 15575, 36549, 46, 358},
	{"MSI_Upgrade", "stalling", 8540, 19904, 43, 218},
	{"MSI_Upgrade", "nonstalling", 12371, 29187, 46, 218},
	{"MSI_Unordered", "stalling", 9436, 22304, 51, 218},
	{"MSI_Unordered", "nonstalling", 16466, 40340, 51, 218},
}

func goldenProtocol(t *testing.T, protocol, mode string) *ir.Protocol {
	t.Helper()
	e, ok := protocols.Lookup(protocol)
	if !ok {
		t.Fatalf("unknown builtin %s", protocol)
	}
	opts := core.NonStallingOpts()
	if mode == "stalling" {
		opts = core.StallingOpts()
	}
	return gen(t, e.Source, opts)
}

// TestSeedBaselinePinned pins the exact-mode checker to the golden
// numbers, so any future change to rule ordering, canonicalization or
// BFS semantics shows up as a diff here.
func TestSeedBaselinePinned(t *testing.T) {
	for _, g := range seedGolden {
		p := goldenProtocol(t, g.protocol, g.mode)
		cfg := QuickConfig()
		cfg.Parallelism = 1
		r := Check(p, cfg)
		if !r.OK() || !r.Complete {
			t.Errorf("%s %s: %v", g.protocol, g.mode, r)
			continue
		}
		if r.States != g.states || r.Edges != g.edges || r.Depth != g.depth || r.Quiescent != g.quiescent {
			t.Errorf("%s %s: states/edges/depth/quiescent = %d/%d/%d/%d, want %d/%d/%d/%d",
				g.protocol, g.mode, r.States, r.Edges, r.Depth, r.Quiescent,
				g.states, g.edges, g.depth, g.quiescent)
		}
	}
}

// TestFingerprintMatchesExact pins fingerprint mode (hash-compacted
// visited set) to the same golden numbers as exact mode on every
// registry protocol in both generation modes: identical States, Edges,
// Depth and Quiescent, at sequential and parallel settings, with the
// collision audit confirming zero false merges and the visited set at
// least 3x leaner than exact mode's. (3x, not the headline 5x: these
// 2-cache spaces are small enough that the table's fixed 64-shard
// minimum footprint and power-of-two resize granularity still show; the
// ≥5x bound is asserted at 3-cache benchmark scale in
// TestFingerprintBytesReduction.)
func TestFingerprintMatchesExact(t *testing.T) {
	for _, g := range seedGolden {
		p := goldenProtocol(t, g.protocol, g.mode)
		exact := QuickConfig()
		exact.Parallelism = 1
		er := Check(p, exact)
		for _, par := range []int{1, 4} {
			cfg := QuickConfig()
			cfg.Fingerprint = true
			cfg.Parallelism = par
			r := Check(p, cfg)
			if r.States != g.states || r.Edges != g.edges || r.Depth != g.depth ||
				r.Quiescent != g.quiescent || r.OK() != er.OK() || r.Complete != er.Complete {
				t.Errorf("%s %s fingerprint P=%d: states/edges/depth/quiescent = %d/%d/%d/%d, want %d/%d/%d/%d",
					g.protocol, g.mode, par, r.States, r.Edges, r.Depth, r.Quiescent,
					g.states, g.edges, g.depth, g.quiescent)
			}
			if r.VisitedBytes*3 > er.VisitedBytes {
				t.Errorf("%s %s fingerprint P=%d: visited bytes %d not ≥3x below exact %d",
					g.protocol, g.mode, par, r.VisitedBytes, er.VisitedBytes)
			}
		}
		audit := QuickConfig()
		audit.Fingerprint = true
		audit.CollisionAudit = true
		audit.Parallelism = 1
		ar := Check(p, audit)
		if ar.FalseMerges != 0 {
			t.Errorf("%s %s: %d false merges under collision audit", g.protocol, g.mode, ar.FalseMerges)
		}
		if ar.States != g.states || ar.Edges != g.edges {
			t.Errorf("%s %s audit: states/edges = %d/%d, want %d/%d",
				g.protocol, g.mode, ar.States, ar.Edges, g.states, g.edges)
		}
	}
}

// TestFourCacheGolden pins a 4-cache MSI exploration — the cache count
// the factorial-free canonicalization unlocks (24 permutations would
// have cost 24 encodes per state on the old brute-force path). The
// exploration is capped, which is still fully deterministic (see
// TestMaxStatesCapParallel), and pinned at parallelism 1, 2 and 4 in
// both exact and fingerprint modes against numbers recorded from the
// pre-optimization brute-force checker.
func TestFourCacheGolden(t *testing.T) {
	const (
		wantStates = 40000
		wantEdges  = 119825
		wantDepth  = 16
	)
	p := goldenProtocol(t, "MSI", "nonstalling")
	for _, fingerprint := range []bool{false, true} {
		for _, par := range []int{1, 2, 4} {
			cfg := QuickConfig()
			cfg.Caches = 4
			cfg.MaxStates = wantStates
			cfg.Fingerprint = fingerprint
			cfg.Parallelism = par
			r := Check(p, cfg)
			if !r.OK() || r.Complete {
				t.Fatalf("fingerprint=%v P=%d: want capped PASS, got %v", fingerprint, par, r)
			}
			if r.States != wantStates || r.Edges != wantEdges || r.Depth != wantDepth {
				t.Errorf("fingerprint=%v P=%d: states/edges/depth = %d/%d/%d, want %d/%d/%d",
					fingerprint, par, r.States, r.Edges, r.Depth, wantStates, wantEdges, wantDepth)
			}
			if r.CanonFallbacks > 0 && r.CanonFast == 0 {
				t.Errorf("fingerprint=%v P=%d: canonicalization never took the fast path (%d fallbacks)",
					fingerprint, par, r.CanonFallbacks)
			}
		}
	}
}

// TestFiveCacheGolden pins a capped 5-cache MSI exploration (the
// scale-msi5 benchmark's configuration), the cache count where impure states (a cache section naming another cache) are
// common enough that the prefix-pruned permutation search carries the
// run: brute force would cost 120 full encodings per such state. Exact
// and fingerprint stores at parallelism 1 and 2 must agree on the
// numbers, and the partial-order-reduced run of the same configuration
// must pass under the same cap. -short keeps parallelism 2 only.
func TestFiveCacheGolden(t *testing.T) {
	const (
		wantStates = 20000
		wantEdges  = 69839
		wantDepth  = 13
	)
	pars := []int{1, 2}
	if testing.Short() {
		pars = pars[1:]
	}
	p := goldenProtocol(t, "MSI", "nonstalling")
	for _, fingerprint := range []bool{false, true} {
		for _, par := range pars {
			cfg := QuickConfig()
			cfg.Caches = 5
			cfg.MaxStates = wantStates
			cfg.Fingerprint = fingerprint
			cfg.Parallelism = par
			r := Check(p, cfg)
			if !r.OK() || r.Complete {
				t.Fatalf("fingerprint=%v P=%d: want capped PASS, got %v", fingerprint, par, r)
			}
			if r.States != wantStates || r.Edges != wantEdges || r.Depth != wantDepth {
				t.Errorf("fingerprint=%v P=%d: states/edges/depth = %d/%d/%d, want %d/%d/%d",
					fingerprint, par, r.States, r.Edges, r.Depth, wantStates, wantEdges, wantDepth)
			}
			if r.CanonFallbacks == 0 || r.CanonSearchNodes == 0 {
				t.Errorf("fingerprint=%v P=%d: no impure state reached the permutation search (%d fallbacks, %d nodes)",
					fingerprint, par, r.CanonFallbacks, r.CanonSearchNodes)
			}
		}
	}
	for _, par := range pars {
		red := QuickConfig()
		red.Caches = 5
		red.MaxStates = wantStates
		red.Reduce = true
		red.Parallelism = par
		r := Check(p, red)
		if !r.OK() || r.Complete {
			t.Fatalf("reduced P=%d: want capped PASS, got %v", par, r)
		}
		if r.States != wantStates || r.Edges != 62755 || r.Depth != 10 {
			t.Errorf("reduced P=%d: states/edges/depth = %d/%d/%d, want %d/62755/10",
				par, r.States, r.Edges, r.Depth, wantStates)
		}
	}
}

// TestLivenessConsistentAcrossModes: the no-prune stalling MSI ablation
// deadlocks (see core.Options.PruneSharerOnStalePut); exact and
// fingerprint modes must report the identical liveness verdict — same
// violation kind, same unreachable-state counts in the detail line, same
// witness trace, same Quiescent count — since fingerprint mode's counts
// come from its table, not from key-map iteration.
func TestLivenessConsistentAcrossModes(t *testing.T) {
	e, ok := protocols.Lookup("MSI")
	if !ok {
		t.Fatal("unknown builtin MSI")
	}
	opts := core.StallingOpts()
	opts.PruneSharerOnStalePut = false
	p := gen(t, e.Source, opts)
	exact := QuickConfig()
	exact.Parallelism = 1
	er := Check(p, exact)
	if er.OK() {
		t.Fatal("no-prune stalling MSI must fail liveness")
	}
	fp := exact
	fp.Fingerprint = true
	fr := Check(p, fp)
	if fr.OK() {
		t.Fatal("fingerprint mode must reproduce the liveness failure")
	}
	ev, fv := er.Violations[0], fr.Violations[0]
	if fv.Kind != ev.Kind || fv.Detail != ev.Detail {
		t.Errorf("fingerprint violation %s/%q, want %s/%q", fv.Kind, fv.Detail, ev.Kind, ev.Detail)
	}
	if strings.Join(fv.Trace, ";") != strings.Join(ev.Trace, ";") {
		t.Errorf("fingerprint witness trace differs from exact mode")
	}
	if fr.States != er.States || fr.Quiescent != er.Quiescent {
		t.Errorf("fingerprint states/quiescent = %d/%d, want %d/%d",
			fr.States, fr.Quiescent, er.States, er.Quiescent)
	}
}

// TestParallelViolationDeterminism: a sabotaged protocol must fail at any
// parallelism, with the same violation kind and the same witness trace as
// the sequential run.
func TestParallelViolationDeterminism(t *testing.T) {
	broken := strings.Replace(protocols.MSI,
		"send Inv to sharers except src req src;\n    owner = src;",
		"owner = src;", 1)
	spec, err := dsl.Parse(broken)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.StallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	seq := QuickConfig()
	seq.CheckLiveness = false
	seq.Parallelism = 1
	want := Check(p, seq)
	if want.OK() {
		t.Fatal("sabotaged protocol must fail")
	}
	for _, par := range []int{2, 4} {
		cfg := seq
		cfg.Parallelism = par
		got := Check(p, cfg)
		if got.OK() {
			t.Fatalf("P=%d: sabotaged protocol must fail", par)
		}
		gv, wv := got.Violations[0], want.Violations[0]
		if gv.Kind != wv.Kind || gv.Detail != wv.Detail {
			t.Errorf("P=%d: violation %s/%s, want %s/%s", par, gv.Kind, gv.Detail, wv.Kind, wv.Detail)
		}
		if strings.Join(gv.Trace, ";") != strings.Join(wv.Trace, ";") {
			t.Errorf("P=%d: witness trace differs from sequential", par)
		}
	}
}

// TestMaxStatesCapParallel: hitting the exploration cap must truncate at
// the same state count at every parallelism.
func TestMaxStatesCapParallel(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	seq := QuickConfig()
	seq.CheckLiveness = false
	seq.MaxStates = 500
	seq.Parallelism = 1
	want := Check(p, seq)
	if want.Complete {
		t.Fatalf("cap of 500 must truncate (states=%d)", want.States)
	}
	for _, par := range []int{2, 4} {
		cfg := seq
		cfg.Parallelism = par
		got := Check(p, cfg)
		if got.Complete || got.States != want.States || got.Edges != want.Edges {
			t.Errorf("P=%d: states/edges/complete = %d/%d/%v, want %d/%d/false",
				par, got.States, got.Edges, got.Complete, want.States, want.Edges)
		}
	}
}

// TestParallelismAuto: Parallelism 0 (use every core) explores the same
// space as the sequential run.
func TestParallelismAuto(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	auto := QuickConfig() // Parallelism 0
	seq := QuickConfig()
	seq.Parallelism = 1
	ga, gs := Check(p, auto), Check(p, seq)
	if ga.States != gs.States || ga.Edges != gs.Edges || ga.Depth != gs.Depth || !ga.OK() {
		t.Errorf("auto parallelism diverged: %v vs %v", ga, gs)
	}
}

// TestWideValueDomain: a value domain past the packed-byte range (a crash
// regression guard for the binary encoder's escaped fallback) must
// explore without panicking, identically at every parallelism.
func TestWideValueDomain(t *testing.T) {
	p := gen(t, protocols.MSI, core.NonStallingOpts())
	seq := QuickConfig()
	seq.Values = 300
	seq.MaxStates = 3000
	seq.CheckLiveness = false
	seq.Parallelism = 1
	want := Check(p, seq)
	if want.OK() != true || want.States == 0 {
		t.Fatalf("values=300: %v", want)
	}
	cfg := seq
	cfg.Parallelism = 4
	got := Check(p, cfg)
	if got.States != want.States || got.Edges != want.Edges || got.Depth != want.Depth {
		t.Errorf("P=4 diverged: %v vs %v", got, want)
	}
}
