// Benchmarks regenerating every table and figure of the paper's evaluation
// (see README.md's "Paper benchmarks" section). Each benchmark times the
// pipeline that produces the corresponding artifact; `go run
// ./cmd/experiments` prints the artifacts themselves.
package protogen_test

import (
	"runtime"
	"testing"

	"protogen"
)

func mustSpec(b *testing.B, src string) *protogen.Spec {
	b.Helper()
	s, err := protogen.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func mustGen(b *testing.B, src string, o protogen.Options) *protogen.Protocol {
	b.Helper()
	p, err := protogen.GenerateSource(src, o)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTableI_ParseMSI: Table I — parse the atomic MSI SSP and render
// the cache-side table.
func BenchmarkTableI_ParseMSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := mustSpec(b, protogen.BuiltinMSI)
		cache, _ := protogen.RenderSpecTables(spec)
		if len(cache) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII_ParseMSIDir: Table II — the directory-side table.
func BenchmarkTableII_ParseMSIDir(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := mustSpec(b, protogen.BuiltinMSI)
		_, dir := protogen.RenderSpecTables(spec)
		if len(dir) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII_IV_PreprocessMOSI: Tables III/IV — MOSI generation
// including the forwarded-request renaming.
func BenchmarkTableIII_IV_PreprocessMOSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMOSI, protogen.NonStalling())
		if len(p.Renames) != 2 {
			b.Fatalf("renames = %v", p.Renames)
		}
	}
}

// BenchmarkTableV_Step2MSI: Table V — the concurrency-free transient chain
// (stalling generation exposes exactly the Step-2 states).
func BenchmarkTableV_Step2MSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMSI, protogen.Stalling())
		if p.Cache.State("IMAD") == nil || p.Cache.State("IMA") == nil {
			b.Fatal("missing Step-2 states")
		}
	}
}

// BenchmarkFigure1_SMTransaction: Figure 1 — generation plus the SM_AD
// Case-1 query.
func BenchmarkFigure1_SMTransaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
		trs := p.Cache.Find("SMAD", protogen.Event{Kind: 1, Msg: "Inv"})
		if len(trs) != 1 || trs[0].Next != "IMAD" {
			b.Fatal("Figure 1 transition missing")
		}
	}
}

// BenchmarkFigure2_ISTransition: Figure 2 — the IS_D / IS_D_I pair.
func BenchmarkFigure2_ISTransition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
		if p.Cache.State("ISDI") == nil {
			b.Fatal("ISDI missing")
		}
	}
}

// BenchmarkTableVI_NonStallingMSI: Table VI — generate the non-stalling
// MSI, render the table and diff it against the primer baseline.
func BenchmarkTableVI_NonStallingMSI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
		out := protogen.RenderTable(p.Cache, protogen.TableOptions{ShowGuards: true})
		r := protogen.CompareWithBaseline(p.Cache, protogen.PrimerNonStallingMSI())
		if len(out) == 0 || len(r.DeStalls()) != 4 {
			b.Fatalf("Table VI shape wrong: %d de-stalls", len(r.DeStalls()))
		}
	}
}

// BenchmarkExpA_StallingGeneration: §VI-A — generate the three stalling
// protocols and diff MSI against the primer.
func BenchmarkExpA_StallingGeneration(b *testing.B) {
	srcs := []string{protogen.BuiltinMSI, protogen.BuiltinMESI, protogen.BuiltinMOSI}
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			mustGen(b, src, protogen.Stalling())
		}
		p := mustGen(b, protogen.BuiltinMSI, protogen.Stalling())
		r := protogen.CompareWithBaseline(p.Cache, protogen.PrimerStallingMSI())
		if len(r.ExtraSts) != 0 {
			b.Fatal("stalling MSI differs from the primer")
		}
	}
}

// BenchmarkExpA_VerifyStallingMSI: §VI-A — model-check the stalling MSI
// (2 caches; the 3-cache paper setup runs via cmd/experiments).
func BenchmarkExpA_VerifyStallingMSI(b *testing.B) {
	p := mustGen(b, protogen.BuiltinMSI, protogen.Stalling())
	for i := 0; i < b.N; i++ {
		res := protogen.Verify(p, protogen.QuickVerifyConfig())
		if !res.OK() {
			b.Fatal(res)
		}
	}
}

// BenchmarkExpB_NonStallingGeneration: §VI-B — generate the three
// non-stalling protocols and check the state-count claims.
func BenchmarkExpB_NonStallingGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
		if s, _, _ := p.Cache.Counts(); s != 19 {
			b.Fatalf("MSI states = %d, want Table VI's 19", s)
		}
		mustGen(b, protogen.BuiltinMESI, protogen.NonStalling())
		mustGen(b, protogen.BuiltinMOSI, protogen.NonStalling())
	}
}

// BenchmarkExpB_VerifyNonStallingMSI: §VI-B — model-check the Table VI
// protocol.
func BenchmarkExpB_VerifyNonStallingMSI(b *testing.B) {
	p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
	for i := 0; i < b.N; i++ {
		res := protogen.Verify(p, protogen.QuickVerifyConfig())
		if !res.OK() {
			b.Fatal(res)
		}
	}
}

// verifyThroughput runs one exploration inside a benchmark iteration and
// accumulates the checker-throughput metrics: explored states (for
// states/sec) and heap allocations (for allocs/state), plus the Result
// for benchmark-specific metrics (canonicalization counters).
func verifyThroughput(b *testing.B, p *protogen.Protocol, cfg protogen.VerifyConfig, wantStates int) (states, allocs uint64, res *protogen.VerifyResult) {
	b.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res = protogen.Verify(p, cfg)
	runtime.ReadMemStats(&m1)
	if !res.OK() || res.States != wantStates {
		b.Fatal(res)
	}
	return uint64(res.States), m1.Mallocs - m0.Mallocs, res
}

// BenchmarkVerifyParallelism: the checker's worker-pool sweep — the
// paper-setup 3-cache non-stalling MSI exploration (capped at 150k
// states to bound CI time) at 1, 2, 4 and all-cores workers. Every
// variant must report the identical state space; only wall time moves.
// states/sec and allocs/state are the hot-path throughput gates diffed
// by cmd/benchdiff against BENCH_baseline.json.
func BenchmarkVerifyParallelism(b *testing.B) {
	const stateCap = 150_000
	p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
	for _, par := range []struct {
		name string
		n    int
	}{{"P1", 1}, {"P2", 2}, {"P4", 4}, {"Pauto", 0}} {
		b.Run(par.name, func(b *testing.B) {
			var states, allocs uint64
			for i := 0; i < b.N; i++ {
				cfg := protogen.DefaultVerifyConfig()
				cfg.MaxStates = stateCap
				cfg.Parallelism = par.n
				s, a, _ := verifyThroughput(b, p, cfg, stateCap)
				states, allocs = states+s, allocs+a
			}
			b.ReportMetric(float64(stateCap), "states")
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
			b.ReportMetric(float64(allocs)/float64(states), "allocs/state")
		})
	}
}

// BenchmarkVerify4CacheMSI: the cache count the factorial-free symmetry
// canonicalization unlocks — 4 caches means 24 permutations, so the old
// brute-force canonicalization paid 24 encodes per state where the
// signature sort pays one (plus tie-group suffix encodes and the
// occasional impure-state prefix search, both reported as metrics). Runs in
// fingerprint mode, the configuration big explorations use.
func BenchmarkVerify4CacheMSI(b *testing.B) {
	const stateCap = 100_000
	p := mustGen(b, protogen.BuiltinMSI, protogen.NonStalling())
	var states, allocs, fallbacks, ties uint64
	for i := 0; i < b.N; i++ {
		cfg := protogen.DefaultVerifyConfig()
		cfg.Caches = 4
		cfg.MaxStates = stateCap
		cfg.Parallelism = 1
		cfg.Fingerprint = true
		s, a, res := verifyThroughput(b, p, cfg, stateCap)
		states, allocs = states+s, allocs+a
		fallbacks += uint64(res.CanonFallbacks)
		ties += uint64(res.CanonTieStates)
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
	b.ReportMetric(float64(allocs)/float64(states), "allocs/state")
	b.ReportMetric(float64(fallbacks)/float64(b.N), "canon-fallbacks")
	b.ReportMetric(float64(ties)/float64(b.N), "canon-tie-states")
}

// BenchmarkVerifyReduction: the partial-order-reduction sweep — the
// stalling MSI (the registry's most fusible design) explored with
// Reduce on. reduction-ratio is full-states / reduced-states for the
// identical configuration (the verdicts are identical by the reduction
// soundness gate); reduced-states/sec is the checker's throughput over
// the states it actually stores. Both are diffed by cmd/benchdiff
// against BENCH_baseline.json: the ratio is a higher-is-better gate so
// a fusibility regression in internal/depend cannot land silently.
func BenchmarkVerifyReduction(b *testing.B) {
	p := mustGen(b, protogen.BuiltinMSI, protogen.Stalling())
	full := protogen.Verify(p, protogen.QuickVerifyConfig())
	if !full.OK() || !full.Complete {
		b.Fatal(full)
	}
	b.ResetTimer()
	var states, allocs uint64
	var res *protogen.VerifyResult
	for i := 0; i < b.N; i++ {
		cfg := protogen.QuickVerifyConfig()
		cfg.Reduce = true
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res = protogen.Verify(p, cfg)
		runtime.ReadMemStats(&m1)
		if !res.OK() || !res.Complete || len(res.ReduceUnsafe) > 0 {
			b.Fatal(res)
		}
		states += uint64(res.States)
		allocs += m1.Mallocs - m0.Mallocs
	}
	b.ReportMetric(float64(full.States)/float64(res.States), "reduction-ratio")
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "reduced-states/sec")
	b.ReportMetric(float64(allocs)/float64(states), "allocs/state")
}

// BenchmarkExpC_UnorderedMSI: §VI-C — generate and model-check the
// handshake protocol on an unordered network.
func BenchmarkExpC_UnorderedMSI(b *testing.B) {
	p := mustGen(b, protogen.BuiltinMSIUnordered, protogen.NonStalling())
	for i := 0; i < b.N; i++ {
		res := protogen.Verify(p, protogen.QuickVerifyConfig())
		if !res.OK() {
			b.Fatal(res)
		}
	}
}

// BenchmarkExpD_TSOCCLitmus: §VI-D — generate TSO-CC and run the litmus
// oracle standing in for the Banks et al. TSO check, with the same
// verdict cmd/experiments and examples/tsocc assert: no oracle failure,
// relaxations present on MP and SB only.
func BenchmarkExpD_TSOCCLitmus(b *testing.B) {
	p := mustGen(b, protogen.BuiltinTSOCC, protogen.NonStalling())
	tests, err := protogen.LitmusTestsByName([]string{"MP", "MP+acq", "SB", "CoRR"})
	if err != nil {
		b.Fatal(err)
	}
	ax := protogen.DefaultLitmusAxiom(p)
	for i := 0; i < b.N; i++ {
		rep := protogen.RunLitmusOracle(p, tests, ax, protogen.LitmusOptions{Exhaustive: true, Runs: 400, Seed: 11})
		for _, r := range rep.Results {
			if r.Failed() || !r.Complete {
				b.Fatalf("%s: oracle failure (complete=%v forbidden=%v stuck=%v err=%q)",
					r.Test, r.Complete, r.Forbidden, r.Stuck, r.Err)
			}
			if wantRelax := r.Test == "MP" || r.Test == "SB"; wantRelax != (len(r.Relaxed) > 0) {
				b.Fatalf("%s: relaxed=%v, want relaxation present=%v", r.Test, r.Relaxed, wantRelax)
			}
		}
	}
}

// BenchmarkExpE_GenerationRuntime: §VI-E — the end-to-end generation time
// for every built-in protocol ("always well less than one second").
func BenchmarkExpE_GenerationRuntime(b *testing.B) {
	for _, e := range protogen.Builtins() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := protogen.GenerateSource(e.Source, protogen.NonStalling()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX1_StallingVsNonStalling: extension — the contended-workload
// comparison behind the "reduce stalling" claim.
func BenchmarkX1_StallingVsNonStalling(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts protogen.Options
	}{{"stalling", protogen.Stalling()}, {"nonstalling", protogen.NonStalling()}} {
		p := mustGen(b, protogen.BuiltinMSI, mode.opts)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := protogen.Simulate(p, protogen.SimConfig{
					Caches: 3, Steps: 10000, Seed: 7,
					Workload: protogen.StandardWorkloads()[0],
				})
				if err != nil {
					b.Fatal(err)
				}
				if st.SCViolations != 0 {
					b.Fatal("SC violation")
				}
				b.ReportMetric(float64(st.StallEvents), "stalls/run")
				b.ReportMetric(st.AvgLatency(), "steps/txn")
			}
		})
	}
}

// BenchmarkX2_PendingLimitSweep: extension — absorption depth L vs
// generated size and stall behavior.
func BenchmarkX2_PendingLimitSweep(b *testing.B) {
	for _, l := range []int{0, 1, 3} {
		opts := protogen.NonStalling()
		opts.PendingLimit = l
		b.Run(map[int]string{0: "L0", 1: "L1", 3: "L3"}[l], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := mustGen(b, protogen.BuiltinMSI, opts)
				s, _, _ := p.Cache.Counts()
				b.ReportMetric(float64(s), "states")
			}
		})
	}
}

// BenchmarkX3_ResponsePolicyAblation: extension — verification cost of the
// three Case-2 policies (all must pass with pruning on).
func BenchmarkX3_ResponsePolicyAblation(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts protogen.Options
	}{
		{"stall", protogen.Stalling()},
		{"deferred", protogen.Deferred()},
		{"immediate", protogen.NonStalling()},
	} {
		p := mustGen(b, protogen.BuiltinMSI, mode.opts)
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := protogen.QuickVerifyConfig()
				cfg.CheckLiveness = false
				res := protogen.Verify(p, cfg)
				if !res.OK() {
					b.Fatal(res)
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
	}
}
