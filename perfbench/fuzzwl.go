package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"protogen/internal/analyze"
	"protogen/internal/core"
	"protogen/internal/depend"
	"protogen/internal/dsl"
	"protogen/internal/fuzz"
	"protogen/internal/litmus"
	"protogen/internal/sim"
	"protogen/internal/verify"
)

// fuzzPin is one campaign seed whose outcome is recorded: it passes,
// and its full model checks find these counts, as
// "states/edges/depth" per mode in fuzz.Modes order.
type fuzzPin struct {
	seed   uint64
	family string
	modes  string
}

// pinsPerFamily is how many seeds fuzzpins.go records per family.
const pinsPerFamily = 12

// fuzzWorkers is the campaign's parallelism: seeds in flight at once.
const fuzzWorkers = 2

// fuzzBench runs campaign seeds drawn from the pinned pool.
type fuzzBench struct {
	seeds []uint64 // the run's seed order
	pins  map[uint64]string
	// lastN is how many seeds the untraced phase ran, so the traced
	// phase replays the same inputs.
	lastN int
}

// setupFuzz orders the pinned seeds for this workload seed: round
// robin over the families in fuzz.Shapes order, each family starting
// at a seed-derived offset into its pinned seeds. Every run thus covers
// the same mix of families (the cost of a seed depends mostly on its
// family) while the seeds themselves change with the workload seed.
func setupFuzz(seed int64, _ any, _ *tracer) (instance, error) {
	byFamily := map[string][]fuzzPin{}
	for _, p := range fuzzPins {
		byFamily[p.family] = append(byFamily[p.family], p)
	}
	b := &fuzzBench{pins: map[uint64]string{}}
	var fams [][]fuzzPin
	for i, shape := range fuzz.Shapes() {
		pins := byFamily[shape.Name()]
		if len(pins) == 0 {
			return nil, fmt.Errorf("no pinned seeds for family %s; rerun --pin-fuzz", shape.Name())
		}
		off := int(splitmix(uint64(seed)^uint64(i)<<32) % uint64(len(pins)))
		fams = append(fams, append(pins[off:len(pins):len(pins)], pins[:off]...))
		for _, p := range pins {
			b.pins[p.seed] = p.modes
		}
	}
	for r := 0; r < pinsPerFamily; r++ {
		for _, pins := range fams {
			b.seeds = append(b.seeds, pins[r%len(pins)].seed)
		}
	}
	return b, nil
}

func (b *fuzzBench) close() error { return nil }

// campaignConfig is the campaign's per-call configuration: the default
// campaign, one seed per call, the benchmark running fuzzWorkers calls
// at once.
func campaignConfig() fuzz.Config {
	cfg := fuzz.DefaultConfig()
	cfg.Parallelism = 1
	return cfg
}

// modeCounts renders a report's per-mode counts as pinned.
func modeCounts(modes []fuzz.ModeResult) string {
	parts := make([]string, len(modes))
	for i, m := range modes {
		parts[i] = fmt.Sprintf("%d/%d/%d", m.States, m.Edges, m.Depth)
	}
	return strings.Join(parts, " ")
}

// runSeeds runs op on seeds from the run's order on fuzzWorkers
// goroutines, until budget is spent (n < 0) or exactly n seeds ran.
func (b *fuzzBench) runSeeds(budget time.Duration, n int, s *sample, op func(seed uint64) (states int64, err error)) {
	var (
		mu     sync.Mutex
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < fuzzWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n < 0 && time.Since(start) >= budget {
					return
				}
				i := int(cursor.Add(1)) - 1
				if n >= 0 && i >= n {
					return
				}
				seed := b.seeds[i%len(b.seeds)]
				t := time.Now()
				states, err := op(seed)
				ms := msSince(t)
				mu.Lock()
				s.attempted++
				s.lat = append(s.lat, ms)
				s.states += states
				if err != nil {
					s.fail("seed %d: %v", seed, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)
}

func (b *fuzzBench) measure(budget time.Duration, tr *tracer) *sample {
	s := &sample{}
	if tr == nil {
		cfg := campaignConfig()
		b.runSeeds(budget, -1, s, func(seed uint64) (int64, error) {
			rep, err := fuzz.Run(seed, seed+1, cfg)
			if err != nil {
				return 0, err
			}
			var states int64
			for _, sr := range rep.Specs {
				for _, m := range sr.Modes {
					states += int64(m.States)
				}
			}
			if rep.Pass != 1 || len(rep.Specs) != 1 {
				return states, fmt.Errorf("campaign: %s", rep.Summary())
			}
			if got, want := modeCounts(rep.Specs[0].Modes), b.pins[seed]; got != want {
				return states, fmt.Errorf("mode counts %q, pinned %q", got, want)
			}
			return states, nil
		})
		b.lastN = len(s.lat)
		s.extra = append(s.extra, namedValue{"seeds_per_s", float64(len(s.lat)) / s.wall.Seconds(), "1/s", len(s.lat)})
		return s
	}
	b.runSeeds(budget, max(b.lastN, 1), s, func(seed uint64) (int64, error) {
		return replayFuzzSeed(seed, b.pins[seed], tr)
	})
	return s
}

// replayFuzzSeed runs one campaign seed's oracle the way
// fuzz.CheckSource does, but as separate public calls so each is
// spanned: parse, lint, per mode generate + full check + dependence
// analysis + reduced check, then the simulator and the quick litmus
// suite on the non-stalling design. It checks the verdicts and the
// pinned counts as the campaign does.
func replayFuzzSeed(seed uint64, pin string, tr *tracer) (int64, error) {
	cfg := campaignConfig()
	shape, limit, simSeed := fuzz.SpecForSeed(seed, fuzz.Shapes())
	t := time.Now()
	spec, err := dsl.Parse(shape.Source())
	tr.since("dsl.parse_ms", t)
	if err != nil {
		return 0, err
	}
	t = time.Now()
	lint := analyze.CheckSpec(spec)
	tr.since("analyze.lint_ms", t)
	if lint.Broken() {
		return 0, fmt.Errorf("lint: %s", lint.Verdict())
	}
	var (
		states int64
		modes  []fuzz.ModeResult
	)
	for _, mode := range fuzz.Modes {
		opts, err := core.OptionsForMode(mode)
		if err != nil {
			return states, err
		}
		opts.PendingLimit = limit
		t = time.Now()
		p, err := core.Generate(spec, opts)
		tr.since("core.generate_ms", t)
		if err != nil {
			return states, err
		}
		vcfg := verify.Config{
			Caches: cfg.Caches, Capacity: cfg.Capacity, Values: 2,
			MaxStates: cfg.MaxStates, CheckSWMR: true, CheckValues: true,
			CheckLiveness: true, Symmetry: true, MaxViolations: 1,
			Parallelism: 1,
		}
		t = time.Now()
		full := verify.Check(p, vcfg)
		tr.since("fuzz.verify_full_ms", t)
		addCanon(tr, full)
		states += int64(full.States)
		modes = append(modes, fuzz.ModeResult{States: full.States, Edges: full.Edges, Depth: full.Depth})
		t = time.Now()
		depend.New(p)
		tr.since("depend.analysis_ms", t)
		vcfg.Reduce = true
		t = time.Now()
		red := verify.Check(p, vcfg)
		tr.since("fuzz.verify_reduced_ms", t)
		if red.CandidateSuccs > 0 {
			tr.add("verify.reduce_emitted_ratio", float64(red.EmittedSuccs)/float64(red.CandidateSuccs))
		}
		if !full.OK() || !full.Complete || red.OK() != full.OK() {
			return states, fmt.Errorf("%s: full %v, reduced ok %t", mode, full, red.OK())
		}
	}
	if got := modeCounts(modes); got != pin {
		return states, fmt.Errorf("mode counts %q, pinned %q", got, pin)
	}
	opts, err := core.OptionsForMode("nonstalling")
	if err != nil {
		return states, err
	}
	opts.PendingLimit = limit
	t = time.Now()
	p, err := core.Generate(spec, opts)
	tr.since("core.generate_ms", t)
	if err != nil {
		return states, err
	}
	for _, w := range []sim.Workload{sim.Contended{}, sim.Migratory{}} {
		t = time.Now()
		st, err := sim.Run(p, sim.Config{Caches: cfg.Caches, Steps: cfg.SimSteps, Seed: simSeed, Workload: w})
		if err != nil {
			return states, fmt.Errorf("sim %s: %w", w.Name(), err)
		}
		tr.add("sim.steps_per_s", float64(st.Steps)/time.Since(t).Seconds())
		if st.SCViolations > 0 {
			return states, fmt.Errorf("sim %s: %d SC violations", w.Name(), st.SCViolations)
		}
	}
	ax := litmus.DefaultAxiom(p)
	t = time.Now()
	for _, tc := range litmus.QuickSuite() {
		res := litmus.RunTest(context.Background(), p, tc, ax, litmus.Options{Caches: cfg.Caches, Exhaustive: true})
		if res.Failed() {
			return states, fmt.Errorf("litmus %s failed", tc.Name)
		}
	}
	tr.since("fuzz.litmus_ms", t)
	return states, nil
}

// printFuzzPins picks pinsPerFamily seeds of every family (the lowest
// seeds that map to it), runs each through the campaign and writes
// fuzzpins.go. Every pinned seed must pass.
func printFuzzPins(out io.Writer) error {
	shapes := fuzz.Shapes()
	var pins []fuzzPin
	count := map[string]int{}
	for seed := uint64(0); len(pins) < pinsPerFamily*len(shapes); seed++ {
		shape, _, _ := fuzz.SpecForSeed(seed, shapes)
		if count[shape.Name()] < pinsPerFamily {
			count[shape.Name()]++
			pins = append(pins, fuzzPin{seed: seed, family: shape.Name()})
		}
	}
	b := &fuzzBench{}
	for _, p := range pins {
		b.seeds = append(b.seeds, p.seed)
	}
	cfg := campaignConfig()
	s := &sample{}
	var mu sync.Mutex
	got := map[uint64]string{}
	b.runSeeds(0, len(pins), s, func(seed uint64) (int64, error) {
		rep, err := fuzz.Run(seed, seed+1, cfg)
		if err != nil {
			return 0, err
		}
		if rep.Pass != 1 {
			return 0, fmt.Errorf("campaign: %s", rep.Summary())
		}
		mu.Lock()
		got[seed] = modeCounts(rep.Specs[0].Modes)
		mu.Unlock()
		return 0, nil
	})
	if s.failed > 0 {
		return fmt.Errorf("pinning: %v", s.failures)
	}
	fmt.Fprintf(out, "// Code generated by perfbench --pin-fuzz; DO NOT EDIT.\n\npackage main\n\n")
	fmt.Fprintf(out, "// fuzzPins: %d seeds per family, modes in fuzz.Modes order (%s).\nvar fuzzPins = []fuzzPin{\n",
		pinsPerFamily, strings.Join(fuzz.Modes, ", "))
	for _, p := range pins {
		fmt.Fprintf(out, "\t{%d, %q, %q},\n", p.seed, p.family, got[p.seed])
	}
	fmt.Fprintln(out, "}")
	return nil
}

// splitmix is the SplitMix64 finalizer, used to derive per-family
// offsets from the workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
