package main

import (
	"fmt"
	"time"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/ir"
	"protogen/internal/protocols"
	"protogen/internal/verify"
)

// checkPin is the exact outcome a checker workload must reproduce.
type checkPin struct {
	states, edges, depth int
	complete             bool
}

// paperPin is the paper's §VI-A verification: stalling MSI at 3 caches,
// run to a verdict.
var paperPin = checkPin{states: 1_297_610, edges: 4_318_972, depth: 68, complete: true}

// scaleCap is the state cap of scale-msi5: large enough that the
// canonicalization fallback dominates (over half the states take it),
// small enough for several checks per run.
const scaleCap = 20_000

var scalePin = checkPin{states: scaleCap, edges: 69_839, depth: 13, complete: false}

// replayStates bounds the traced run's replay of each checker
// workload's state space.
const replayStates = 20_000

// generate parses a registry protocol and generates one mode of it,
// spanning both calls on tr.
func generate(name, mode string, tr *tracer) (*ir.Protocol, error) {
	e, ok := protocols.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no registry protocol %q", name)
	}
	t := time.Now()
	spec, err := dsl.Parse(e.Source)
	tr.since("dsl.parse_ms", t)
	if err != nil {
		return nil, err
	}
	opts, err := core.OptionsForMode(mode)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	p, err := core.Generate(spec, opts)
	tr.since("core.generate_ms", t)
	return p, err
}

// checkerBench is a workload whose operation is one model-checker run.
type checkerBench struct {
	p   *ir.Protocol
	cfg verify.Config
	pin checkPin
}

func setupPaper(_ int64, _ any, tr *tracer) (instance, error) {
	p, err := generate("MSI", "stalling", tr)
	if err != nil {
		return nil, err
	}
	cfg := verify.DefaultConfig() // 3 caches; symmetry, SWMR, values, liveness; exact set
	cfg.Parallelism = 2
	return &checkerBench{p: p, cfg: cfg, pin: paperPin}, nil
}

func setupScale(_ int64, _ any, tr *tracer) (instance, error) {
	p, err := generate("MSI", "nonstalling", tr)
	if err != nil {
		return nil, err
	}
	cfg := verify.DefaultConfig()
	cfg.Caches = 5
	cfg.Fingerprint = true
	cfg.MaxStates = scaleCap
	cfg.Parallelism = 2
	return &checkerBench{p: p, cfg: cfg, pin: scalePin}, nil
}

func (b *checkerBench) close() error { return nil }

// checkResult compares a checker result with its pin.
func checkResult(r *verify.Result, pin checkPin) error {
	if r.States != pin.states || r.Edges != pin.edges || r.Depth != pin.depth ||
		r.Complete != pin.complete || !r.OK() {
		return fmt.Errorf("got %d states / %d edges / depth %d / complete %t / ok %t, want %d / %d / %d / %t / true",
			r.States, r.Edges, r.Depth, r.Complete, r.OK(), pin.states, pin.edges, pin.depth, pin.complete)
	}
	return nil
}

func (b *checkerBench) measure(budget time.Duration, tr *tracer) *sample {
	s := &sample{}
	s.lat, s.wall = loop(budget, func() {
		cfg := b.cfg
		var (
			last     time.Time
			frontier int
		)
		if tr != nil {
			last = time.Now()
			cfg.Progress = func(p verify.Progress) {
				now := time.Now()
				tr.add("verify.level_ms", float64(now.Sub(last).Nanoseconds())/1e6)
				last = now
				frontier = max(frontier, p.Frontier)
			}
		}
		r := verify.Check(b.p, cfg)
		s.attempted++
		s.states += int64(r.States)
		if err := checkResult(r, b.pin); err != nil {
			s.fail("%s: %v", b.p.Name, err)
		}
		if tr != nil {
			tr.since("verify.tail_ms", last)
			tr.add("verify.frontier_peak", float64(frontier))
			tr.add("verify.states", float64(r.States))
			tr.add("verify.edges", float64(r.Edges))
			tr.add("verify.depth", float64(r.Depth))
			tr.add("verify.visited_bytes_per_state", float64(r.VisitedBytes)/float64(max(r.States, 1)))
			addCanon(tr, r)
		}
	})
	secs := median(s.lat) / 1000
	s.extra = append(s.extra,
		namedValue{"verify_s", secs, "s", len(s.lat)},
		namedValue{"states_per_s", float64(b.pin.states) / secs, "1/s", len(s.lat)})
	if tr != nil {
		st, err := replay(b.p, b.cfg, replayStates, true)
		if err != nil {
			s.attempted++
			s.fail("replay: %v", err)
		} else {
			st.report(tr)
		}
	}
	return s
}

// addCanon records a result's canonicalization strategy counts.
func addCanon(tr *tracer, r *verify.Result) {
	tr.add("engine.canon_fast", float64(r.CanonFast))
	tr.add("engine.canon_tie_states", float64(r.CanonTieStates))
	tr.add("engine.canon_tie_encodes", float64(r.CanonTieEncodes))
	tr.add("engine.canon_fallbacks", float64(r.CanonFallbacks))
}
