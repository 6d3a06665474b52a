package main

import (
	"fmt"
	"time"

	"protogen/internal/engine"
	"protogen/internal/ir"
	"protogen/internal/store"
	"protogen/internal/verify"
)

// replayStats is one replay of a checker workload: how far it got and,
// when timed, the duration of every call into the engine and store.
type replayStats struct {
	states, edges int

	// Per-call durations in ns, recorded only when timed.
	rules, clone, apply, canonical, fallback, fingerprint, probe []float64
}

// replay walks the protocol's state space breadth first on one
// goroutine through the same public calls the checker makes per state
// (System.AppendRules, CloneInto, Apply, Encoder.Canonical,
// engine.Fingerprint, store.Table.Lookup/Insert), stopping after
// maxStates states (0: no bound). With timed set it times each call.
// It checks no invariants: it is the benchmark's view of the checker's
// inner loop, and its state count matches the checker's on a full run.
func replay(p *ir.Protocol, cfg verify.Config, maxStates int, timed bool) (*replayStats, error) {
	var perms [][]int
	if cfg.Symmetry {
		perms = engine.Permutations(cfg.Caches)
	}
	enc := engine.NewEncoder(p)
	visited := store.New()
	init := engine.NewSystem(p, engine.Config{Caches: cfg.Caches, Capacity: cfg.Capacity, Values: cfg.Values})
	key := enc.Canonical(init, perms)
	visited.Insert(engine.Fingerprint(key), "", 0)
	st := &replayStats{states: 1}
	queue := []*engine.System{init}
	var (
		rules []engine.Rule
		spare *engine.System
	)
	stamp := func(dst *[]float64, t0 time.Time) time.Time {
		t1 := time.Now()
		if timed {
			*dst = append(*dst, float64(t1.Sub(t0).Nanoseconds()))
		}
		return t1
	}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		queue[head] = nil
		t := time.Now()
		rules = s.AppendRules(rules[:0])
		t = stamp(&st.rules, t)
		for _, r := range rules {
			if spare == nil {
				spare = s.Clone()
			} else {
				s.CloneInto(spare)
			}
			t = stamp(&st.clone, t)
			_, err := spare.Apply(r)
			t = stamp(&st.apply, t)
			if err != nil {
				return nil, fmt.Errorf("apply %s: %w", r, err)
			}
			falls := enc.Stats().Fallbacks
			key := enc.Canonical(spare, perms)
			fell := enc.Stats().Fallbacks != falls
			t0 := t
			t = stamp(&st.canonical, t)
			if fell && timed {
				st.fallback = append(st.fallback, float64(t.Sub(t0).Nanoseconds()))
			}
			fp := engine.Fingerprint(key)
			t = stamp(&st.fingerprint, t)
			_, seen := visited.Lookup(fp, nil)
			t = stamp(&st.probe, t)
			st.edges++
			if seen {
				continue
			}
			visited.Insert(fp, "", int32(st.states))
			stamp(&st.probe, t)
			st.states++
			queue = append(queue, spare)
			spare = nil
			if maxStates > 0 && st.states >= maxStates {
				return st, nil
			}
		}
	}
	return st, nil
}

// report hands the replay's call timings to the tracer.
func (st *replayStats) report(tr *tracer) {
	tr.addAll("engine.rules_ns", st.rules)
	tr.addAll("engine.clone_ns", st.clone)
	tr.addAll("engine.apply_ns", st.apply)
	tr.addAll("engine.canonical_ns", st.canonical)
	tr.addAll("engine.canonical_fallback_ns", st.fallback)
	tr.addAll("engine.fingerprint_ns", st.fingerprint)
	tr.addAll("store.probe_ns", st.probe)
}
