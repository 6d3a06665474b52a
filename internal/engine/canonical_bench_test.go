package engine_test

// Per-strategy cost of Encoder.Canonical at 5 caches: the allocation
// guard for the warm hot path and one microbenchmark per
// canonicalization strategy (fast sort, tie groups, impure-state
// permutation search).

import (
	"math/rand"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/protocols"
)

// canonStates holds reachable states sorted by the strategy Canonical
// takes on them.
type canonStates struct {
	perms             [][]int
	fast, tie, impure []*engine.System
}

// collectCanonStates random-walks non-stalling MSI at the given cache
// count until it holds want states of every strategy. Each state is
// classified by which CanonStats counter its Canonical call moved.
func collectCanonStates(tb testing.TB, caches, want int) (*engine.Encoder, *canonStates) {
	tb.Helper()
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		tb.Fatal(err)
	}
	cs := &canonStates{perms: engine.Permutations(caches)}
	enc := engine.NewEncoder(p)
	rng := rand.New(rand.NewSource(1))
	cfg := engine.Config{Caches: caches, Capacity: 6, Values: 2}
	sys := engine.NewSystem(p, cfg)
	for step := 0; step < 200_000; step++ {
		if len(cs.fast) >= want && len(cs.tie) >= want && len(cs.impure) >= want {
			return enc, cs
		}
		before := enc.Stats()
		enc.Canonical(sys, cs.perms)
		after := enc.Stats()
		switch {
		case after.Fast != before.Fast && len(cs.fast) < want:
			cs.fast = append(cs.fast, sys.Clone())
		case after.TieStates != before.TieStates && len(cs.tie) < want:
			cs.tie = append(cs.tie, sys.Clone())
		case after.Fallbacks != before.Fallbacks && len(cs.impure) < want:
			cs.impure = append(cs.impure, sys.Clone())
		}
		rules := sys.Rules()
		if len(rules) == 0 || step%400 == 399 {
			sys = engine.NewSystem(p, cfg) // restart: walks drift toward deep, similar states
			continue
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Fatalf("walk found %d fast / %d tie / %d impure states, want %d each",
		len(cs.fast), len(cs.tie), len(cs.impure), want)
	return nil, nil
}

// TestCanonicalImpureAllocs: once an encoder's arenas have grown to fit
// the widest search it has seen, canonicalizing impure 5-cache states
// allocates nothing.
func TestCanonicalImpureAllocs(t *testing.T) {
	enc, cs := collectCanonStates(t, 5, 64)
	for _, s := range cs.impure {
		enc.Canonical(s, cs.perms) // warm-up: grow the search arenas
	}
	i := 0
	allocs := testing.AllocsPerRun(len(cs.impure), func() {
		enc.Canonical(cs.impure[i%len(cs.impure)], cs.perms)
		i++
	})
	if allocs != 0 {
		t.Errorf("Canonical on impure 5-cache states: %.2f allocs/call after warm-up, want 0", allocs)
	}
}

// BenchmarkCanonical times one Canonical call per strategy at 5 caches
// (120 permutations). search-nodes/op is the impure-state search's
// width: partial permutations kept per state.
func BenchmarkCanonical(b *testing.B) {
	enc, cs := collectCanonStates(b, 5, 256)
	for _, bc := range []struct {
		name   string
		states []*engine.System
	}{{"fast", cs.fast}, {"tie", cs.tie}, {"impure", cs.impure}} {
		b.Run(bc.name, func(b *testing.B) {
			for _, s := range bc.states {
				enc.Canonical(s, cs.perms)
			}
			nodes := enc.Stats().SearchNodes
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc.Canonical(bc.states[i%len(bc.states)], cs.perms)
			}
			b.ReportMetric(float64(enc.Stats().SearchNodes-nodes)/float64(b.N), "search-nodes/op")
		})
	}
}
