package engine_test

// Differential pinning of the symmetry canonicalization: for every
// registry protocol, every generation mode, and a sweep of fuzz-generated
// specs, random walks must produce canonical keys byte-identical to the
// brute-force all-permutations oracle (Encoder.CanonicalBrute). This is
// the test that licenses the factorial-free paths: any divergence — a
// wrong purity judgment, a bad tie-group enumeration, a sort that
// disagrees with lexicographic encoding order, an unsound prefix prune
// in the impure-state search — shows up as a key diff long before it
// would corrupt golden exploration numbers.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"protogen/internal/core"
	"protogen/internal/dsl"
	"protogen/internal/engine"
	"protogen/internal/fuzz"
	"protogen/internal/ir"
	"protogen/internal/protocols"
)

// walkDiff drives one random schedule, comparing fast and brute canonical
// keys at every step. Separate encoders: the two paths share scratch
// buffers, so one encoder cannot hold both keys at once.
func walkDiff(t *testing.T, label string, p *ir.Protocol, caches int, seed int64, steps int) (stats engine.CanonStats) {
	t.Helper()
	cfg := engine.Config{Caches: caches, Capacity: 6, Values: 2}
	sys := engine.NewSystem(p, cfg)
	perms := engine.Permutations(caches)
	fast := engine.NewEncoder(p)
	brute := engine.NewEncoder(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		fk := fast.Canonical(sys, perms)
		bk := brute.CanonicalBrute(sys, perms)
		if !bytes.Equal(fk, bk) {
			t.Fatalf("%s caches=%d seed=%d step %d: signature-sort key diverges from brute force\nfast:  %x\nbrute: %x",
				label, caches, seed, i, fk, bk)
		}
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			break // apply errors (defect shapes) end the walk; keys matched up to here
		}
	}
	return fast.Stats()
}

// diffCacheCounts are the cache counts the differential walks sweep:
// up to 5, where impure states are common and the permutation search
// does real pruning.
var diffCacheCounts = []int{2, 3, 4, 5}

// requireSearch fails unless every cache count from 4 up sent some
// impure state through the permutation search, so the differential
// check really pins it there.
func requireSearch(t *testing.T, byCaches map[int]engine.CanonStats) {
	t.Helper()
	for caches, st := range byCaches {
		if caches >= 4 && (st.Fallbacks == 0 || st.SearchNodes == 0) {
			t.Errorf("caches=%d: no impure state reached the permutation search: %+v", caches, st)
		}
	}
}

// TestCanonicalDiffRegistry sweeps every registry protocol in all three
// generation modes at 2 to 5 caches.
func TestCanonicalDiffRegistry(t *testing.T) {
	modes := []struct {
		name string
		opts core.Options
	}{
		{"stalling", core.StallingOpts()},
		{"nonstalling", core.NonStallingOpts()},
		{"deferred", core.DeferredOpts()},
	}
	var total engine.CanonStats
	byCaches := map[int]engine.CanonStats{}
	for _, e := range protocols.Entries() {
		spec, err := dsl.Parse(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, mode := range modes {
			p, err := core.Generate(spec, mode.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, mode.name, err)
			}
			for _, caches := range diffCacheCounts {
				for seed := int64(0); seed < 6; seed++ {
					st := walkDiff(t, e.Name+"/"+mode.name, p, caches, seed, 60)
					total.Add(st)
					sum := byCaches[caches]
					sum.Add(st)
					byCaches[caches] = sum
				}
			}
		}
	}
	// The sweep must exercise every strategy, or the differential check
	// proves less than it claims (deferred mode and larger cache counts
	// drive impure states into the search, near-initial states drive
	// ties).
	if total.Fast == 0 || total.TieStates == 0 || total.Fallbacks == 0 {
		t.Errorf("sweep did not cover all canonicalization strategies: %+v", total)
	}
	requireSearch(t, byCaches)
}

// TestCanonicalDiffFuzzSpecs runs the differential walk over the fuzzer's
// seed-indexed spec space — the same generator the campaign uses, so the
// canonicalization is pinned on machine shapes nobody hand-picked.
func TestCanonicalDiffFuzzSpecs(t *testing.T) {
	pool := append(fuzz.Shapes(), fuzz.BoundaryShapes()...)
	byCaches := map[int]engine.CanonStats{}
	for seed := uint64(0); seed < 24; seed++ {
		params, limit, simSeed := fuzz.SpecForSeed(seed, pool)
		spec, err := dsl.Parse(params.Source())
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, params.Name(), err)
		}
		for _, mode := range []core.Options{core.StallingOpts(), core.NonStallingOpts(), core.DeferredOpts()} {
			opts := mode
			opts.PendingLimit = limit
			p, err := core.Generate(spec, opts)
			if err != nil {
				continue // generator boundary shapes may reject a mode; covered elsewhere
			}
			label := fmt.Sprintf("fuzz seed %d (%s)", seed, params.Name())
			for _, caches := range diffCacheCounts {
				sum := byCaches[caches]
				sum.Add(walkDiff(t, label, p, caches, simSeed, 40))
				byCaches[caches] = sum
			}
		}
	}
	requireSearch(t, byCaches)
}

// TestCanonicalDiffCacheIDs covers the impure sections the walks above
// never reach: no registry or fuzz-generated cache machine keeps a node
// id in a variable, so their impure states come from deferred messages
// alone. Here random-walk states get ids planted in every cache section:
// one int slot relabeled as a VID holding NoID, a cache or the
// directory, and a sharer-style mask of random cache bits, sometimes
// with a bit past the caches that pushes its value beyond putInt's
// one-byte form. The encoder reads only the layout's VID flags and the
// slot values, so the planted states pin the search's VID and mask
// handling against brute force.
func TestCanonicalDiffCacheIDs(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, caches := range diffCacheCounts {
		perms := engine.Permutations(caches)
		fast := engine.NewEncoder(p)
		brute := engine.NewEncoder(p)
		sys := engine.NewSystem(p, engine.Config{Caches: caches, Capacity: 6, Values: 2})
		rng := rand.New(rand.NewSource(int64(caches)))
		for step := 0; step < 200; step++ {
			planted := sys.Clone()
			layout := *planted.Caches[0].L
			layout.IntIsVID = append([]bool{true}, layout.IntIsVID[1:]...)
			for _, c := range planted.Caches {
				c.L = &layout
				c.Ints[0] = rng.Intn(caches+2) - 1
				mask := rng.Uint32() & (1<<caches - 1)
				if rng.Intn(4) == 0 {
					mask |= 1 << 8
				}
				c.Masks = []uint32{mask}
			}
			fk := fast.Canonical(planted, perms)
			bk := brute.CanonicalBrute(planted, perms)
			if !bytes.Equal(fk, bk) {
				t.Fatalf("caches=%d step %d: planted-id key diverges from brute force\nfast:  %x\nbrute: %x",
					caches, step, fk, bk)
			}
			rules := sys.Rules()
			if len(rules) == 0 {
				break
			}
			if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
				t.Fatal(err)
			}
		}
		if st := fast.Stats(); st.Fallbacks == 0 {
			t.Errorf("caches=%d: no planted state reached the permutation search: %+v", caches, st)
		}
	}
}

// TestCanonicalHonorsPermSubset: a permutation list that is a proper
// subset of the symmetric group defines a coarser equivalence; Canonical
// must minimize over exactly that subset (via the brute path), never
// over permutations the caller excluded.
func TestCanonicalHonorsPermSubset(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := engine.Permutations(3)
	subset := [][]int{full[0], full[1]} // identity + one swap, not a full group cover
	sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 6, Values: 2})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		fk := string(engine.NewEncoder(p).Canonical(sys, subset))
		bk := string(engine.NewEncoder(p).CanonicalBrute(sys, subset))
		if fk != bk {
			t.Fatalf("step %d: Canonical over a perm subset diverges from brute force on that subset", i)
		}
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCanonicalAgreesAcrossEncoders: the same state canonicalized by two
// fresh encoders (as checker workers do) yields identical bytes, and
// repeated calls on one encoder are stable.
func TestCanonicalAgreesAcrossEncoders(t *testing.T) {
	spec, err := dsl.Parse(protocols.MSI)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Generate(spec, core.NonStallingOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := engine.NewSystem(p, engine.Config{Caches: 3, Capacity: 6, Values: 2})
	rng := rand.New(rand.NewSource(11))
	perms := engine.Permutations(3)
	for i := 0; i < 25; i++ {
		rules := sys.Rules()
		if len(rules) == 0 {
			break
		}
		if _, err := sys.Apply(rules[rng.Intn(len(rules))]); err != nil {
			t.Fatal(err)
		}
		a := string(engine.NewEncoder(p).Canonical(sys, perms))
		e := engine.NewEncoder(p)
		b := string(e.Canonical(sys, perms))
		c := string(e.Canonical(sys, perms))
		if a != b || b != c {
			t.Fatalf("step %d: canonical key unstable across encoders/calls", i)
		}
	}
}
