// Package litmus is the weak-memory litmus oracle: it runs generated
// protocols against small multi-threaded, multi-address programs and
// checks the observed outcome sets against explicit consistency axioms
// (SC, TSO, weak). It is the repository's one litmus harness. A
// randomized sampler (Sample) can only ever say "not observed yet", so
// the exhaustive explorer (Explore) enumerates every schedule of a
// litmus program over composed engine.System instances, deduplicating
// interleaving states through the same fingerprint visited-store
// machinery the model checker uses (internal/store). The outcome set
// it reports is exact: a forbidden outcome that is absent is *proven*
// absent (modulo 64-bit fingerprint collisions), not merely unsampled.
//
// Each catalog test carries per-axiom forbidden-outcome predicates;
// the axiom layer expands them into full outcome tables (allowed /
// relaxed-permitted / forbidden) and the oracle checks verdicts
// mechanically. See docs/LITMUS.md for the shape catalog, the axiom
// tables and the exhaustive-vs-sampled contract.
package litmus

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind enumerates litmus thread operations.
type OpKind int

// Litmus operations.
const (
	OLoad OpKind = iota
	OStore
	OAcquire // acquire fence: self-invalidate stale Shared copies everywhere
)

// Op is one instruction of a litmus thread. Loads record the value read
// into Reg; stores may also carry a Reg to record the value written —
// the engine writes globally monotonic per-address values, so a store's
// recorded value is its position in that address's coherence order,
// which is what the coherence-shape tests (CoWR, CoRW2, 2+2W, R, S)
// condition on.
type Op struct {
	Kind OpKind
	Addr int
	Reg  string // result register ("" to discard)
}

// Test is a multi-address litmus test. Thread i runs on cache i; every
// address is an independent instance of the protocol (coherence is
// per-block). Warm preloads Shared copies so stale-read behavior is
// observable. The forbid table holds one forbidden-outcome predicate
// per axiom; Classify and Table derive the allowed / relaxed /
// forbidden verdicts from it.
type Test struct {
	Name    string
	Doc     string // one-line shape description
	Addrs   int
	Threads [][]Op
	Warm    map[int][]int // cache -> addresses preloaded into Shared

	forbid map[Axiom]func(Outcome) bool
}

// Outcome maps registers to observed values. Loads read 0 (initial) or
// the monotonic value of the store they observed; stores record the
// monotonic value they wrote (1..k for an address with k stores, in
// coherence order).
type Outcome map[string]int

// String renders the outcome canonically (registers sorted).
func (o Outcome) String() string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, o[k])
	}
	return strings.Join(parts, " ")
}

// Registers lists the test's registers in deterministic order: thread
// order, then program order within a thread.
func (t *Test) Registers() []string {
	var out []string
	for ti, thread := range t.Threads {
		for _, op := range thread {
			if op.Reg != "" {
				out = append(out, regName(ti, op.Reg))
			}
		}
	}
	return out
}

// regName qualifies a register with its thread.
func regName(thread int, reg string) string {
	return fmt.Sprintf("t%d.%s", thread, reg)
}

// storeCount counts the stores targeting addr across all threads — the
// size of that address's coherence order, hence the maximum value any
// register over addr can hold.
func (t *Test) storeCount(addr int) int {
	n := 0
	for _, thread := range t.Threads {
		for _, op := range thread {
			if op.Kind == OStore && op.Addr == addr {
				n++
			}
		}
	}
	return n
}

// regAddr maps each qualified register to the address its op targets.
func (t *Test) regAddr() map[string]int {
	m := map[string]int{}
	for ti, thread := range t.Threads {
		for _, op := range thread {
			if op.Reg != "" {
				m[regName(ti, op.Reg)] = op.Addr
			}
		}
	}
	return m
}

// regKind maps each qualified register to its op kind.
func (t *Test) regKind() map[string]OpKind {
	m := map[string]OpKind{}
	for ti, thread := range t.Threads {
		for _, op := range thread {
			if op.Reg != "" {
				m[regName(ti, op.Reg)] = op.Kind
			}
		}
	}
	return m
}
