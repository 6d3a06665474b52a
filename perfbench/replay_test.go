package main

import (
	"testing"

	"protogen/internal/verify"
)

// The replay driver walks the same state space the checker explores:
// on 2-cache non-stalling MSI it finds the checker's 11,963 states and
// 28,281 edges.
func TestReplayMatchesChecker(t *testing.T) {
	p, err := generate("MSI", "nonstalling", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := verify.QuickConfig()
	st, err := replay(p, cfg, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	r := verify.Check(p, cfg)
	if st.states != 11_963 || r.States != st.states || r.Edges != st.edges {
		t.Errorf("replay %d states / %d edges, checker %d / %d, want 11963 states", st.states, st.edges, r.States, r.Edges)
	}
	if len(st.clone) != st.edges || len(st.apply) != st.edges || len(st.canonical) != st.edges ||
		len(st.fingerprint) != st.edges || len(st.rules) != st.states {
		t.Errorf("timed %d clones, %d applies, %d canonicals, %d fingerprints over %d edges; %d rule scans over %d states",
			len(st.clone), len(st.apply), len(st.canonical), len(st.fingerprint), st.edges, len(st.rules), st.states)
	}
	if want := st.edges + st.states - 1; len(st.probe) != want {
		t.Errorf("timed %d store probes, want a lookup per edge and an insert per new state (%d)", len(st.probe), want)
	}
}

func TestReplayStopsAtCap(t *testing.T) {
	p, err := generate("MSI", "nonstalling", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replay(p, verify.QuickConfig(), 500, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.states != 500 || len(st.clone) != 0 {
		t.Errorf("capped untimed replay: %d states, %d timings; want 500 states, none timed", st.states, len(st.clone))
	}
}
