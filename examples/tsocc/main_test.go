package main

import (
	"strings"
	"testing"
)

// TestRun pins the §VI-D demo: every assertion the example makes
// (deadlock freedom, no oracle failure, MP stale read and SB
// relaxation present, MP+acq and CoRR unrelaxed) must keep holding, and the narrative lines
// the README quotes must keep appearing.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("tsocc demo failed: %v\noutput so far:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"generated TSO-CC:",
		"deadlock freedom:",
		"litmus oracle under the weak axiom",
		"Forbidden outcomes: proven absent. Weak-axiom relaxations (MP stale read, SB): present.",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output is missing %q:\n%s", want, got)
		}
	}
}
