package main

import (
	"strings"
	"testing"
)

// TestRunCheapExperiments: the pure-generation experiments and the
// sub-second §VI-D check render their artifacts through the real CLI
// path (e-d returns an error on any litmus-oracle failure).
func TestRunCheapExperiments(t *testing.T) {
	cases := []struct {
		id   string
		want string
	}{
		{"table1", "Table I"},
		{"table5", "Table V"},
		{"table6", "Table VI"},
		{"e-d", "held to the weak axiom"},
		{"e-e", "generation"},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := run([]string{"-run", c.id}, &out); err != nil {
			t.Errorf("-run %s: %v", c.id, err)
			continue
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("-run %s: output lacks %q", c.id, c.want)
		}
	}
}

// TestRunUnknownExperiment: dispatch errors surface as errors.
func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "nope"}, &out); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestRunFuzzExperiment: the differential campaign experiment passes at
// smoke scale.
func TestRunFuzzExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 16-seed campaign")
	}
	var out strings.Builder
	if err := run([]string{"-run", "fuzz"}, &out); err != nil {
		t.Fatalf("fuzz experiment: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "16 pass, 0 fail") {
		t.Errorf("campaign summary missing:\n%s", s)
	}
	if !strings.Contains(s, "shrunk to") {
		t.Errorf("planted-bug demonstration missing:\n%s", s)
	}
}
