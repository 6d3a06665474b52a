package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"protogen/internal/fuzz"
	"protogen/internal/litmus"
	"protogen/internal/service"
	"protogen/internal/verify"
)

func TestCheckResultRejectsCorruption(t *testing.T) {
	good := &verify.Result{States: paperPin.states, Edges: paperPin.edges, Depth: paperPin.depth, Complete: true}
	if err := checkResult(good, paperPin); err != nil {
		t.Fatalf("pinned result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *verify.Result){
		"states":    func(r *verify.Result) { r.States++ },
		"edges":     func(r *verify.Result) { r.Edges-- },
		"depth":     func(r *verify.Result) { r.Depth = 67 },
		"capped":    func(r *verify.Result) { r.Complete = false },
		"violation": func(r *verify.Result) { r.Violations = []verify.Violation{{Kind: "SWMR"}} },
	} {
		r := *good
		corrupt(&r)
		if checkResult(&r, paperPin) == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
}

func TestCheckLitmusRejectsCorruption(t *testing.T) {
	results := func() []litmus.Result {
		return []litmus.Result{
			{Test: "MP", States: 54_000, Complete: true},
			{Test: "SB", States: 422, Complete: true},
		}
	}
	if _, err := checkLitmus("MSI", results()); err != nil {
		t.Fatalf("pinned total rejected: %v", err)
	}
	rs := results()
	rs[1].States++
	if _, err := checkLitmus("MSI", rs); err == nil {
		t.Error("wrong state total accepted")
	}
	rs = results()
	rs[0].Forbidden = []string{"r0=1 r1=0"}
	if _, err := checkLitmus("MSI", rs); err == nil {
		t.Error("forbidden outcome accepted")
	}
	rs = results()
	rs[0].Complete = false
	if _, err := checkLitmus("MSI", rs); err == nil {
		t.Error("incomplete exploration accepted")
	}
	if _, err := checkLitmus("NotARegistryProtocol", results()); err == nil {
		t.Error("unpinned protocol accepted")
	}
}

func TestCheckVerdictRejectsCorruption(t *testing.T) {
	want := checkPin{states: 11_963, edges: 28_281, depth: 46, complete: true}
	b := &serviceBench{oracle: &serviceOracle{
		verify: map[verifyKey]checkPin{{"MSI", "nonstalling"}: want},
		lint:   map[string]lintVerdict{"MSI": {summary: "lint: clean", clean: true}},
	}}
	yes := true
	verifyReq := service.Request{Kind: "verify", Protocol: "MSI", Mode: "nonstalling", Caches: 2}
	check := func(req service.Request, view service.JobView, r *verify.Result) error {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b.checkVerdict(req, &jobOutcome{view: view}, raw)
	}
	good := &verify.Result{States: want.states, Edges: want.edges, Depth: want.depth, Complete: true}
	if err := check(verifyReq, service.JobView{OK: &yes}, good); err != nil {
		t.Fatalf("matching verify rejected: %v", err)
	}
	bad := *good
	bad.Edges++
	if check(verifyReq, service.JobView{OK: &yes}, &bad) == nil {
		t.Error("verify with a wrong edge count accepted")
	}
	no := false
	if check(verifyReq, service.JobView{OK: &no}, good) == nil {
		t.Error("verify with a wrong verdict accepted")
	}
	lintReq := service.Request{Kind: "lint", Protocol: "MSI"}
	if err := check(lintReq, service.JobView{OK: &yes, Summary: "lint: clean"}, good); err != nil {
		t.Fatalf("matching lint rejected: %v", err)
	}
	if check(lintReq, service.JobView{OK: &yes, Summary: "lint: 1 warning"}, good) == nil {
		t.Error("lint with a different summary accepted")
	}
}

func TestFuzzReplayRejectsWrongPin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign seed")
	}
	pin := fuzzPins[1] // an FZ_MI seed: the cheapest family
	if _, err := replayFuzzSeed(pin.seed, pin.modes, nil); err != nil {
		t.Fatalf("pinned seed %d: %v", pin.seed, err)
	}
	corrupt := strings.Replace(pin.modes, "/", "1/", 1)
	if _, err := replayFuzzSeed(pin.seed, corrupt, nil); err == nil {
		t.Errorf("seed %d accepted corrupted pin %q", pin.seed, corrupt)
	}
}

func TestFuzzPinsCoverEveryFamily(t *testing.T) {
	count := map[string]int{}
	for _, p := range fuzzPins {
		shape, _, _ := fuzz.SpecForSeed(p.seed, fuzz.Shapes())
		if shape.Name() != p.family {
			t.Errorf("seed %d is family %s, pinned as %s", p.seed, shape.Name(), p.family)
		}
		count[p.family]++
	}
	for _, shape := range fuzz.Shapes() {
		if count[shape.Name()] != pinsPerFamily {
			t.Errorf("family %s has %d pinned seeds, want %d", shape.Name(), count[shape.Name()], pinsPerFamily)
		}
	}
}

// The fuzz seed order keeps the family mix of every prefix the same for
// every workload seed, and changes the seeds themselves.
func TestFuzzSeedOrderIsStratified(t *testing.T) {
	a, err := setupFuzz(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupFuzz(2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.(*fuzzBench).seeds, b.(*fuzzBench).seeds
	if len(sa) != len(fuzzPins) || len(sb) != len(fuzzPins) {
		t.Fatalf("seed orders hold %d and %d seeds, want %d", len(sa), len(sb), len(fuzzPins))
	}
	differ := false
	for i := range sa {
		fa, _, _ := fuzz.SpecForSeed(sa[i], fuzz.Shapes())
		fb, _, _ := fuzz.SpecForSeed(sb[i], fuzz.Shapes())
		if fa.Name() != fb.Name() {
			t.Fatalf("position %d: family %s vs %s", i, fa.Name(), fb.Name())
		}
		differ = differ || sa[i] != sb[i]
	}
	if !differ {
		t.Error("workload seeds 1 and 2 ran the same fuzz seeds")
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		E2E       []struct {
			Name, Unit string
		} `json:"end_to_end"`
		Layer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.E2E, e2eMetrics)
	same("per_layer", bj.Layer, layerMetrics)
}
