// Command tsocc demonstrates TSO-CC (paper §VI-D): a consistency-directed protocol with no sharer
// tracking — Shared copies go stale until an acquire self-invalidates
// them, so the litmus oracle holds it to the weak axiom, not to TSO.
// ProtoGen generates its concurrent form; the exhaustive litmus oracle
// stands in for the Banks et al. TSO verification. The demo's
// assertions are pinned by main_test.go, so this example doubles as a
// regression test for the §VI-D contract.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"protogen"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	p, err := protogen.GenerateSource(protogen.BuiltinTSOCC, protogen.NonStalling())
	if err != nil {
		return err
	}
	cs, ct, _ := p.Cache.Counts()
	fmt.Fprintf(stdout, "generated TSO-CC: %d cache states, %d transitions\n\n", cs, ct)

	// Deadlock freedom via the model checker (SWMR is broken by design).
	cfg := protogen.QuickVerifyConfig()
	cfg.CheckSWMR = false
	cfg.CheckValues = false
	res := protogen.Verify(p, cfg)
	fmt.Fprintln(stdout, "deadlock freedom:", res)
	if !res.OK() {
		return fmt.Errorf("TSO-CC deadlock-freedom check failed: %s", res)
	}

	// The §VI-D litmus suite through the exact oracle: every schedule is
	// enumerated (so an absent forbidden outcome is proven absent) and
	// 400 randomized schedules per test must land inside that set.
	tests, err := protogen.LitmusTestsByName([]string{"MP", "MP+acq", "SB", "CoRR"})
	if err != nil {
		return err
	}
	ax := protogen.DefaultLitmusAxiom(p)
	fmt.Fprintf(stdout, "\nlitmus oracle under the %s axiom (exhaustive + 400 randomized schedules each):\n", ax)
	rep := protogen.RunLitmusOracle(p, tests, ax, protogen.LitmusOptions{Exhaustive: true, Runs: 400, Seed: 11})
	for _, r := range rep.Results {
		fmt.Fprintf(stdout, "  %-7s %d states, %d outcomes, forbidden=%v relaxed=%v\n",
			r.Test, r.States, len(r.Outcomes), r.Forbidden, r.Relaxed)
		if r.Failed() || !r.Complete {
			return fmt.Errorf("%s: oracle failure (complete=%v forbidden=%v stuck=%v err=%q)",
				r.Test, r.Complete, r.Forbidden, r.Stuck, r.Err)
		}
		// MP's stale read and SB's store buffering are the relaxations
		// TSO-CC exists for; MP+acq and CoRR must stay SC.
		if wantRelax := r.Test == "MP" || r.Test == "SB"; wantRelax != (len(r.Relaxed) > 0) {
			return fmt.Errorf("%s: relaxed=%v, want relaxation present=%v", r.Test, r.Relaxed, wantRelax)
		}
	}
	fmt.Fprintln(stdout, "\nForbidden outcomes: proven absent. Weak-axiom relaxations (MP stale read, SB): present.")
	return nil
}
