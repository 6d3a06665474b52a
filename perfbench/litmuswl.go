package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"protogen/internal/ir"
	"protogen/internal/litmus"
	"protogen/internal/protocols"
)

// litmusPins are the exhaustive catalog's explored state totals per
// registry protocol (non-stalling, the protocol's default axiom).
var litmusPins = map[string]int{
	"MSI":           54_422,
	"MESI":          53_095,
	"MOSI":          50_488,
	"MSI_Upgrade":   54_426,
	"MSI_Unordered": 55_181,
	"TSO_CC":        1_759,
}

// litmusParallelism is litmus.Options.Parallelism: tests in flight.
const litmusParallelism = 2

type litmusSubject struct {
	name string
	p    *ir.Protocol
	ax   litmus.Axiom
}

// litmusBench is protolitmus -all: the whole catalog, exhaustively,
// over every registry protocol.
type litmusBench struct {
	subjects []litmusSubject
	tests    []*litmus.Test
}

func setupLitmus(_ int64, _ any, tr *tracer) (instance, error) {
	b := &litmusBench{tests: litmus.Catalog()}
	for _, e := range protocols.All {
		p, err := generate(e.Name, "nonstalling", tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		b.subjects = append(b.subjects, litmusSubject{name: e.Name, p: p, ax: litmus.DefaultAxiom(p)})
	}
	return b, nil
}

func (b *litmusBench) close() error { return nil }

// checkLitmus holds one protocol's results to the oracle: no failing
// test (forbidden outcome, wedged configuration, error), every
// exploration complete, and the pinned state total.
func checkLitmus(name string, results []litmus.Result) (states int, err error) {
	for i := range results {
		r := &results[i]
		states += r.States
		if r.Failed() || !r.Complete {
			return states, fmt.Errorf("%s %s: failed %t complete %t forbidden %v", name, r.Test, r.Failed(), r.Complete, r.Forbidden)
		}
	}
	if want, ok := litmusPins[name]; !ok || states != want {
		return states, fmt.Errorf("%s: %d litmus states, pinned %d", name, states, want)
	}
	return states, nil
}

func (b *litmusBench) measure(budget time.Duration, tr *tracer) *sample {
	s := &sample{}
	ctx := context.Background()
	s.lat, s.wall = loop(budget, func() {
		for _, sub := range b.subjects {
			var results []litmus.Result
			if tr == nil {
				rep := litmus.RunSuite(ctx, sub.p, b.tests, sub.ax,
					litmus.Options{Exhaustive: true, Parallelism: litmusParallelism}, nil)
				results = rep.Results
			} else {
				results = b.spannedSuite(ctx, sub, tr)
			}
			s.attempted++
			states, err := checkLitmus(sub.name, results)
			s.states += int64(states)
			if err != nil {
				s.fail("%v", err)
			}
			tr.add("litmus.states."+sub.name, float64(states))
		}
	})
	s.extra = append(s.extra, namedValue{"litmus_s", median(s.lat) / 1000, "s", len(s.lat)})
	return s
}

// spannedSuite is litmus.RunSuite with a span around every RunTest
// call: the same tests on litmusParallelism goroutines.
func (b *litmusBench) spannedSuite(ctx context.Context, sub litmusSubject, tr *tracer) []litmus.Result {
	results := make([]litmus.Result, len(b.tests))
	next := make(chan int, len(b.tests)) // holds every test index
	for i := range b.tests {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < litmusParallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := time.Now()
				results[i] = litmus.RunTest(ctx, sub.p, b.tests[i], sub.ax, litmus.Options{Exhaustive: true})
				tr.since("litmus.test_ms", t)
			}
		}()
	}
	wg.Wait()
	return results
}
