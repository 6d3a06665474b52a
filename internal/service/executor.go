package service

import (
	"context"
	"fmt"
	"time"

	"protogen"
)

// Outcome is one execution attempt's result, produced by an Executor.
type Outcome struct {
	Status  Status // StatusDone, StatusFailed or StatusCanceled
	Summary string
	OK      *bool
	Err     error
	// Transient marks a failure as retry-eligible (crash-shaped:
	// injected faults, panics). Deterministic executor failures — a bad
	// spec, an engine error that would recur — leave it false and the
	// job fails terminally on the first attempt.
	Transient   bool
	Cached      bool
	Canceled    bool
	Result      any
	CorpusFiles []string
}

// Executor runs one job attempt. It must honor ctx cancellation (a
// client cancel or Shutdown) and may stream progress snapshots through
// onProgress (never nil).
type Executor func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome

// engineExecutor adapts the shared Engine onto the Executor contract:
// one call runs one attempt of one job kind to completion.
// Engine failures are deterministic — a bad spec or an engine error
// recurs on every attempt — so every failure here is permanent
// (Transient false) and the job fails terminally without burning the
// retry budget. Transient failures enter the system only from
// crash-shaped events: executor panics, restart interruptions and
// injected test faults.
func engineExecutor(eng *protogen.Engine, corpusDir string) Executor {
	return func(ctx context.Context, req Request, onProgress func(ProgressView)) Outcome {
		sink := func(ev protogen.ProgressEvent) { onProgress(*viewOf(ev, time.Now())) }
		switch req.Kind {
		case "verify":
			return execVerify(ctx, eng, req, sink)
		case "fuzz":
			return execFuzz(ctx, eng, req, sink, corpusDir)
		case "lint":
			return execLint(ctx, eng, req)
		case "simulate":
			return execSimulate(ctx, eng, req, sink)
		case "litmus":
			return execLitmus(ctx, eng, req, sink)
		}
		return failed(fmt.Errorf("unknown job kind %q", req.Kind))
	}
}

// failed is a permanent (non-retryable) failure outcome.
func failed(err error) Outcome {
	return Outcome{Status: StatusFailed, Err: err}
}

// doneOutcome maps a completed engine run onto done or canceled.
func doneOutcome(summary string, ok bool, canceled bool, result any) Outcome {
	ok = ok && !canceled
	out := Outcome{
		Status:   StatusDone,
		Summary:  summary,
		OK:       &ok,
		Canceled: canceled,
		Result:   result,
	}
	if canceled {
		out.Status = StatusCanceled
	}
	return out
}

func execVerify(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	res, err := eng.Verify(ctx, protogen.VerifyJob{
		Spec:         spec,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Config:       verifyConfigFor(req),
		NoCache:      req.NoCache,
		OnProgress:   sink,
	})
	if err == nil && res == nil {
		err = fmt.Errorf("verify returned no result")
	}
	if err != nil {
		return failed(err)
	}
	out := doneOutcome(res.String(), res.OK(), res.Canceled, res)
	out.Cached = res.Cached
	return out
}

func execFuzz(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc, corpusDir string) Outcome {
	cfg := protogen.DefaultFuzzConfig()
	cfg.Families = req.Families
	if req.Caches > 0 {
		cfg.Caches = req.Caches
	}
	if req.MaxStates > 0 {
		cfg.MaxStates = req.MaxStates
	}
	if req.SimSteps != nil {
		cfg.SimSteps = *req.SimSteps
	}
	if req.Shrink != nil {
		cfg.Shrink = *req.Shrink
	}
	rep, err := eng.Fuzz(ctx, protogen.FuzzJob{
		First: req.First, Last: req.Last,
		Config:     &cfg,
		OnProgress: sink,
	})
	if err != nil {
		return failed(err)
	}
	out := doneOutcome(rep.Summary(), rep.Fail == 0, rep.Canceled, rep)
	out.CorpusFiles = sinkCorpus(corpusDir, rep)
	return out
}

func execLint(ctx context.Context, eng *protogen.Engine, req Request) Outcome {
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	lj := protogen.LintJob{Spec: spec, Codes: req.Codes}
	switch {
	case req.SpecOnly:
		lj.Modes = []string{}
	case req.Mode != "":
		lj.Modes = []string{req.Mode}
	}
	res, err := eng.Lint(ctx, lj)
	if err != nil {
		return failed(err)
	}
	return doneOutcome(res.Summary(), res.Clean(), false, res)
}

func execSimulate(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	var wl protogen.Workload
	for _, cand := range protogen.StandardWorkloads() {
		if cand.Name() == req.Workload {
			wl = cand
		}
	}
	if wl == nil {
		return failed(fmt.Errorf("unknown workload %q", req.Workload))
	}
	caches := req.Caches
	if caches <= 0 {
		caches = 3
	}
	steps := req.Steps
	if steps <= 0 {
		steps = 50_000
	}
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	st, err := eng.Simulate(ctx, protogen.SimulateJob{
		Spec:         spec,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Config: protogen.SimConfig{
			Caches: caches, Steps: steps, Seed: req.Seed, Workload: wl,
		},
		OnProgress: sink,
	})
	if err != nil {
		return failed(err)
	}
	return doneOutcome(st.String(), st.SCViolations == 0, st.Canceled, &st)
}

func execLitmus(ctx context.Context, eng *protogen.Engine, req Request, sink protogen.ProgressFunc) Outcome {
	spec, err := subjectSpec(req)
	if err != nil {
		return failed(err)
	}
	rep, err := eng.Litmus(ctx, protogen.LitmusJob{
		Spec:         spec,
		Mode:         req.Mode,
		PendingLimit: req.Limit,
		Tests:        req.Tests,
		Axiom:        req.Axiom,
		Exhaustive:   req.Exhaustive,
		Runs:         req.Runs,
		Seed:         req.Seed,
		Caches:       req.Caches,
		MaxStates:    req.MaxStates,
		OnProgress:   sink,
	})
	if err != nil {
		return failed(err)
	}
	return doneOutcome(rep.Summary(), len(rep.Failures()) == 0, rep.Canceled, rep)
}

// subjectSpec resolves the request's subject: a registry name or inline
// source.
func subjectSpec(req Request) (*protogen.Spec, error) {
	if req.Source != "" {
		return protogen.Parse(req.Source)
	}
	return protogen.LoadSpec(req.Protocol, "")
}

// verifyConfigFor maps request tuning onto a checker config, leaving
// nil when the request carries no overrides so the engine's defaults
// apply untouched.
func verifyConfigFor(req Request) *protogen.VerifyConfig {
	if req.Caches == 0 && req.MaxStates == 0 && !req.Fingerprint && !req.Reduce {
		return nil
	}
	cfg := protogen.DefaultVerifyConfig()
	if req.Caches > 0 {
		cfg.Caches = req.Caches
	}
	if req.MaxStates > 0 {
		cfg.MaxStates = req.MaxStates
	}
	cfg.Fingerprint = req.Fingerprint
	cfg.Reduce = req.Reduce
	return &cfg
}

// sinkCorpus writes a failing campaign's minimized reproducers into the
// corpus directory, returning the files written.
func sinkCorpus(corpusDir string, rep *protogen.FuzzReport) []string {
	if corpusDir == "" {
		return nil
	}
	var files []string
	for i := range rep.Specs {
		r := &rep.Specs[i]
		if r.Minimized == "" {
			continue
		}
		txns, _ := protogen.FuzzTxnCount(r.Minimized)
		path, err := protogen.WriteFuzzCorpusEntry(corpusDir, protogen.FuzzCorpusEntry{
			Family: r.Family, Seed: r.Seed, SimSeed: r.SimSeed,
			Expect: r.Failure, Txns: txns, Source: r.Minimized,
		})
		if err != nil {
			continue // the report still carries the reproducer inline
		}
		files = append(files, path)
	}
	return files
}
