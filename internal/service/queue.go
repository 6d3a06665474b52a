package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"protogen/internal/jobstore"
)

// errDraining refuses submits once Shutdown has begun.
var errDraining = fmt.Errorf("server shutting down")

// errQueueFull reports a submit bounced off the queue-depth cap.
type errQueueFull int

func (e errQueueFull) Error() string { return fmt.Sprintf("job queue full (%d pending)", int(e)) }

// errStore reports a submit the store could not persist; accepting it
// anyway would promise durability the server cannot deliver.
type errStore struct{ err error }

func (e errStore) Error() string { return fmt.Sprintf("job store unavailable: %v", e.err) }

// job is one entry of the job table: the durable record plus the state
// that only matters while this process runs. Every field is guarded by
// the owning Server's mu.
type job struct {
	rec jobstore.Record
	req Request
	// progress is the latest snapshot, kept after terminal so clients
	// can still see how far a finished job got.
	progress *ProgressView
	// cancel aborts the running attempt; nil unless running.
	cancel context.CancelFunc
}

// replayLocked loads the store into the job table on boot. Queued
// records re-enter the queue in submission order. A running record is
// the orphan of a crash: its attempt started and never reported, so it
// is requeued with that attempt charged — a job that keeps crashing
// the process still dead-letters.
func (s *Server) replayLocked() error {
	recs, err := s.store.Load()
	if err != nil {
		return err
	}
	now := time.Now()
	for i := range recs {
		j := &job{rec: recs[i]}
		if len(j.rec.Request) > 0 {
			if err := json.Unmarshal(j.rec.Request, &j.req); err != nil {
				s.cfg.Warn("service: job %s: stored request unreadable: %v", j.rec.ID, err)
			}
		}
		s.jobs[j.rec.ID] = j
		s.order = append(s.order, j.rec.ID)
		s.counts[j.rec.State]++
		if n := numericID(j.rec.ID); n > s.nextID {
			s.nextID = n
		}
		switch {
		case j.rec.State == jobstore.StateQueued:
			s.queue = append(s.queue, j.rec.ID)
		case j.rec.State == jobstore.StateRunning:
			s.requeueLocked(j, fmt.Sprintf("attempt %d: interrupted by restart", j.rec.Attempt), true, now)
		case j.rec.State.Terminal():
			s.terminalQ = append(s.terminalQ, j.rec.ID)
		}
	}
	return nil
}

// numericID extracts N from "job-N" ids so a restarted server resumes
// numbering past everything it replayed.
func numericID(id string) int {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}

// signal wakes one idle worker without blocking: wake holds at most
// one token, and a worker that takes a job re-signals while the queue
// is non-empty, so every queued job finds a worker.
func (s *Server) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// setStateLocked moves a job between states, keeping the counts index
// and the terminal FIFO coherent. Monotonicity is the caller's
// contract: no terminal state is ever left.
func (s *Server) setStateLocked(j *job, st jobstore.State) {
	s.counts[j.rec.State]--
	j.rec.State = st
	s.counts[st]++
	if st.Terminal() {
		s.terminalQ = append(s.terminalQ, j.rec.ID)
		s.terminals++
	}
}

// putLocked persists a job's record. Holding mu across the write keeps
// the log in transition order. A store failure is warned and sticky in
// the store itself; the in-memory table stays authoritative and
// /healthz degrades.
func (s *Server) putLocked(j *job) {
	if err := s.store.Put(j.rec.Clone()); err != nil {
		s.cfg.Warn("service: persist %s: %v", j.rec.ID, err)
	}
}

// finishLocked records a terminal state with its finish time.
func (s *Server) finishLocked(j *job, st jobstore.State, now time.Time) {
	fin := now
	j.rec.Finished = &fin
	j.rec.Worker = ""
	s.setStateLocked(j, st)
	s.putLocked(j)
}

// requeueLocked sends a non-terminal attempt back to the tail of the
// queue, or to the dead-letter state once the budget is gone. cause
// lands on the failure chain; counted charges the attempt against
// MaxAttempts. Already-accepted work is never refused, so this ignores
// QueueDepth.
func (s *Server) requeueLocked(j *job, cause string, counted bool, now time.Time) {
	j.rec.Failures = append(j.rec.Failures, cause)
	j.rec.Updated = now
	switch {
	case j.rec.CancelRequested:
		// The client's cancel wins over any retry.
		j.rec.Canceled = true
		s.finishLocked(j, jobstore.StateCanceled, now)
	case counted && j.rec.Attempt >= s.cfg.MaxAttempts:
		j.rec.Error = cause
		s.finishLocked(j, jobstore.StateDead, now)
	default:
		j.rec.Worker = ""
		s.setStateLocked(j, jobstore.StateQueued)
		s.putLocked(j)
		s.queue = append(s.queue, j.rec.ID)
		s.signal()
	}
}

// submit persists the job durably and queues it. The 202 the client
// sees is only sent after the store accepted the record.
func (s *Server) submit(req Request) (JobView, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return JobView{}, errStore{err}
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, errDraining
	}
	if s.counts[jobstore.StateQueued] >= s.cfg.QueueDepth {
		return JobView{}, errQueueFull(s.cfg.QueueDepth)
	}
	j := &job{req: req, rec: jobstore.Record{
		ID:        fmt.Sprintf("job-%d", s.nextID+1),
		Kind:      req.Kind,
		Request:   raw,
		State:     jobstore.StateQueued,
		Submitted: now,
		Updated:   now,
	}}
	if err := s.store.Put(j.rec.Clone()); err != nil {
		return JobView{}, errStore{err}
	}
	s.nextID++
	s.jobs[j.rec.ID] = j
	s.order = append(s.order, j.rec.ID)
	s.counts[jobstore.StateQueued]++
	s.queue = append(s.queue, j.rec.ID)
	s.evictLocked()
	s.signal()
	return s.viewLocked(j), nil
}

// evictLocked drops the oldest terminal jobs while the record count
// exceeds MaxJobs — O(1) per evicted job via the terminal FIFO.
// Queued and running jobs are never evicted.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.MaxJobs && len(s.terminalQ) > 0 {
		id := s.terminalQ[0]
		s.terminalQ = s.terminalQ[1:]
		if j, ok := s.jobs[id]; ok { // absent: freed earlier by DELETE
			s.removeLocked(j)
		}
	}
	if len(s.order) > 2*len(s.jobs)+16 {
		kept := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
}

// removeLocked deletes a terminal job from the table and the store.
func (s *Server) removeLocked(j *job) {
	if err := s.store.Delete(j.rec.ID); err != nil {
		s.cfg.Warn("service: delete %s: %v", j.rec.ID, err)
	}
	s.counts[j.rec.State]--
	delete(s.jobs, j.rec.ID)
}

// viewLocked renders a job in the wire form.
func (s *Server) viewLocked(j *job) JobView {
	rec := &j.rec
	v := JobView{
		ID:          rec.ID,
		Kind:        rec.Kind,
		Status:      Status(rec.State),
		Attempt:     rec.Attempt,
		Worker:      rec.Worker,
		Submitted:   rec.Submitted,
		Summary:     rec.Summary,
		Cached:      rec.Cached,
		Canceled:    rec.Canceled,
		Error:       rec.Error,
		Failures:    append([]string(nil), rec.Failures...),
		CorpusFiles: append([]string(nil), rec.CorpusFiles...),
	}
	if rec.Started != nil {
		ts := *rec.Started
		v.Started = &ts
	}
	if rec.Finished != nil {
		ts := *rec.Finished
		v.Finished = &ts
	}
	if rec.OK != nil {
		ok := *rec.OK
		v.OK = &ok
	}
	if j.progress != nil {
		pc := *j.progress
		v.Progress = &pc
	}
	return v
}

// view returns one job's wire form.
func (s *Server) view(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// list returns every live job in first-submission order.
func (s *Server) list() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	views := make([]JobView, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			views = append(views, s.viewLocked(j))
		}
	}
	return views
}

// result returns the terminal payload for GET /jobs/{id}/result.
func (s *Server) result(id string) (payload any, status int, found bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, 0, false
	}
	rec := &j.rec
	switch {
	case len(rec.Result) > 0:
		return append(json.RawMessage(nil), rec.Result...), 200, true
	case rec.State == jobstore.StateFailed || rec.State == jobstore.StateDead:
		body := map[string]any{"error": rec.Error}
		if len(rec.Failures) > 0 {
			body["failures"] = append([]string(nil), rec.Failures...)
		}
		return body, 200, true
	default:
		return map[string]string{
			"error": fmt.Sprintf("job %s is %s; no result yet", rec.ID, rec.State),
		}, 409, true
	}
}

// cancel implements DELETE /jobs/{id}: a queued job resolves to
// canceled at once (its queue slot is skipped when popped), a running
// job records the cancel intent durably and has its attempt's context
// cancelled, and a terminal job is freed.
func (s *Server) cancel(id string) (view JobView, deleted, found bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false, false
	}
	switch j.rec.State {
	case jobstore.StateQueued:
		j.rec.Canceled = true
		j.rec.CancelRequested = true
		j.rec.Updated = now
		s.finishLocked(j, jobstore.StateCanceled, now)
	case jobstore.StateRunning:
		if !j.rec.CancelRequested {
			j.rec.CancelRequested = true
			j.rec.Updated = now
			s.putLocked(j)
		}
		j.cancel()
	default:
		view = s.viewLocked(j)
		s.removeLocked(j)
		return view, true, true
	}
	return s.viewLocked(j), false, true
}

// work is one worker goroutine: it runs queued jobs one at a time
// until Shutdown, sleeping on the wake channel while the queue is
// empty.
func (s *Server) work(name string) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.live--
		s.mu.Unlock()
	}()
	for {
		if j, attempt, ctx := s.next(name); j != nil {
			s.execute(ctx, j, attempt)
			continue
		}
		select {
		case <-s.wake:
		case <-s.stop:
			return
		}
	}
}

// next pops the queue head and starts its attempt: the job becomes
// running under worker name, durably, with a cancellable context. It
// returns a nil job when the queue is empty or the server is draining.
func (s *Server) next(name string) (*job, int, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && len(s.queue) > 0 {
		id := s.queue[0]
		s.queue = s.queue[1:]
		j, ok := s.jobs[id]
		if !ok || j.rec.State != jobstore.StateQueued {
			continue // canceled or freed while queued
		}
		if len(s.queue) > 0 {
			s.signal()
		}
		now := time.Now()
		j.rec.Attempt++
		j.rec.Worker = name
		j.rec.Updated = now
		if j.rec.Started == nil {
			ts := now
			j.rec.Started = &ts
		}
		s.setStateLocked(j, jobstore.StateRunning)
		s.putLocked(j)
		ctx, cancel := context.WithCancel(s.runCtx)
		j.cancel = cancel
		return j, j.rec.Attempt, ctx
	}
	return nil, 0, nil
}

// execute runs one attempt and applies its outcome. Progress goes
// straight into the job table. An outcome is applied only while the
// job is still running this attempt: once a shutdown deadline has
// released the job, the abandoned attempt's report is discarded, so
// every job sees exactly one terminal transition.
func (s *Server) execute(ctx context.Context, j *job, attempt int) {
	current := func() bool { return j.rec.State == jobstore.StateRunning && j.rec.Attempt == attempt }
	out := s.runExecutor(ctx, j.req, func(v ProgressView) {
		s.mu.Lock()
		if current() {
			j.progress = &v
		}
		s.mu.Unlock()
	})
	var result json.RawMessage
	if out.Result != nil {
		raw, err := json.Marshal(out.Result)
		if err != nil {
			out = failed(fmt.Errorf("encode result: %w", err))
		} else {
			result = raw
		}
	}

	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel()
	j.cancel = nil
	if !current() {
		return
	}
	rec := &j.rec
	rec.Updated = now
	errText := ""
	if out.Err != nil {
		errText = out.Err.Error()
	}
	switch {
	case out.Status == StatusFailed && out.Transient:
		s.requeueLocked(j, fmt.Sprintf("attempt %d: %s", attempt, errText), true, now)
	case out.Status == StatusFailed:
		rec.Summary = out.Summary
		rec.Error = errText
		rec.Failures = append(rec.Failures, fmt.Sprintf("attempt %d: %s", attempt, errText))
		s.finishLocked(j, jobstore.StateFailed, now)
	default:
		rec.Summary = out.Summary
		rec.OK = out.OK
		rec.Error = errText
		rec.Cached = out.Cached
		rec.Canceled = out.Canceled || out.Status == StatusCanceled
		rec.Result = result
		rec.CorpusFiles = out.CorpusFiles
		if out.Status == StatusCanceled {
			s.finishLocked(j, jobstore.StateCanceled, now)
		} else {
			s.finishLocked(j, jobstore.StateDone, now)
		}
	}
}

// runExecutor invokes the executor with panic isolation: a panicking
// job becomes a transient failure of this attempt, not a dead worker.
func (s *Server) runExecutor(ctx context.Context, req Request, onProgress func(ProgressView)) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Status: StatusFailed, Err: fmt.Errorf("worker panic: %v", r), Transient: true}
		}
	}()
	return s.exec(ctx, req, onProgress)
}

// releaseRunningLocked requeues every running job — the shutdown
// deadline path: their executors were abandoned mid-flight, and a
// restarted server must re-run them rather than lose them. The release
// rides the failure chain but burns no attempt: shutting the server
// down is not the job's fault.
func (s *Server) releaseRunningLocked(now time.Time) {
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok && j.rec.State == jobstore.StateRunning {
			s.requeueLocked(j, fmt.Sprintf("attempt %d: released: shutdown deadline", j.rec.Attempt), false, now)
		}
	}
}
