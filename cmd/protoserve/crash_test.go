package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"protogen/internal/jobstore"
	"protogen/internal/service"
)

// childEnv switches the test binary into serving mode: TestMain then
// runs main on the binary's arguments, so a test can start protoserve
// as a real process and SIGKILL it.
const childEnv = "PROTOSERVE_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startServer runs protoserve in a child process on storeDir and
// returns its base URL once it is listening, plus a kill function that
// SIGKILLs the process and reaps it. Test cleanup calls kill too.
func startServer(t *testing.T, storeDir string) (base string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-store", storeDir, "-workers", "1", "-parallel", "1")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "protoserve listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			_ = cmd.Process.Kill() // fails only if the process is already gone
			<-drained              // the pipe reaches EOF once the process is dead
			_ = cmd.Wait()         // exit status is the SIGKILL
		})
	}
	t.Cleanup(kill)
	select {
	case addr := <-addrc:
		return "http://" + addr, kill
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
		return "", nil
	}
}

// listJobs fetches GET /jobs keyed by id.
func listJobs(t *testing.T, base string) map[string]service.JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []service.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	got := map[string]service.JobView{}
	for _, v := range list.Jobs {
		got[v.ID] = v
	}
	return got
}

// TestRealCrashRestart SIGKILLs a protoserve process while a job is
// running and restarts it on the same WAL: no acknowledged job is
// lost, jobs that were terminal at the kill keep their recorded
// outcome (nothing re-runs or settles twice), the interrupted job
// re-runs with its attempt charged, and every job ends done.
func TestRealCrashRestart(t *testing.T) {
	dir := t.TempDir()
	base, kill := startServer(t, dir)

	const jobs = 5
	var ids []string
	for i := 0; i < jobs; i++ {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(
			`{"kind":"verify","protocol":"MSI","mode":"nonstalling","caches":2,"no_cache":true}`))
		if err != nil {
			t.Fatal(err)
		}
		var v service.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, %v", i, resp.StatusCode, err)
		}
		ids = append(ids, v.ID)
	}

	// Kill once a job has finished and another has only just started,
	// so the kill lands mid-run rather than between jobs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never saw a finished job next to a freshly started one")
		}
		done, fresh := 0, false
		for _, v := range listJobs(t, base) {
			if v.Status == service.StatusDone {
				done++
			}
			if v.Status == service.StatusRunning && v.Started != nil && time.Since(*v.Started) < 20*time.Millisecond {
				fresh = true
			}
		}
		if done > 0 && fresh {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill()

	// The WAL as the dead process left it is the ground truth.
	w, err := jobstore.OpenWAL(dir, jobstore.WALOptions{CompactFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	before, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(before) != jobs {
		t.Fatalf("WAL holds %d jobs after the kill, want %d", len(before), jobs)
	}
	interrupted := 0
	for _, rec := range before {
		if rec.State == jobstore.StateRunning {
			interrupted++
		}
	}
	if interrupted != 1 {
		t.Fatalf("%d jobs running at the kill, want 1", interrupted)
	}

	base2, _ := startServer(t, dir)
	deadline = time.Now().Add(30 * time.Second)
	var after map[string]service.JobView
	for settled := false; !settled; {
		if time.Now().After(deadline) {
			t.Fatalf("jobs not settled after restart: %+v", after)
		}
		time.Sleep(10 * time.Millisecond)
		after = listJobs(t, base2)
		settled = true
		for _, id := range ids {
			v, ok := after[id]
			if !ok {
				t.Fatalf("job %s lost across the crash", id)
			}
			if v.Status == service.StatusQueued || v.Status == service.StatusRunning {
				settled = false
			}
		}
	}

	for _, rec := range before {
		v := after[rec.ID]
		if v.Status != service.StatusDone || v.OK == nil || !*v.OK {
			t.Errorf("job %s: %s (%s), want done", rec.ID, v.Status, v.Error)
		}
		switch rec.State {
		case jobstore.StateDone:
			if v.Finished == nil || !v.Finished.Equal(*rec.Finished) || v.Summary != rec.Summary || v.Attempt != rec.Attempt {
				t.Errorf("job %s finished before the kill but changed: %+v, was %+v", rec.ID, v, rec)
			}
		case jobstore.StateRunning:
			want := fmt.Sprintf("attempt %d: interrupted by restart", rec.Attempt)
			if v.Attempt != rec.Attempt+1 || len(v.Failures) != 1 || v.Failures[0] != want {
				t.Errorf("interrupted job %s: attempt %d failures %v, want attempt %d after %q",
					rec.ID, v.Attempt, v.Failures, rec.Attempt+1, want)
			}
		}
	}
}
