package bus_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"protogen/internal/bus"
	"protogen/internal/bus/bustest"
)

// TestMemConformance runs the full conformance suite over the
// in-memory transport.
func TestMemConformance(t *testing.T) {
	bustest.TestAll(t, func(t *testing.T) bus.Bus { return bus.NewMem() })
}

// TestMemSmallBufferConformance re-runs the suite with a tiny
// per-subscription buffer, so the backpressure path (blocking sends)
// is exercised throughout.
func TestMemSmallBufferConformance(t *testing.T) {
	bustest.TestAll(t, func(t *testing.T) bus.Bus { return bus.NewMem(bus.WithBuffer(1)) })
}

// TestTypedDecodeErrors: a payload that does not decode is dropped and
// surfaced to the error hook, never the handler.
func TestTypedDecodeErrors(t *testing.T) {
	m := bus.NewMem()
	defer m.Close()
	type payload struct {
		N int `json:"n"`
	}
	var mu sync.Mutex
	var got []int
	var errs int
	sub, err := bus.Subscribe(context.Background(), m, "typed", func(p payload) {
		mu.Lock()
		got = append(got, p.N)
		mu.Unlock()
	}, func(error) {
		mu.Lock()
		errs++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	if err := m.Publish(context.Background(), "typed", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(context.Background(), m, "typed", payload{N: 9}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := len(got) == 1 && errs == 1
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("got=%v errs=%d", got, errs)
		}
		time.Sleep(time.Millisecond)
	}
	if got[0] != 9 {
		t.Fatalf("decoded %v", got)
	}
}
