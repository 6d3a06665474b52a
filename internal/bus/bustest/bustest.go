// Package bustest is the transport conformance harness: TestAll runs
// one suite over any bus.Bus implementation, asserting the universal
// delivery properties unconditionally (payload integrity, queue-group
// routing, unsubscribe and close semantics, cancellation) and the
// stronger ones — exactly-once, completeness, ordering — only where
// the transport's declared Guarantees claim them.
package bustest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"protogen/internal/bus"
)

// Factory builds a fresh transport for one subtest; the harness closes
// it when the subtest ends.
type Factory func(t *testing.T) bus.Bus

// TestAll runs the conformance suite against the factory's transport.
func TestAll(t *testing.T, factory Factory) {
	t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, factory) })
	t.Run("FanOut", func(t *testing.T) { testFanOut(t, factory) })
	t.Run("QueueGroup", func(t *testing.T) { testQueueGroup(t, factory) })
	t.Run("QueueRebalance", func(t *testing.T) { testQueueRebalance(t, factory) })
	t.Run("Ordered", func(t *testing.T) { testOrdered(t, factory) })
	t.Run("Unsubscribe", func(t *testing.T) { testUnsubscribe(t, factory) })
	t.Run("Close", func(t *testing.T) { testClose(t, factory) })
	t.Run("ConcurrentPublishers", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("CanceledContext", func(t *testing.T) { testCanceledContext(t, factory) })
}

// open builds the transport and schedules its teardown.
func open(t *testing.T, factory Factory) bus.Bus {
	t.Helper()
	b := factory(t)
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return b
}

// wire is the suite's typed payload; Seq identifies a logical message
// across transport-level duplication.
type wire struct {
	Seq  int    `json:"seq"`
	Body string `json:"body"`
}

// body derives the integrity-checked payload body for a sequence
// number.
func body(seq int) string { return fmt.Sprintf("payload-%d-abcdefghij", seq) }

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// publishUntil republishes v until seen reports it arrived — the lossy
// transports demand at-least-once publishing from the application, so
// the harness plays the application.
func publishUntil(t *testing.T, b bus.Bus, channel string, v wire, seen func() bool) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if seen() {
			return
		}
		if err := bus.Publish(ctx, b, channel, v); err != nil {
			t.Fatalf("publish: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("message %d never delivered", v.Seq)
}

// recorder collects typed deliveries thread-safely.
type recorder struct {
	mu   sync.Mutex
	msgs []wire
}

func (r *recorder) add(v wire) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, v)
}

func (r *recorder) snapshot() []wire {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire(nil), r.msgs...)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *recorder) hasSeq(seq int) func() bool {
	return func() bool {
		for _, m := range r.snapshot() {
			if m.Seq == seq {
				return true
			}
		}
		return false
	}
}

// checkIntegrity asserts every delivered payload is one the test
// published, byte-intact — no transport, however faulty, may corrupt
// or fabricate.
func checkIntegrity(t *testing.T, msgs []wire, maxSeq int) {
	t.Helper()
	for _, m := range msgs {
		if m.Seq < 0 || m.Seq > maxSeq || m.Body != body(m.Seq) {
			t.Fatalf("corrupted or fabricated delivery: %+v", m)
		}
	}
}

// testRoundTrip: a plain subscriber receives a published payload
// intact.
func testRoundTrip(t *testing.T, factory Factory) {
	b := open(t, factory)
	var rec recorder
	sub, err := bus.Subscribe(context.Background(), b, "t.roundtrip", rec.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	publishUntil(t, b, "t.roundtrip", wire{Seq: 7, Body: body(7)}, rec.hasSeq(7))
	checkIntegrity(t, rec.snapshot(), 7)
}

// testFanOut: every plain subscriber receives each message.
func testFanOut(t *testing.T, factory Factory) {
	b := open(t, factory)
	var a, c recorder
	for _, r := range []*recorder{&a, &c} {
		sub, err := bus.Subscribe(context.Background(), b, "t.fanout", r.add, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Unsubscribe()
	}
	publishUntil(t, b, "t.fanout", wire{Seq: 1, Body: body(1)}, func() bool {
		return a.hasSeq(1)() && c.hasSeq(1)()
	})
}

// testQueueGroup: members of one group split the stream. Universally:
// integrity, and nothing outside the group's channel arrives. With
// Lossless: the union of members covers every message. With Lossless
// and AtMostOnce: each message lands on exactly one member.
func testQueueGroup(t *testing.T, factory Factory) {
	b := open(t, factory)
	g := b.Guarantees()
	const n = 120
	members := make([]*recorder, 3)
	for i := range members {
		members[i] = &recorder{}
		sub, err := bus.QueueSubscribe(context.Background(), b, "t.queue", "workers", members[i].add, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Unsubscribe()
	}
	total := func() int {
		sum := 0
		for _, m := range members {
			sum += m.count()
		}
		return sum
	}
	covered := func() bool {
		seen := map[int]bool{}
		for _, m := range members {
			for _, msg := range m.snapshot() {
				seen[msg.Seq] = true
			}
		}
		return len(seen) == n
	}
	for seq := 0; seq < n; seq++ {
		if err := bus.Publish(context.Background(), b, "t.queue", wire{Seq: seq, Body: body(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if g.Lossless {
		eventually(t, 10*time.Second, "queue-group coverage", covered)
	} else {
		// Lossy: republish until covered (at-least-once application).
		deadline := time.Now().Add(10 * time.Second)
		for !covered() {
			if time.Now().After(deadline) {
				t.Fatal("queue group never covered the stream")
			}
			for seq := 0; seq < n; seq++ {
				if err := bus.Publish(context.Background(), b, "t.queue", wire{Seq: seq, Body: body(seq)}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if g.Lossless && g.AtMostOnce {
		// Exactly-once per group: total deliveries equals publishes.
		eventually(t, 5*time.Second, "queue-group drain", func() bool { return total() >= n })
		time.Sleep(20 * time.Millisecond) // settle: catch over-delivery
		if got := total(); got != n {
			t.Fatalf("queue group delivered %d of %d published (want exactly once)", got, n)
		}
		seen := map[int]int{}
		for _, m := range members {
			for _, msg := range m.snapshot() {
				seen[msg.Seq]++
			}
		}
		for seq, c := range seen {
			if c != 1 {
				t.Fatalf("message %d delivered %d times within the group", seq, c)
			}
		}
	}
	for _, m := range members {
		checkIntegrity(t, m.snapshot(), n-1)
	}
}

// testQueueRebalance: after one member unsubscribes, the survivors
// keep consuming the stream.
func testQueueRebalance(t *testing.T, factory Factory) {
	b := open(t, factory)
	var gone, stay recorder
	subGone, err := bus.QueueSubscribe(context.Background(), b, "t.rebalance", "workers", gone.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	subStay, err := bus.QueueSubscribe(context.Background(), b, "t.rebalance", "workers", stay.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer subStay.Unsubscribe()
	subGone.Unsubscribe()
	publishUntil(t, b, "t.rebalance", wire{Seq: 3, Body: body(3)}, stay.hasSeq(3))
}

// testOrdered: with a fully reliable ordered transport, a plain
// subscriber sees the exact publish sequence.
func testOrdered(t *testing.T, factory Factory) {
	b := open(t, factory)
	g := b.Guarantees()
	if !(g.Ordered && g.Lossless && g.AtMostOnce) {
		t.Skip("transport does not claim ordered reliable delivery")
	}
	var rec recorder
	sub, err := bus.Subscribe(context.Background(), b, "t.ordered", rec.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	const n = 100
	for seq := 0; seq < n; seq++ {
		if err := bus.Publish(context.Background(), b, "t.ordered", wire{Seq: seq, Body: body(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, 5*time.Second, "ordered drain", func() bool { return rec.count() == n })
	for i, m := range rec.snapshot() {
		if m.Seq != i {
			t.Fatalf("position %d delivered seq %d", i, m.Seq)
		}
	}
}

// testUnsubscribe: publishes after Unsubscribe returns are never
// delivered.
func testUnsubscribe(t *testing.T, factory Factory) {
	b := open(t, factory)
	var rec recorder
	sub, err := bus.Subscribe(context.Background(), b, "t.unsub", rec.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	publishUntil(t, b, "t.unsub", wire{Seq: 1, Body: body(1)}, rec.hasSeq(1))
	sub.Unsubscribe()
	settled := rec.count()
	for i := 0; i < 20; i++ {
		if err := bus.Publish(context.Background(), b, "t.unsub", wire{Seq: 2, Body: body(2)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if rec.hasSeq(2)() {
		t.Fatal("delivery after Unsubscribe returned")
	}
	if got := rec.count(); got < settled {
		t.Fatalf("recorder shrank: %d -> %d", settled, got)
	}
}

// testClose: a closed bus rejects publishes and subscriptions, and
// Close is idempotent.
func testClose(t *testing.T, factory Factory) {
	b := factory(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(context.Background(), "t.closed", []byte("x")); err == nil {
		t.Fatal("publish on closed bus succeeded")
	}
	if _, err := b.Subscribe(context.Background(), "t.closed", func(bus.Message) {}); err == nil {
		t.Fatal("subscribe on closed bus succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// testConcurrent: racing publishers never corrupt payloads; a reliable
// transport additionally delivers every message exactly once.
func testConcurrent(t *testing.T, factory Factory) {
	b := open(t, factory)
	g := b.Guarantees()
	var rec recorder
	sub, err := bus.Subscribe(context.Background(), b, "t.concurrent", rec.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	const pubs, per = 8, 25
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := p*per + i
				if err := bus.Publish(context.Background(), b, "t.concurrent", wire{Seq: seq, Body: body(seq)}); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if g.Lossless && g.AtMostOnce {
		eventually(t, 10*time.Second, "concurrent drain", func() bool { return rec.count() == pubs*per })
	}
	checkIntegrity(t, rec.snapshot(), pubs*per-1)
}

// testCanceledContext: Publish with a dead context returns promptly
// instead of hanging on a stalled subscriber.
func testCanceledContext(t *testing.T, factory Factory) {
	b := open(t, factory)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.Publish(ctx, "t.ctx", []byte("x")) // error or silent drop, but no hang
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish hung on a canceled context")
	}
}
