// Package bus is a small transport-agnostic publish/subscribe
// interface with queue-subscriber semantics (N queue members claim
// each message competitively), a typed JSON codec layer over it and an
// in-memory transport. Every transport declares its delivery
// Guarantees and must pass the bustest.TestAll conformance harness,
// which asserts the universal properties unconditionally and the
// stronger ones exactly where the transport claims them.
//
// Nothing imports this package: internal/service runs jobs from one
// in-process queue (docs/SERVICE.md). It is kept, with its conformance
// suite, only until its scheduled deletion (ROADMAP.md).
package bus

import (
	"context"
	"encoding/json"
	"fmt"
)

// Message is one delivery. The payload is opaque to the bus; identity
// and dedup live in the payload, because a faulty transport may
// duplicate deliveries and a re-published payload is the same message
// to the application even though the transport never saw them related.
type Message struct {
	Channel string
	Payload []byte
}

// Handler consumes one delivery. Handlers run on the subscription's
// own delivery goroutine: one handler invocation at a time per
// subscription, concurrent across subscriptions. A handler may publish
// (deliveries are decoupled from publishes), but must not block
// forever — it stalls only its own subscription's stream.
type Handler func(msg Message)

// Subscription is a live subscriber registration.
type Subscription interface {
	// Unsubscribe stops delivery. Buffered but undelivered messages are
	// discarded; an in-flight handler invocation may still complete
	// concurrently. Idempotent.
	Unsubscribe()
}

// Guarantees declares a transport's delivery contract. The conformance
// harness gates its stronger assertions on these.
type Guarantees struct {
	// Lossless: every accepted Publish is delivered to every plain
	// subscriber and one member of each queue group.
	Lossless bool
	// AtMostOnce: no delivery is duplicated.
	AtMostOnce bool
	// Ordered: per-channel publish order is preserved per subscriber.
	Ordered bool
}

// Bus is the transport interface. Implementation: Mem (in-process).
type Bus interface {
	// Publish sends payload to channel: every plain subscriber and
	// exactly one member of each queue group receive it (modulo the
	// transport's Guarantees). Returns an error only when the bus is
	// closed or ctx is done; a payload no subscriber wants is dropped.
	Publish(ctx context.Context, channel string, payload []byte) error
	// Subscribe registers a fan-out subscriber: every publish on
	// channel is delivered to it.
	Subscribe(ctx context.Context, channel string, h Handler) (Subscription, error)
	// QueueSubscribe registers a queue-group member: each publish on
	// channel is delivered to one member of each named group, so N
	// members split the stream competitively.
	QueueSubscribe(ctx context.Context, channel, queue string, h Handler) (Subscription, error)
	// Guarantees reports the transport's delivery contract.
	Guarantees() Guarantees
	// Close tears the bus down: subscriptions stop, further publishes
	// fail.
	Close() error
}

// ErrClosed is returned by Publish/Subscribe on a closed bus.
var ErrClosed = fmt.Errorf("bus: closed")

// Publish JSON-encodes v and publishes it — the typed half of the
// psrpc-style idiom: channels carry one wire type each, agreed by
// publisher and subscriber.
func Publish[T any](ctx context.Context, b Bus, channel string, v T) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("bus: encode %s: %w", channel, err)
	}
	return b.Publish(ctx, channel, data)
}

// Subscribe registers a typed fan-out subscriber: each delivery is
// JSON-decoded into T and handed to h. Payloads that do not decode are
// dropped (a faulty transport corrupting frames must not crash the
// subscriber); pass onErr to observe them (nil ignores).
func Subscribe[T any](ctx context.Context, b Bus, channel string, h func(T), onErr func(error)) (Subscription, error) {
	return b.Subscribe(ctx, channel, decode(channel, h, onErr))
}

// QueueSubscribe registers a typed queue-group member; see
// Bus.QueueSubscribe for the competitive-claim semantics.
func QueueSubscribe[T any](ctx context.Context, b Bus, channel, queue string, h func(T), onErr func(error)) (Subscription, error) {
	return b.QueueSubscribe(ctx, channel, queue, decode(channel, h, onErr))
}

// decode adapts a typed handler onto the raw Handler contract.
func decode[T any](channel string, h func(T), onErr func(error)) Handler {
	return func(msg Message) {
		var v T
		if err := json.Unmarshal(msg.Payload, &v); err != nil {
			if onErr != nil {
				onErr(fmt.Errorf("bus: decode %s: %w", channel, err))
			}
			return
		}
		h(v)
	}
}
