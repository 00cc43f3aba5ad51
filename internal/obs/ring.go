package obs

import (
	"fmt"
	"strings"
)

// Ring collects events into a bounded ring buffer: the most recent Cap
// events survive (Cap <= 0 keeps everything). The zero value is ready to
// use. A Ring is not safe for concurrent use; callers that share one
// across goroutines (such as the HTTP session registry) must hold their
// own lock, which they already do to serialize the underlying session.
type Ring struct {
	// Cap bounds the retained log; <= 0 retains everything.
	Cap int

	events  []Event
	head    int // index of the oldest event when the ring is saturated
	dropped int
}

// Observe implements Observer, appending an event and evicting the oldest
// past the cap.
func (r *Ring) Observe(ev Event) {
	if r.Cap > 0 && len(r.events) >= r.Cap {
		r.events[r.head] = ev
		r.head = (r.head + 1) % len(r.events)
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Events returns the retained log in arrival order. The returned slice is
// freshly allocated once the ring has wrapped; before that it aliases the
// internal buffer, so treat it as read-only.
func (r *Ring) Events() []Event {
	if r.head == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// Len reports how many events are retained.
func (r *Ring) Len() int { return len(r.events) }

// Dropped reports how many events were evicted by the cap.
func (r *Ring) Dropped() int { return r.dropped }

// Reset empties the ring, keeping its capacity.
func (r *Ring) Reset() {
	r.events = r.events[:0]
	r.head = 0
	r.dropped = 0
}

// String renders the log compactly, one event per line.
func (r *Ring) String() string {
	var b strings.Builder
	if r.dropped > 0 {
		fmt.Fprintf(&b, "... %d earlier events dropped ...\n", r.dropped)
	}
	for _, ev := range r.Events() {
		b.WriteString(FormatEvent(ev))
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatEvent renders one event the way simulator traces always have:
// a fixed-width time column, the kind, and the server (with the transfer
// source for transfers).
func FormatEvent(ev Event) string {
	if ev.Kind == KindTransfer {
		return fmt.Sprintf("%10.4f  %-8s s%d -> s%d", ev.At, ev.Kind, ev.From, ev.Server)
	}
	return fmt.Sprintf("%10.4f  %-8s s%d", ev.At, ev.Kind, ev.Server)
}
