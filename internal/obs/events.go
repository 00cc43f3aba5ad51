// Package obs is the repository's observability layer: a shared typed
// event schema for engine and simulator decisions, lock-free counters,
// gauges and fixed-bucket histograms with a Prometheus text-format
// exporter, a bounded event ring for per-session traces, and log/slog
// helpers with per-request IDs.
//
// It is deliberately stdlib-only and dependency-free in the other
// direction too: obs imports nothing from the rest of the module, so the
// decision engine, the discrete-event simulator and the HTTP service can
// all report through it without import cycles. The root package's
// TraceEvent is an alias of Event, so a session trace and an engine trace
// are one schema.
package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind labels one observed decision event. The first five values
// keep the numbering of the simulator's original trace vocabulary;
// KindEpochReset extends it for SC's epoch restarts.
type EventKind int8

// Event kinds, in the order they may occur at one instant.
const (
	// KindRequest marks a request arriving at Server.
	KindRequest EventKind = iota
	// KindHit marks a request served by a live local copy.
	KindHit
	// KindTransfer marks a copy transferred From -> Server (cost λ).
	KindTransfer
	// KindDrop marks the live copy on Server being deleted.
	KindDrop
	// KindTimer marks a speculative deadline firing on Server without
	// necessarily deleting anything (stale timers are not reported).
	KindTimer
	// KindEpochReset marks an SC epoch restart: every copy except the one
	// on Server (the just-served holder) is about to be dropped.
	KindEpochReset
	// KindMispredict marks a hybrid planner's prediction coming false:
	// the request arrived at Server while the plan expected From. The
	// planner discards its plan and serves the request under pure SC.
	KindMispredict
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindHit:
		return "hit"
	case KindTransfer:
		return "transfer"
	case KindDrop:
		return "drop"
	case KindTimer:
		return "timer"
	case KindEpochReset:
		return "epoch-reset"
	case KindMispredict:
		return "mispredict"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its string name, so JSON traces read
// "transfer" rather than 2.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts either a kind name ("transfer") or the raw
// numeric value, so serialized traces round-trip.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for kk := KindRequest; kk <= KindMispredict; kk++ {
			if kk.String() == s {
				*k = kk
				return nil
			}
		}
		return fmt.Errorf("obs: unknown event kind %q", s)
	}
	var n int8
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("obs: event kind must be a name or an integer: %s", b)
	}
	*k = EventKind(n)
	return nil
}

// Event is one entry of a decision trace. At is simulation/request time
// (the model's clock, not wall time); Server and From use the 1-based
// server numbering of model.ServerID.
type Event struct {
	At     float64   `json:"at"`
	Kind   EventKind `json:"kind"`
	Server int       `json:"server"`
	From   int       `json:"from,omitempty"` // transfer source (KindTransfer) or predicted server (KindMispredict)
}

// Observer receives decision events as they happen. Implementations must
// be cheap: the engine calls Observe on its hot path (guarded by a nil
// check, so a nil observer costs one branch).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// multiObserver fans one event stream out to several observers.
type multiObserver []Observer

func (m multiObserver) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Multi combines observers, skipping nils. It returns nil when none
// remain (so callers can keep the nil-observer fast path), the sole
// survivor when one remains, and a fan-out otherwise.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multiObserver(live)
	}
}
