// Package recorder is the serving stack's flight recorder: an
// append-only, length-prefixed binary WAL (plus an NDJSON text mode)
// that captures every served request and the decision it caused —
// timestamp, tenant/item key, source server, hit/transfer verdict,
// drops, the cumulative cost picture, and the request's trace id — so a
// live workload can be replayed after the fact through a fresh engine
// (bit-for-bit cost reproduction) and through the exact offline DP (the
// true hindsight ratio-to-optimum, not the streaming lower bound).
//
// A recording is a sequence of records of two kinds:
//
//   - open: declares a stream — one engine incarnation, identified by a
//     writer-scoped uint32 id — carrying everything replay needs to
//     reconstruct it (session id, tenant/item key, m, origin, cost
//     model, policy spec). Pool evictions that later revive an
//     item open a fresh stream, so incarnation boundaries are explicit.
//   - serve: one served request on a stream — time, server, hit/miss,
//     transfer source, drops, and the engine's cumulative cost and
//     cumulative prefix optimum after the request. Recording cumulative
//     totals (not deltas) is what makes bitwise replay verification
//     possible: floating-point re-summation is not associative, but
//     re-executing the identical operation sequence is.
//
// Writes are buffered and asynchronous (Writer), with an explicit fsync
// policy, crash-tolerant torn-tail recovery on read, and rotation by
// size or age; rotation re-emits every live stream's open record (marked
// Resumed) so each file is self-contained. The binary format is
// specified in DESIGN.md §12.
package recorder

// Kind discriminates the two record kinds of a recording.
type Kind uint8

const (
	// KindOpen declares a stream (one engine incarnation); Info is set.
	KindOpen Kind = 1
	// KindServe is one served request on a previously opened stream.
	KindServe Kind = 2
)

// String names the kind for text renderings.
func (k Kind) String() string {
	switch k {
	case KindOpen:
		return "open"
	case KindServe:
		return "serve"
	default:
		return "unknown"
	}
}

// StreamInfo describes one stream — one engine incarnation — with
// everything replay needs to rebuild an identical session.
type StreamInfo struct {
	// Session is the serving-layer id the stream belongs to ("sn-3",
	// "pl-1", or whatever the embedding caller chose).
	Session string `json:"session"`
	// Tenant and Item scope pool streams; both empty for a plain session.
	Tenant string `json:"tenant,omitempty"`
	Item   string `json:"item,omitempty"`
	// Instance parameters: servers, initial copy holder, cost model.
	M      int     `json:"m"`
	Origin int     `json:"origin"`
	Mu     float64 `json:"mu"`
	Lambda float64 `json:"lambda"`
	// Policy is the live policy's canonical spec, parameters included.
	Policy string `json:"policy,omitempty"`
	// Resumed marks an open re-emitted after rotation (the stream's
	// earlier serves live in a previous file). A reader holding the
	// stream's state treats it as a continuation; a reader that has
	// never seen the stream knows its prefix is missing.
	Resumed bool `json:"resumed,omitempty"`
}

// Record is one entry of a recording. Kind selects which fields are
// meaningful: KindOpen carries Stream and Info; KindServe carries
// Stream plus the request and its decision.
type Record struct {
	Kind   Kind   `json:"kind"`
	Stream uint32 `json:"stream"`
	// Info is the stream declaration (KindOpen only).
	Info *StreamInfo `json:"info,omitempty"`
	// The served request and its decision (KindServe only).
	Time    float64 `json:"t,omitempty"`
	Server  int     `json:"server,omitempty"`
	From    int     `json:"from,omitempty"`
	Hit     bool    `json:"hit,omitempty"`
	Drops   int     `json:"drops,omitempty"`
	Cost    float64 `json:"cost,omitempty"`    // cumulative policy cost after this request
	Optimal float64 `json:"optimal,omitempty"` // cumulative prefix optimum after this request
	TraceID string  `json:"trace,omitempty"`   // W3C trace id of the carrying request, for span joins
}
