package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"datacache"
	"datacache/internal/model"
	"datacache/internal/obs"
)

// POST /v1/session/{id}/requests is the batch-first ingestion path: an
// ordered batch of requests serves under ONE entry-lock acquisition and
// one HTTP round-trip, instead of one of each per request. Two bodies are
// accepted:
//
//   - JSON: {"requests": [{"server": 2, "t": 0.5}, ...]} — or the bare
//     array as a shorthand. "time" is accepted as an alias of "t" to
//     match the single-request DTO.
//   - NDJSON (Content-Type: application/x-ndjson): one {"server", "t"}
//     object per line, the streaming shape a forwarder naturally emits.
//
// Every shape is read through one 64 MiB bound, and every shape refuses
// unknown fields and anything but whitespace after the body (codec.go).
//
// Failure is partial, mirroring datacache.Session.ServeBatch: the first
// request the engine rejects stops the batch; the reply reports the
// applied prefix's decisions, the first-rejected index and the reason,
// with status 200 (the batch itself was processed). Whole-batch failures
// use the error envelope: 404 unknown session, 409 closed session,
// 400 malformed body or oversized batch, 429 inflight budget exceeded.

// MaxBatchRequests bounds one bulk-ingestion batch; larger batches are
// rejected with 400 before any request applies.
const MaxBatchRequests = 65536

// BatchRequestItem is one {server, t} pair of a bulk batch.
type BatchRequestItem struct {
	Server model.ServerID `json:"server"`
	T      float64        `json:"t,omitempty"`
	Time   float64        `json:"time,omitempty"` // alias of t
}

// at returns the request instant, honoring the t/time alias.
func (b BatchRequestItem) at() float64 {
	if b.T != 0 {
		return b.T
	}
	return b.Time
}

// SessionBatchRequest is the JSON body of POST /v1/session/{id}/requests.
type SessionBatchRequest struct {
	Requests []BatchRequestItem `json:"requests"`
}

// BatchDecision is one applied request's outcome inside a batch reply —
// the same readout a single POST {id}/request returns.
type BatchDecision struct {
	Server  model.ServerID `json:"server"`
	Time    float64        `json:"time"`
	Hit     bool           `json:"hit"`
	From    model.ServerID `json:"from,omitempty"`
	Cost    float64        `json:"cost"`
	Optimal float64        `json:"optimal"`
	Ratio   float64        `json:"ratio"`
	Regret  float64        `json:"regret"` // online cost delta − optimum delta
}

// SessionBatchResponse is the bulk-ingestion reply: per-request decisions
// for the applied prefix, partial-failure standing, and the post-batch
// cost/optimum/ratio snapshot.
type SessionBatchResponse struct {
	ID            string          `json:"id"`
	N             int             `json:"n"`       // total requests served after the batch
	Applied       int             `json:"applied"` // requests of this batch that applied
	FirstRejected int             `json:"firstRejected"`
	RejectReason  string          `json:"rejectReason,omitempty"`
	Decisions     []BatchDecision `json:"decisions"`
	Cost          float64         `json:"cost"`
	Optimal       float64         `json:"optimal"`
	Ratio         float64         `json:"ratio"`
}

// batchBody is the JSON-object shape of a batch body, {"requests": [...]}.
type batchBody[T any] interface{ items() []T }

func (b SessionBatchRequest) items() []BatchRequestItem  { return b.Requests }
func (b PoolBatchRequestBody) items() []PoolServeRequest { return b.Requests }

// decodeBatch reads a session or pool batch body, in any of its three
// shapes, through the one 64 MiB bound. A body in the scanner's
// canonical grammar is scanned straight from its bytes; every other
// body, every rejected one included, goes through decodeBatchJSON.
func decodeBatch[B batchBody[T], T any, P requestObject[T]](w http.ResponseWriter, r *http.Request) ([]T, error) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := readBody(w, r, buf); err != nil {
		return nil, err
	}
	ndjson := strings.Contains(r.Header.Get("Content-Type"), "ndjson")
	if items, ok := scanBatch[T, P](buf.b, ndjson); ok {
		return items, nil
	}
	return decodeBatchJSON[B](buf.b, ndjson)
}

// decodeBatchJSON reads a batch body with encoding/json: the JSON object
// B, a bare array of T, or (ndjson) a stream of T. In every shape it
// refuses unknown fields and anything but whitespace after the body.
func decodeBatchJSON[B batchBody[T], T any](body []byte, ndjson bool) ([]T, error) {
	if ndjson {
		return decodeNDJSON[T](body)
	}
	if bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte("[")) {
		var items []T
		if err := decodeValue(body, &items); err != nil {
			return nil, fmt.Errorf("bad batch array: %w", err)
		}
		return items, nil
	}
	var req B
	if err := decodeValue(body, &req); err != nil {
		return nil, fmt.Errorf("bad batch body: %w", err)
	}
	return req.items(), nil
}

// decodeNDJSON reads one T per value. json.Decoder handles the framing
// itself (values are self-delimiting), so blank lines and ordinary
// newlines both work.
func decodeNDJSON[T any](body []byte) ([]T, error) {
	var items []T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	for {
		var item T
		if err := dec.Decode(&item); err != nil {
			if errors.Is(err, io.EOF) {
				return items, nil
			}
			return nil, fmt.Errorf("bad NDJSON line %d: %w", len(items)+1, err)
		}
		items = append(items, item)
		if len(items) > MaxBatchRequests {
			return nil, fmt.Errorf("batch exceeds %d requests", MaxBatchRequests)
		}
	}
}

// handleSessionBatch serves POST /v1/session/{id}/requests. The caller
// has resolved the entry; this handler owns budget admission, locking and
// the reply.
func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request, id string, entry *sessionEntry) {
	items, err := decodeBatch[SessionBatchRequest](w, r)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, err)
		return
	}
	if len(items) > MaxBatchRequests {
		s.httpError(w, r, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the %d-request bound", len(items), MaxBatchRequests))
		return
	}
	reqs := make([]model.Request, len(items))
	for i, it := range items {
		reqs[i] = model.Request{Server: it.Server, Time: it.at()}
	}

	if !s.acquireServeSlot(w, r, "session", id, &entry.inflight) {
		return
	}
	defer entry.inflight.Add(-1)
	if !s.lockEntry(w, r, "session", entry.lk) {
		return
	}
	if entry.sess.Closed() {
		entry.lk.unlock()
		s.httpError(w, r, http.StatusConflict, fmt.Errorf("session %q is closed", id))
		return
	}
	root := obs.SpanFrom(r.Context())
	if root != nil {
		root.Session = id
		entry.sess.SetRecordTraceID(root.TraceID)
	}
	entry.evs = entry.evs[:0]
	start := time.Now()
	res, err := entry.sess.ServeBatch(r.Context(), reqs)
	elapsed := time.Since(start)
	var n int
	var evs []obs.Event
	if res != nil {
		n = entry.sess.N()
		evs = append(evs, entry.evs...) // copied: the buffer is reused under the lock
	}
	entry.lk.unlock()
	if err != nil {
		// ServeBatch fails outright only on a closed session (handled
		// above) or a context canceled mid-batch; the applied prefix
		// stays applied either way.
		applied := 0
		if res != nil {
			applied = len(res.Decisions)
		}
		s.httpError(w, r, StatusClientClosedRequest,
			fmt.Errorf("batch aborted after %d of %d requests: %v", applied, len(reqs), err))
		return
	}
	s.batchSize.Observe(float64(len(reqs)))
	if applied := len(res.Decisions); applied > 0 {
		// One sample of the mean per-decision latency across the batch;
		// the single-request path samples every decision individually.
		perDecision := elapsed.Seconds() / float64(applied)
		if root != nil && root.Sampled() {
			s.decisionSec.ObserveExemplar(perDecision, root.TraceID)
		} else {
			s.decisionSec.Observe(perDecision)
		}
		// One serve child span per applied request, annotated with the
		// decision events attributed to it; durations share the batch's
		// mean since individual requests are not timed separately.
		if root != nil {
			runs := partitionEvents(evs, res.Decisions)
			shadowNames := entry.sess.ShadowNames() // immutable after create; safe outside the lock
			for i, d := range res.Decisions {
				sp := root.StartChild("serve")
				sp.Start = start
				annotateServeSpan(sp, id, d, eventsLabel(runs[i]),
					shadowDivergenceLabel(shadowNames, d.ShadowDiverged))
				// Individual requests are not timed inside a batch; each
				// child carries the batch's mean per-decision latency.
				sp.Duration = perDecision
			}
		}
	}
	buf := getBuffer()
	buf.b, err = appendSessionBatch(buf.b, id, n, res)
	s.sendReply(w, r, http.StatusOK, buf, err)
}

// partitionEvents attributes a batch's decision-event stream to its
// applied requests. Events arrive in serve order: each request's run is
// the deadline expiries drained on its arrival, its own request/hit or
// transfer, and any policy actions at its instant — so a new KindRequest
// (or an event past the current request's time) opens the next run.
func partitionEvents(evs []obs.Event, decisions []datacache.Decision) [][]obs.Event {
	runs := make([][]obs.Event, len(decisions))
	if len(decisions) == 0 {
		return runs
	}
	j := 0
	seenReq := false
	for _, ev := range evs {
		if seenReq && j+1 < len(decisions) &&
			(ev.Kind == obs.KindRequest || ev.At > decisions[j].Time) {
			j++
			seenReq = false
		}
		if ev.Kind == obs.KindRequest {
			seenReq = true
		}
		runs[j] = append(runs[j], ev)
	}
	return runs
}
