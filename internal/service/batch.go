package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"datacache/internal/model"
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
	items, err := decodeBatchJSON[B](buf.b, ndjson)
	if err == nil && len(items) > MaxBatchRequests {
		return nil, fmt.Errorf("batch of %d exceeds the %d-request bound", len(items), MaxBatchRequests)
	}
	return items, err
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
