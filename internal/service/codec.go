package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"datacache"
	"datacache/internal/model"
)

// The serve routes carry the service's traffic, and encoding/json spends
// more CPU on a request body and its reply than the engine spends
// deciding it. This file holds their codec: a scanner that reads a batch
// body, or a single request's, in its canonical grammar straight from
// the bytes, and appenders that write the serve replies into a reused
// buffer, byte for byte what encoding/json writes. A body outside the
// grammar goes to decodeBatchJSON or decodeValue, which are both the
// only path for such bodies and the reference FuzzBatchCodec and
// FuzzSingleCodec hold the scanner to; the reply DTOs through
// encoding/json are the appenders' reference.

// maxBody bounds the bytes of every JSON request body.
const maxBody = 64 << 20

// maxPooledBuffer is the largest buffer kept for reuse. The body and the
// reply of a 64-request batch take a few KB to ~25 KB; larger ones, such
// as a long session's schedule, are left to the collector rather than
// held here beside encoding/json's own pooled copy.
const maxPooledBuffer = 64 << 10

// buffer is a reusable byte buffer: every JSON body is read into one,
// and every reply is encoded into one before its status is written.
type buffer struct{ b []byte }

// Write appends p, so a json.Encoder can encode into the buffer.
func (buf *buffer) Write(p []byte) (int, error) {
	buf.b = append(buf.b, p...)
	return len(p), nil
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

func getBuffer() *buffer {
	buf := buffers.Get().(*buffer)
	buf.b = buf.b[:0]
	return buf
}

func putBuffer(buf *buffer) {
	if cap(buf.b) <= maxPooledBuffer {
		buffers.Put(buf)
	}
}

// readBody reads r's body into buf through the one body bound.
func readBody(w http.ResponseWriter, r *http.Request, buf *buffer) error {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	for {
		if len(buf.b) == cap(buf.b) {
			// Double, or go straight to one byte past the bound, which is
			// all MaxBytesReader reads to tell a body over it.
			size := max(512, 2*cap(buf.b))
			if size >= maxBody {
				size = maxBody + 1
			}
			grown := make([]byte, len(buf.b), size)
			copy(grown, buf.b)
			buf.b = grown
		}
		n, err := body.Read(buf.b[len(buf.b):cap(buf.b)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return fmt.Errorf("request body exceeds the %d-byte (64 MiB) bound", maxBody)
			}
			return fmt.Errorf("reading the request body: %w", err)
		}
	}
}

// scanner reads a serve body in the canonical grammar: JSON whitespace,
// the request objects' lower-case keys, strings of printable ASCII with
// no escapes and numbers in JSON's grammar. A method that fails leaves
// the position undefined, and the whole body is then handed to
// encoding/json.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if c comes next.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escapes and returns its
// contents, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text reads a string value as str does and copies it out of the body.
func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// number reads a number in JSON's grammar; integer reports that it has
// neither a fraction nor an exponent.
func (s *scanner) number() (text []byte, integer, ok bool) {
	s.space()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if s.i >= len(s.b) || s.b[s.i] < '1' || s.b[s.i] > '9' || !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.b[start:s.i], integer, true
}

// server reads an integer as encoding/json reads one into an int field;
// a fraction, an exponent or a range error is not the scanner's.
func (s *scanner) server() (model.ServerID, bool) {
	text, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(text), 10, 64)
	return model.ServerID(v), err == nil
}

// float reads a number as encoding/json reads one into a float64 field;
// a range error is not the scanner's.
func (s *scanner) float() (float64, bool) {
	text, _, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(text), 64)
	return v, err == nil
}

// requestKey reads the value of a key both item types have (server, t,
// time) and returns the key's bit, which scanItem uses to refuse a
// repeated key.
func (s *scanner) requestKey(key []byte, server *model.ServerID, t, time *float64) (bit uint8, ok bool) {
	switch string(key) {
	case "server":
		*server, ok = s.server()
		return 1 << 0, ok
	case "t":
		*t, ok = s.float()
		return 1 << 1, ok
	case "time":
		*time, ok = s.float()
		return 1 << 2, ok
	}
	return 0, false
}

// requestObject is a request object the scanner fills key by key: a
// batch element, *BatchRequestItem or *PoolServeRequest, or a single
// request's body, *StreamAppendRequest or *PoolServeRequest.
type requestObject[T any] interface {
	*T
	// scanKey reads key's value into the object and returns the key's
	// bit; ok is false when key is not one of the object's or its value
	// is outside the grammar.
	scanKey(s *scanner, key []byte) (bit uint8, ok bool)
}

func (it *StreamAppendRequest) scanKey(s *scanner, key []byte) (bit uint8, ok bool) {
	switch string(key) {
	case "server":
		it.Server, ok = s.server()
		return 1 << 0, ok
	case "time":
		it.Time, ok = s.float()
		return 1 << 2, ok
	}
	return 0, false
}

func (it *BatchRequestItem) scanKey(s *scanner, key []byte) (uint8, bool) {
	return s.requestKey(key, &it.Server, &it.T, &it.Time)
}

func (it *PoolServeRequest) scanKey(s *scanner, key []byte) (bit uint8, ok bool) {
	switch string(key) {
	case "tenant":
		it.Tenant, ok = s.text()
		return 1 << 3, ok
	case "item":
		it.Item, ok = s.text()
		return 1 << 4, ok
	}
	return s.requestKey(key, &it.Server, &it.T, &it.Time)
}

// scanObject reads one request object into obj, each of its keys at
// most once. It calls scanKey through a type switch: a call through the
// type parameter's dictionary would move the scanner to the heap.
func scanObject[T any, P requestObject[T]](s *scanner, obj P) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var bit uint8
		switch o := any(obj).(type) {
		case *StreamAppendRequest:
			bit, ok = o.scanKey(s, key)
		case *BatchRequestItem:
			bit, ok = o.scanKey(s, key)
		case *PoolServeRequest:
			bit, ok = o.scanKey(s, key)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// scanItem reads one request object and appends it to items. It gives up
// on a batch past MaxBatchRequests, so that decodeBatchJSON reports it.
func scanItem[T any, P requestObject[T]](s *scanner, items []T) ([]T, bool) {
	if len(items) == MaxBatchRequests {
		return nil, false
	}
	var zero T
	items = append(items, zero)
	if !scanObject[T, P](s, &items[len(items)-1]) {
		return nil, false
	}
	return items, true
}

// scanRequest reads a single request's body in its canonical grammar:
// one request object and nothing after it but whitespace. ok is false for
// every other body, which then goes to decodeValue unchanged.
func scanRequest[T any, P requestObject[T]](body []byte, req P) bool {
	s := scanner{b: body}
	if !scanObject[T, P](&s, req) {
		return false
	}
	s.space()
	return s.i == len(s.b)
}

// scanBatch reads a batch body in its canonical grammar: the
// {"requests":[...]} object, the bare array, or (ndjson) request objects
// separated by whitespace. ok is false for every other body, which then
// goes to decodeBatchJSON unchanged.
func scanBatch[T any, P requestObject[T]](body []byte, ndjson bool) (items []T, ok bool) {
	s := scanner{b: body}
	items = make([]T, 0, min(bytes.Count(body, []byte{'{'}), MaxBatchRequests))
	if ndjson {
		for s.space(); s.i < len(s.b); s.space() {
			if items, ok = scanItem[T, P](&s, items); !ok {
				return nil, false
			}
		}
		return items, true
	}
	object := !s.next('[')
	if object {
		if !s.next('{') {
			return nil, false
		}
		if key, ok := s.str(); !ok || string(key) != "requests" || !s.next(':') || !s.next('[') {
			return nil, false
		}
	}
	if !s.next(']') {
		for {
			if items, ok = scanItem[T, P](&s, items); !ok {
				return nil, false
			}
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return nil, false
			}
		}
	}
	if object && !s.next('}') {
		return nil, false
	}
	s.space()
	return items, s.i == len(s.b)
}

// jsonAppender appends JSON as encoding/json writes it. The first value
// it cannot encode, a non-finite float, sticks in err, with the error
// encoding/json reports for it.
type jsonAppender struct {
	b   []byte
	err error
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }
func (e *jsonAppender) int(v int)    { e.b = strconv.AppendInt(e.b, int64(v), 10) }
func (e *jsonAppender) bool(v bool)  { e.b = strconv.AppendBool(e.b, v) }

// reserve grows the buffer once for count more items of size bytes each,
// so a large batch reply is not grown by repeated doubling.
func (e *jsonAppender) reserve(size, count int) { e.b = slices.Grow(e.b, size*count) }

// float follows encoding/json's float64 rule: the shortest 'f' form,
// except 'e' when |f| < 1e-6 or |f| >= 1e21, with a two-digit negative
// exponent cut to one digit (e-07 becomes e-7).
func (e *jsonAppender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// string writes s as is when no byte of it needs escaping; any other
// string takes encoding/json's own escaping (HTML-safe, U+2028 and
// U+2029, invalid UTF-8).
func (e *jsonAppender) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// head writes the fields both batch replies open with, up to the
// decisions array's opening bracket.
func (e *jsonAppender) head(id string, n, applied, firstRejected int, reason string) {
	e.raw(`{"id":`)
	e.string(id)
	e.raw(`,"n":`)
	e.int(n)
	e.raw(`,"applied":`)
	e.int(applied)
	e.raw(`,"firstRejected":`)
	e.int(firstRejected)
	if reason != "" {
		e.raw(`,"rejectReason":`)
		e.string(reason)
	}
}

// tail closes the decisions array and writes the fields both batch
// replies end with.
func (e *jsonAppender) tail(cost, optimal, ratio float64) {
	e.raw(`],"cost":`)
	e.float(cost)
	e.raw(`,"optimal":`)
	e.float(optimal)
	e.raw(`,"ratio":`)
	e.float(ratio)
	e.raw("}\n")
}

// decision writes the fields a session decision reply ends with, from
// "server" to "regret": all of a BatchDecision, the tail of a
// SessionDecision.
func (e *jsonAppender) decision(d *datacache.Decision) {
	e.raw(`"server":`)
	e.int(int(d.Server))
	e.raw(`,"time":`)
	e.float(d.Time)
	e.raw(`,"hit":`)
	e.bool(d.Hit)
	if d.From != 0 {
		e.raw(`,"from":`)
		e.int(int(d.From))
	}
	e.raw(`,"cost":`)
	e.float(d.Cost)
	e.raw(`,"optimal":`)
	e.float(d.Optimal)
	e.raw(`,"ratio":`)
	e.float(d.Ratio)
	e.raw(`,"regret":`)
	e.float(d.Regret)
}

// poolDecision writes one PoolDecisionDTO: an element of a pool batch's
// decisions, and the whole of a single pool reply.
func (e *jsonAppender) poolDecision(id string, d *datacache.PoolDecision) {
	e.raw(`{"id":`)
	e.string(id)
	if d.Tenant != "" {
		e.raw(`,"tenant":`)
		e.string(d.Tenant)
	}
	e.raw(`,"item":`)
	e.string(d.Item)
	if d.Revived {
		e.raw(`,"revived":true`)
	}
	e.raw(`,"server":`)
	e.int(int(d.Server))
	e.raw(`,"time":`)
	e.float(d.Time)
	e.raw(`,"hit":`)
	e.bool(d.Hit)
	if d.From != 0 {
		e.raw(`,"from":`)
		e.int(int(d.From))
	}
	e.raw(`,"regret":`)
	e.float(d.Regret)
	e.raw(`,"itemCost":`)
	e.float(d.ItemCost)
	e.raw(`,"itemOptimal":`)
	e.float(d.ItemOptimal)
	e.raw(`,"poolCost":`)
	e.float(d.PoolCost)
	e.raw(`,"poolOptimal":`)
	e.float(d.PoolOptimal)
	e.raw(`,"poolRatio":`)
	e.float(d.PoolRatio)
	e.raw("}")
}

// appendSessionDecision appends the SessionDecision of a single serve:
// what json.NewEncoder(w).Encode writes for it, newline included.
func appendSessionDecision(b []byte, id string, n int, d *datacache.Decision) ([]byte, error) {
	e := jsonAppender{b: b}
	e.raw(`{"id":`)
	e.string(id)
	e.raw(`,"n":`)
	e.int(n)
	e.raw(",")
	e.decision(d)
	e.raw("}\n")
	return e.b, e.err
}

// appendPoolDecision appends the PoolDecisionDTO of a single pool serve:
// what json.NewEncoder(w).Encode writes for it, newline included.
func appendPoolDecision(b []byte, id string, d *datacache.PoolDecision) ([]byte, error) {
	e := jsonAppender{b: b}
	e.poolDecision(id, d)
	e.raw("\n")
	return e.b, e.err
}

// appendSessionBatch appends the SessionBatchResponse of a session
// batch: what json.NewEncoder(w).Encode writes for it, newline included.
func appendSessionBatch(b []byte, id string, n int, res *datacache.ServeBatchResult) ([]byte, error) {
	e := jsonAppender{b: b}
	e.head(id, n, len(res.Decisions), res.FirstRejected, res.RejectReason)
	e.raw(`,"decisions":[`)
	for i := range res.Decisions {
		if i > 0 {
			e.raw(",")
		}
		start := len(e.b)
		e.raw("{")
		e.decision(&res.Decisions[i])
		e.raw("}")
		if i == 0 {
			e.reserve(len(e.b)-start+1, len(res.Decisions)-1)
		}
	}
	e.tail(res.Cost, res.Optimal, res.Ratio)
	return e.b, e.err
}

// appendPoolBatch appends the PoolBatchResponse of a pool batch: what
// json.NewEncoder(w).Encode writes for it, newline included.
func appendPoolBatch(b []byte, id string, n int, res *datacache.PoolBatchResult) ([]byte, error) {
	e := jsonAppender{b: b}
	e.head(id, n, len(res.Decisions), res.FirstRejected, res.RejectReason)
	if len(res.Rejected) > 0 {
		e.raw(`,"rejected":[`)
		for i, rj := range res.Rejected {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"index":`)
			e.int(rj.Index)
			e.raw(`,"reason":`)
			e.string(rj.Reason)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"decisions":[`)
	for i := range res.Decisions {
		if i > 0 {
			e.raw(",")
		}
		start := len(e.b)
		e.poolDecision(id, &res.Decisions[i])
		if i == 0 {
			e.reserve(len(e.b)-start+1, len(res.Decisions)-1)
		}
	}
	e.tail(res.Cost, res.Optimal, res.Ratio)
	return e.b, e.err
}
