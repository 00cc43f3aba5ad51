package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"datacache"
	"datacache/internal/model"
)

// sessionBatchResponse builds the reply DTO of a session batch from its
// result; its encoding by encoding/json is what appendSessionBatch must
// write byte for byte.
func sessionBatchResponse(id string, n int, res *datacache.ServeBatchResult) SessionBatchResponse {
	resp := SessionBatchResponse{
		ID:            id,
		N:             n,
		Applied:       len(res.Decisions),
		FirstRejected: res.FirstRejected,
		RejectReason:  res.RejectReason,
		Decisions:     make([]BatchDecision, len(res.Decisions)),
		Cost:          res.Cost,
		Optimal:       res.Optimal,
		Ratio:         res.Ratio,
	}
	for i, d := range res.Decisions {
		resp.Decisions[i] = BatchDecision{
			Server:  d.Server,
			Time:    d.Time,
			Hit:     d.Hit,
			From:    d.From,
			Cost:    d.Cost,
			Optimal: d.Optimal,
			Ratio:   d.Ratio,
			Regret:  d.Regret,
		}
	}
	return resp
}

// poolBatchResponse is sessionBatchResponse for a pool batch, the
// reference of appendPoolBatch.
func poolBatchResponse(id string, n int, res *datacache.PoolBatchResult) PoolBatchResponse {
	resp := PoolBatchResponse{
		ID:            id,
		N:             n,
		Applied:       len(res.Decisions),
		FirstRejected: res.FirstRejected,
		RejectReason:  res.RejectReason,
		Rejected:      res.Rejected,
		Decisions:     make([]PoolDecisionDTO, len(res.Decisions)),
		Cost:          res.Cost,
		Optimal:       res.Optimal,
		Ratio:         res.Ratio,
	}
	for i, d := range res.Decisions {
		resp.Decisions[i] = poolDecisionDTO(id, d)
	}
	return resp
}

// poolDecisionDTO builds the reply DTO of one pool decision, the
// reference of appendPoolDecision and of each element appendPoolBatch
// writes.
func poolDecisionDTO(id string, d datacache.PoolDecision) PoolDecisionDTO {
	return PoolDecisionDTO{
		ID:          id,
		Tenant:      d.Tenant,
		Item:        d.Item,
		Revived:     d.Revived,
		Server:      d.Server,
		Time:        d.Decision.Time,
		Hit:         d.Hit,
		From:        d.From,
		Regret:      d.Regret,
		ItemCost:    d.ItemCost,
		ItemOptimal: d.ItemOptimal,
		PoolCost:    d.PoolCost,
		PoolOptimal: d.PoolOptimal,
		PoolRatio:   d.PoolRatio,
	}
}

// checkDecode requires decodeBatch, the scanner with its fallback, to
// read body exactly as decodeBatchJSON does: the same verdict, the same
// error message, and items equal bit for bit (%#v prints every float64
// in a form that tells its bits apart, -0 included).
func checkDecode[B batchBody[T], T any, P requestObject[T]](t *testing.T, body []byte, ndjson bool) {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/x/requests", bytes.NewReader(body))
	if ndjson {
		r.Header.Set("Content-Type", "application/x-ndjson")
	}
	got, gotErr := decodeBatch[B, T, P](httptest.NewRecorder(), r)
	want, wantErr := decodeBatchJSON[B](body, ndjson)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T body %q (ndjson %v): decodeBatch error %v, encoding/json %v", *new(T), body, ndjson, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%T body %q (ndjson %v): %d items, encoding/json %d", *new(T), body, ndjson, len(got), len(want))
	}
	for i := range got {
		if g, w := fmt.Sprintf("%#v", got[i]), fmt.Sprintf("%#v", want[i]); g != w {
			t.Fatalf("body %q (ndjson %v): item %d is %s, encoding/json %s", body, ndjson, i, g, w)
		}
	}
}

// replySource draws reply fields from fuzz bytes; past the end it reads
// zeros.
type replySource struct{ b []byte }

func (s *replySource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// edgeFloats are the values where encoding/json's float rule turns: the
// 1e-6 and 1e21 format boundaries and their neighbours, signed zeros,
// subnormals, the extremes and the values it cannot encode.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789e13,
	5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, -math.MaxFloat64, 1e-100, 1e100, 13.600000000000001, 8.9, 1, -1, 0.1,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// float reads one tag byte: a small tag picks an edge value, any other
// reads the next eight bytes as the float's bits.
func (s *replySource) float() float64 {
	if k := int(s.byte()); k < len(edgeFloats) {
		return edgeFloats[k]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(s.byte())
	}
	return math.Float64frombits(bits)
}

func (s *replySource) int() int { return int(int8(s.byte())) }

func (s *replySource) string() string {
	n := min(int(s.byte()%24), len(s.b))
	v := string(s.b[:n])
	s.b = s.b[n:]
	return v
}

func (s *replySource) decision() datacache.Decision {
	return datacache.Decision{
		Server: model.ServerID(s.int()), Time: s.float(), Hit: s.byte()&1 == 1, From: model.ServerID(s.int()),
		Cost: s.float(), Optimal: s.float(), Ratio: s.float(), Regret: s.float(),
	}
}

func (s *replySource) poolDecision() datacache.PoolDecision {
	return datacache.PoolDecision{
		Decision: s.decision(), Tenant: s.string(), Item: s.string(), Revived: s.byte()&1 == 1,
		ItemCost: s.float(), ItemOptimal: s.float(),
		PoolCost: s.float(), PoolOptimal: s.float(), PoolRatio: s.float(),
	}
}

// checkReply requires an appender's output to be what json.NewEncoder
// writes for the reply DTO, and the appender to fail exactly when, and
// with the error, encoding/json fails.
func checkReply(t *testing.T, kind string, got []byte, gotErr error, dto any) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(dto)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s reply %+v: appender error %v, encoding/json %v", kind, dto, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%s reply:\nappender      %s\nencoding/json %s", kind, got, want.Bytes())
	}
}

// checkReplies generates one session and one pool batch result from src
// and holds each batch appender to encoding/json with checkReply.
func checkReplies(t *testing.T, src *replySource) {
	t.Helper()
	id, n := src.string(), src.int()
	sres := &datacache.ServeBatchResult{
		FirstRejected: src.int(), RejectReason: src.string(),
		Cost: src.float(), Optimal: src.float(), Ratio: src.float(),
	}
	for k := src.byte() % 4; k > 0; k-- {
		sres.Decisions = append(sres.Decisions, src.decision())
	}
	got, err := appendSessionBatch([]byte("kept"), id, n, sres)
	if !bytes.HasPrefix(got, []byte("kept")) {
		t.Fatalf("appendSessionBatch overwrote the buffer it appends to: %q", got)
	}
	checkReply(t, "session", got[len("kept"):], err, sessionBatchResponse(id, n, sres))

	pres := &datacache.PoolBatchResult{
		FirstRejected: src.int(), RejectReason: src.string(),
		Cost: src.float(), Optimal: src.float(), Ratio: src.float(),
	}
	for k := src.byte() % 3; k > 0; k-- {
		pres.Rejected = append(pres.Rejected, datacache.PoolRejection{Index: src.int(), Reason: src.string()})
	}
	for k := src.byte() % 4; k > 0; k-- {
		pres.Decisions = append(pres.Decisions, src.poolDecision())
	}
	got, err = appendPoolBatch(nil, id, n, pres)
	checkReply(t, "pool", got, err, poolBatchResponse(id, n, pres))
}

// replySeeds lays out reply bytes in the order checkReplies reads them.
// Seed k puts edgeFloats[k] in every float slot, fills two session and
// two pool decisions and two rejections, and cycles the strings through
// ones that need escaping. The last seed, all zeros, has empty lists.
func replySeeds() [][]byte {
	strs := []string{"<s&1>", `q"uo\te`, "ctl\x00\x1f\n", "sep\u2028\u2029", "bad\xff\xfe", "caf\u00e9~\x7f", "pl-1"}
	var seeds [][]byte
	for k := range edgeFloats {
		var b []byte
		next := 0
		str := func() {
			s := strs[next%len(strs)]
			next++
			b = append(b, byte(len(s)))
			b = append(b, s...)
		}
		floats := func(n int) {
			for ; n > 0; n-- {
				b = append(b, byte(k))
			}
		}
		decision := func() { // server 3, a hit from server 2
			b = append(b, 3)
			floats(1)
			b = append(b, 1, 2)
			floats(4)
		}
		str()                  // id
		b = append(b, 7, 0xff) // n, firstRejected -1
		str()                  // rejectReason
		floats(3)              // cost, optimal, ratio
		b = append(b, 2)       // two decisions
		decision()
		decision()
		b = append(b, 1) // pool: firstRejected 1
		str()
		floats(3)
		b = append(b, 2) // two rejections
		for _, index := range []byte{1, 4} {
			b = append(b, index)
			str()
		}
		b = append(b, 2) // two decisions, the second revived
		for revived := byte(0); revived < 2; revived++ {
			decision()
			str() // tenant
			str() // item
			b = append(b, revived)
			floats(5)
		}
		seeds = append(seeds, b)
	}
	return append(seeds, nil)
}

// FuzzBatchCodec holds the batch codec to encoding/json. The body is read
// as a session batch and as a pool batch, in the shape its first bytes
// and the ndjson flag select, and checkDecode compares the scanner's
// reading with decodeBatchJSON's. The reply bytes generate one session
// and one pool batch result, and checkReplies compares each appender's
// output with json.NewEncoder's.
func FuzzBatchCodec(f *testing.F) {
	pool, _ := json.Marshal(PoolBatchRequestBody{Requests: []PoolServeRequest{
		{Tenant: "t0", Item: "i1", Server: 3, T: 0.125},
		{Item: "i2", Server: 16, T: 1e-7},
		{Tenant: "t1", Item: "i1", Server: 1, Time: 2.5e21},
	}})
	session, _ := json.Marshal(SessionBatchRequest{Requests: []BatchRequestItem{
		{Server: 2, T: 0.5}, {Server: 3, T: 0.8}, {Server: 4, Time: 1.1},
	}})
	for _, body := range []string{
		string(pool), string(session),
		`[{"server":2,"t":0.5},{"server":3,"t":0.8}]`,
		`{"item":"a","server":1,"t":4}` + "\n" + `{"tenant":"acme","item":"a","server":2,"t":1}` + "\n",
		"{\"requests\" :\t[ {\"server\" : 2 , \"t\" : 5E-1 } ] }\r\n",
		`{"requests":[]}`, `[]`, ``, `{}`, `[{}]`, `{"requests":null}`, `null`,
		`{"requests":[{"server":2,"t":1}]} garbage`, `[{"server":2,"t":1}] x`,
		`{"requests":[{"server":2,"t":1,"bogus":1}]}`, `[{"Server":2,"T":1}]`,
		`[{"server":2,"server":3}]`, `[{"server":2.0}]`, `[{"server":1e2}]`, `[{"server":-0,"t":-0}]`,
		`[{"server":99999999999999999999}]`, `[{"server":2,"t":1e400}]`, `[{"server":2,"t":1e-400}]`,
		`[{"server":2,"t":0.1e1}]`, `[{"server":2,"t":01}]`, `[{"server":2,"t":-}]`, `[{"server":2,"t":1.}]`,
		`[{"item":"a\"b","server":1}]`, `[{"item":"aé","server":1}]`, "[{\"item\":\"\xff\",\"server\":1}]",
		"[{\"item\":\"caf\xc3\xa9\",\"server\":1}]", `[{"item":null,"server":1}]`, `[{"item":"x","server":"1"}]`,
		`[{"server":2,"t":1},]`, `[{"server":2,"t":1}`, `{"requests":[{"server":2}],"requests":[]}`,
		`{"server":1}{"server":2}`, "\v[{\"server\":2}]", `[{"tenant":"<&>","item":"~\u007f"}]`,
	} {
		f.Add([]byte(body), false, []byte(nil))
		f.Add([]byte(body), true, []byte(nil))
	}
	for _, reply := range replySeeds() {
		f.Add([]byte(nil), false, reply)
	}
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool, reply []byte) {
		checkDecode[SessionBatchRequest](t, body, ndjson)
		checkDecode[PoolBatchRequestBody](t, body, ndjson)
		checkReplies(t, &replySource{b: reply})
	})
}

// TestScannerTakesCanonicalBodies pins which bodies the scanner reads
// itself: those json.Marshal writes from the request DTOs, in all three
// shapes, and the same with whitespace between tokens. Everything else
// FuzzBatchCodec's seeds hold goes to encoding/json, which is correct
// but not fast.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	items := []PoolServeRequest{
		{Tenant: "t0", Item: "i1", Server: 3, T: 0.125},
		{Item: "i2", Server: 16, T: 1e-7},
		{Tenant: "t1", Item: "i1", Server: 1, Time: 2.5e21},
	}
	obj, _ := json.Marshal(PoolBatchRequestBody{Requests: items})
	arr, _ := json.Marshal(items)
	var nd bytes.Buffer
	for _, it := range items {
		json.NewEncoder(&nd).Encode(it)
	}
	for _, c := range []struct {
		body   string
		ndjson bool
	}{
		{string(obj), false},
		{string(arr), false},
		{nd.String(), true},
		{" {\n\"requests\" : [ {\"item\" : \"a\" , \"server\" : 1 } ]\r\n}\t", false},
		{`{"requests":[]}`, false},
		{`[]`, false},
		{``, true},
	} {
		got, ok := scanBatch[PoolServeRequest]([]byte(c.body), c.ndjson)
		if !ok {
			t.Errorf("scanner refused %q (ndjson %v)", c.body, c.ndjson)
			continue
		}
		want, err := decodeBatchJSON[PoolBatchRequestBody]([]byte(c.body), c.ndjson)
		if err != nil || fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", append([]PoolServeRequest{}, want...)) {
			t.Errorf("%q: scanner read %#v, encoding/json %#v (%v)", c.body, got, want, err)
		}
	}
	for _, body := range []string{
		`[{"item":"aé","server":1}]`, `[{"Server":2}]`, `[{"server":2,"server":2}]`,
		`[{"server":null}]`, `[{"server":2,"t":1e400}]`, `[{"server":2.5}]`, `[{"server":2}] x`,
	} {
		if _, ok := scanBatch[PoolServeRequest]([]byte(body), false); ok {
			t.Errorf("scanner took %q, which is encoding/json's", body)
		}
	}
}

// checkSingle requires decodeRequest, the scanner with its fallback, to
// read a single request's body exactly as decodeValue does: the same
// verdict, the same error message, and a request equal bit for bit.
func checkSingle[T any, P requestObject[T]](t *testing.T, body []byte) {
	t.Helper()
	var got, want T
	gotErr := decodeRequest[T, P](httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/x/request", bytes.NewReader(body)), &got)
	wantErr := decodeValue(body, &want)
	if wantErr != nil {
		wantErr = fmt.Errorf("bad request body: %w", wantErr)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T body %q: decodeRequest error %v, encoding/json %v", got, body, gotErr, wantErr)
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); wantErr == nil && g != w {
		t.Fatalf("body %q: decodeRequest read %s, encoding/json %s", body, g, w)
	}
}

// checkSingleReplies generates one session and one pool decision from
// src and holds each single-reply appender to encoding/json.
func checkSingleReplies(t *testing.T, src *replySource) {
	t.Helper()
	id, n, d := src.string(), src.int(), src.decision()
	got, err := appendSessionDecision([]byte("kept"), id, n, &d)
	if !bytes.HasPrefix(got, []byte("kept")) {
		t.Fatalf("appendSessionDecision overwrote the buffer it appends to: %q", got)
	}
	checkReply(t, "session decision", got[len("kept"):], err, SessionDecision{
		ID: id, N: n, Server: d.Server, Time: d.Time, Hit: d.Hit, From: d.From,
		Cost: d.Cost, Optimal: d.Optimal, Ratio: d.Ratio, Regret: d.Regret,
	})
	pd := src.poolDecision()
	got, err = appendPoolDecision(nil, id, &pd)
	checkReply(t, "pool decision", got, err, poolDecisionDTO(id, pd))
}

// singleReplySeeds lays out reply bytes in the order checkSingleReplies
// reads them, as replySeeds does for checkReplies: seed k puts
// edgeFloats[k] in every float slot, the second seed of each pair sets
// from and revived, and the strings cycle through ones that need
// escaping.
func singleReplySeeds() [][]byte {
	strs := []string{"<s&1>", `q"uo\te`, "ctl\x00\x1f\n", "sep\u2028\u2029", "bad\xff\xfe", "caf\u00e9~\x7f", "pl-1", ""}
	var seeds [][]byte
	for k := range edgeFloats {
		for flag := byte(0); flag < 2; flag++ {
			var b []byte
			str := func(i int) {
				s := strs[(2*k+int(flag)+i)%len(strs)]
				b = append(append(b, byte(len(s))), s...)
			}
			decision := func() { // server 3, from server 2 when flagged
				b = append(b, 3, byte(k), flag, 2*flag, byte(k), byte(k), byte(k), byte(k))
			}
			str(0)           // id
			b = append(b, 7) // n
			decision()
			decision()
			str(1) // tenant
			str(2) // item
			b = append(b, flag, byte(k), byte(k), byte(k), byte(k), byte(k))
			seeds = append(seeds, b)
		}
	}
	return seeds
}

// FuzzSingleCodec holds the single-request codec to encoding/json. The
// body is read as a session request and as a pool request, and
// checkSingle compares the scanner's reading with decodeValue's. The
// reply bytes generate one session and one pool decision, and
// checkSingleReplies compares each appender's output with
// json.NewEncoder's.
func FuzzSingleCodec(f *testing.F) {
	for _, body := range []string{
		`{"server":2,"time":0.5}`, `{"time":0.5,"server":2}`, `{"item":"a","server":1,"t":4}`,
		`{"tenant":"acme","item":"a","server":2,"time":1}`, " {\n\"server\" : 2 ,\t\"time\" : 5E-1 }\r\n",
		`{"server":2,"time":1e-6}`, `{"server":2,"time":9.999999999999999e-7}`, `{"server":2,"time":1e21}`,
		`{"server":2,"time":999999999999999900000}`, `{"server":-0,"time":-0}`, `{"server":2,"time":-0.0}`,
		`{"server":2,"time":5e-324}`, `{"server":2,"time":2.2250738585072014e-308}`, `{"server":2,"time":1e-400}`,
		`{"server":2,"time":1e400}`, `{"server":2,"time":NaN}`, `{"server":2,"time":Infinity}`,
		`{"server":99999999999999999999}`, `{"server":2.0}`, `{"server":1e2}`, `{"server":"2"}`, `{"server":null}`,
		`{"server":2,"t":1}`, `{"Server":2,"Time":1}`, `{"server":2,"server":3}`, `{"server":2,"time":1,"bogus":1}`,
		`{"server":2,"time":1} junk`, `{"server":3,"time":2}{"server":4,"time":3}`, `{"server":2,"time":1}` + "\n",
		`{"item":"a\"b","server":1}`, `{"item":"a\u00e9","server":1}`, `{"item":"aé","server":1}`,
		"{\"item\":\"\xff\",\"server\":1}", `{"tenant":"<&>","item":"~\u007f"}`, `{"item":null,"server":1}`,
		`{"item":"x","time":1,"t":2}`, `{}`, `null`, ``, `[]`, `[{"server":2}]`, `{"server":2,}`, `{"server":2`,
	} {
		f.Add([]byte(body), []byte(nil))
	}
	for _, reply := range singleReplySeeds() {
		f.Add([]byte(nil), reply)
	}
	f.Fuzz(func(t *testing.T, body, reply []byte) {
		checkSingle[StreamAppendRequest](t, body)
		checkSingle[PoolServeRequest](t, body)
		checkSingleReplies(t, &replySource{b: reply})
	})
}
