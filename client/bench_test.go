package client_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"datacache"
	"datacache/client"
	"datacache/internal/service"
)

// The serving benchmarks measure end-to-end requests/sec through the HTTP
// surface — the number the batch endpoint exists to improve. Both report
// ns per *request* (the batch benchmark drives b.N requests in chunks),
// so the ratio of the two is the batch speedup directly. Sessions rotate
// every few thousand requests to keep the growth of a long-lived
// session's streaming DP from dominating either side.

const benchRotate = 4096

// benchShadows is the four-policy panel the shadowed benchmarks run in
// lockstep with the live engine; the shadowed/unshadowed ratio is the
// counterfactual-accounting overhead through the full HTTP surface.
var benchShadows = []string{"ttl:window=1", "sc:epoch=16", "migrate", "replicate"}

type benchSession struct {
	cl      *client.Client
	sess    *client.Session
	shadows []string
	t       float64
	n       int
}

func newBenchSession(b *testing.B, cl *client.Client, shadows []string) *benchSession {
	b.Helper()
	s := &benchSession{cl: cl, shadows: shadows}
	s.rotate(b)
	return s
}

func (s *benchSession) rotate(b *testing.B) {
	b.Helper()
	sess, err := s.cl.CreateSession(context.Background(), client.SessionConfig{
		M: 8, Origin: 1, Mu: 1, Lambda: 2, Shadows: s.shadows,
	})
	if err != nil {
		b.Fatal(err)
	}
	if s.sess != nil {
		s.sess.Close(context.Background())
	}
	s.sess, s.t, s.n = sess, 0, 0
}

func (s *benchSession) next() (datacache.ServerID, float64) {
	s.t += 0.25
	s.n++
	return datacache.ServerID(1 + s.n%8), s.t
}

func benchServeSingle(b *testing.B, shadows []string) {
	ts := httptest.NewServer(service.New())
	defer ts.Close()
	s := newBenchSession(b, client.New(ts.URL), shadows)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.n >= benchRotate {
			b.StopTimer()
			s.rotate(b)
			b.StartTimer()
		}
		srv, t := s.next()
		if _, err := s.sess.Serve(ctx, srv, t); err != nil {
			b.Fatal(err)
		}
	}
}

func benchServeBatch64(b *testing.B, shadows []string) {
	ts := httptest.NewServer(service.New())
	defer ts.Close()
	s := newBenchSession(b, client.New(ts.URL), shadows)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for served := 0; served < b.N; {
		if s.n >= benchRotate {
			b.StopTimer()
			s.rotate(b)
			b.StartTimer()
		}
		size := 64
		if rem := b.N - served; rem < size {
			size = rem
		}
		reqs := make([]client.Request, size)
		for j := range reqs {
			srv, t := s.next()
			reqs[j] = client.Request{Server: srv, T: t}
		}
		res, err := s.sess.ServeBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstRejected != -1 {
			b.Fatalf("batch rejected at %d: %s", res.FirstRejected, res.RejectReason)
		}
		served += size
	}
}

func BenchmarkServeSingle(b *testing.B)  { benchServeSingle(b, nil) }
func BenchmarkServeBatch64(b *testing.B) { benchServeBatch64(b, nil) }

func BenchmarkServeSingleShadowed(b *testing.B)  { benchServeSingle(b, benchShadows) }
func BenchmarkServeBatch64Shadowed(b *testing.B) { benchServeBatch64(b, benchShadows) }
