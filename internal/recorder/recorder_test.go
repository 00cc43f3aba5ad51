package recorder

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sampleRecords builds a deterministic open + n-serve recording for one
// stream, with bit-exact float totals worth asserting on.
func sampleRecords(stream uint32, n int) []Record {
	recs := []Record{{
		Kind:   KindOpen,
		Stream: stream,
		Info: &StreamInfo{
			Session: "sn-1", M: 4, Origin: 1, Mu: 1, Lambda: 2, Policy: "sc",
		},
	}}
	cost, opt := 0.0, 0.0
	for i := 0; i < n; i++ {
		cost += 0.1 * float64(i+1) // accumulates representation error on purpose
		opt += 0.07 * float64(i+1)
		recs = append(recs, Record{
			Kind:    KindServe,
			Stream:  stream,
			Time:    float64(i+1) * 0.5,
			Server:  i%4 + 1,
			From:    (i + 1) % 4,
			Hit:     i%3 == 0,
			Drops:   i % 2,
			Cost:    cost,
			Optimal: opt,
			TraceID: fmt.Sprintf("%032x", i),
		})
	}
	return recs
}

func encodeAll(t *testing.T, mode string, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, mode, "test")
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripBothModes(t *testing.T) {
	recs := sampleRecords(1, 25)
	for _, mode := range []string{ModeBinary, ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			data := encodeAll(t, mode, recs)
			got, err := ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if got.Truncated {
				t.Fatal("clean recording reported truncated")
			}
			if got.Mode != mode {
				t.Fatalf("mode = %q, want %q", got.Mode, mode)
			}
			if got.Meta.Source != "test" || got.Meta.Version != FormatVersion {
				t.Fatalf("meta = %+v", got.Meta)
			}
			if len(got.Records) != len(recs) {
				t.Fatalf("decoded %d records, want %d", len(got.Records), len(recs))
			}
			for i, want := range recs {
				g := got.Records[i]
				if g.Kind != want.Kind || g.Stream != want.Stream {
					t.Fatalf("record %d: kind/stream %v/%d, want %v/%d", i, g.Kind, g.Stream, want.Kind, want.Stream)
				}
				if want.Kind == KindOpen {
					if g.Info == nil || *g.Info != *want.Info {
						t.Fatalf("record %d: info %+v, want %+v", i, g.Info, want.Info)
					}
					continue
				}
				// Bit-for-bit float fidelity is the whole point.
				if math.Float64bits(g.Cost) != math.Float64bits(want.Cost) ||
					math.Float64bits(g.Optimal) != math.Float64bits(want.Optimal) ||
					math.Float64bits(g.Time) != math.Float64bits(want.Time) {
					t.Fatalf("record %d: floats not bitwise equal: %+v vs %+v", i, g, want)
				}
				if g.Server != want.Server || g.From != want.From || g.Hit != want.Hit ||
					g.Drops != want.Drops || g.TraceID != want.TraceID {
					t.Fatalf("record %d: %+v, want %+v", i, g, want)
				}
			}
			if info, ok := got.Streams[1]; !ok || info.Session != "sn-1" {
				t.Fatalf("stream table missing stream 1: %+v", got.Streams)
			}
		})
	}
}

// TestTornTailEveryByteOffset is the crash-tolerance sweep: truncate the
// recording at every byte offset inside the final frame (and at every
// offset of the whole file, for good measure in a second loop) and
// assert the reader recovers exactly the longest valid prefix — no
// panic, no partial record, exact cost totals for the prefix.
func TestTornTailEveryByteOffset(t *testing.T) {
	recs := sampleRecords(1, 8)
	for _, mode := range []string{ModeBinary, ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			full := encodeAll(t, mode, recs)
			withoutLast := encodeAll(t, mode, recs[:len(recs)-1])
			lastStart := len(withoutLast)
			if lastStart >= len(full) {
				t.Fatalf("final frame is empty (%d >= %d)", lastStart, len(full))
			}
			// A cut exactly on the frame boundary is a clean shorter file,
			// not a torn one.
			atBoundary, err := ReadAll(bytes.NewReader(full[:lastStart]))
			if err != nil {
				t.Fatal(err)
			}
			if atBoundary.Truncated || len(atBoundary.Records) != len(recs)-1 {
				t.Fatalf("boundary cut: %d records, truncated=%v", len(atBoundary.Records), atBoundary.Truncated)
			}
			want := recs[len(recs)-2] // totals of the last intact record
			for cut := lastStart + 1; cut < len(full); cut++ {
				got, err := ReadAll(bytes.NewReader(full[:cut]))
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if !got.Truncated {
					t.Fatalf("cut %d: truncation not detected", cut)
				}
				if len(got.Records) != len(recs)-1 {
					t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got.Records), len(recs)-1)
				}
				last := got.Records[len(got.Records)-1]
				if math.Float64bits(last.Cost) != math.Float64bits(want.Cost) ||
					math.Float64bits(last.Optimal) != math.Float64bits(want.Optimal) {
					t.Fatalf("cut %d: prefix totals %v/%v, want %v/%v",
						cut, last.Cost, last.Optimal, want.Cost, want.Optimal)
				}
			}
			// Whole-file sweep: any cut must recover some valid prefix
			// without panicking; cuts inside the header fail to parse at
			// all, which is fine as long as it is an error, not a panic.
			for cut := 0; cut <= len(full); cut++ {
				rec, err := ReadAll(bytes.NewReader(full[:cut]))
				if err != nil {
					continue
				}
				if cut == len(full) {
					if rec.Truncated || len(rec.Records) != len(recs) {
						t.Fatalf("full read lost records: %d/%d truncated=%v", len(rec.Records), len(recs), rec.Truncated)
					}
				} else if len(rec.Records) > len(recs) {
					t.Fatalf("cut %d: invented records", cut)
				}
			}
		})
	}
}

// TestTornTailCorruption flips a byte inside the final binary frame and
// asserts the checksum rejects it, recovering the prefix.
func TestTornTailCorruption(t *testing.T) {
	recs := sampleRecords(1, 5)
	full := encodeAll(t, ModeBinary, recs)
	withoutLast := len(encodeAll(t, ModeBinary, recs[:len(recs)-1]))
	corrupt := append([]byte(nil), full...)
	corrupt[withoutLast+10] ^= 0xFF // inside the final frame's payload
	got, err := ReadAll(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated || len(got.Records) != len(recs)-1 {
		t.Fatalf("corrupt tail: %d records, truncated=%v", len(got.Records), got.Truncated)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	for _, mode := range []string{ModeBinary, ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewWriter(Options{Dir: dir, Mode: mode, Source: "unit"})
			if err != nil {
				t.Fatal(err)
			}
			id := w.OpenStream(StreamInfo{Session: "sn-9", M: 3, Origin: 1, Mu: 1, Lambda: 1, Policy: "sc"})
			if id != 1 {
				t.Fatalf("first stream id = %d", id)
			}
			for i := 0; i < 100; i++ {
				if err := w.Append(Record{
					Kind: KindServe, Stream: id, Time: float64(i + 1),
					Server: i%3 + 1, Cost: float64(i) * 1.5, Optimal: float64(i),
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			if st.Records != 101 || st.Dropped != 0 || st.Files != 1 || st.Mode != mode {
				t.Fatalf("stats = %+v", st)
			}
			if st.Fsyncs == 0 {
				t.Fatalf("explicit Sync did not fsync: %+v", st)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !w.Closed() {
				t.Fatal("Closed() false after Close")
			}
			if err := w.Append(Record{Kind: KindServe, Stream: id}); err == nil {
				t.Fatal("append after close succeeded")
			}
			if w.Stats().Dropped != 1 {
				t.Fatalf("post-close append not counted dropped: %+v", w.Stats())
			}
			recs, err := ReadPath(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Truncated {
				t.Fatalf("read %d recordings, truncated=%v", len(recs), recs[0].Truncated)
			}
			if got := recs[0].ServeCount(); got != 100 {
				t.Fatalf("serve count = %d", got)
			}
			if info := recs[0].Streams[id]; info == nil || info.Session != "sn-9" {
				t.Fatalf("stream info lost: %+v", recs[0].Streams)
			}
		})
	}
}

func TestWriterRotationReEmitsStreams(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Options{Dir: dir, RotateBytes: 512, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	id := w.OpenStream(StreamInfo{Session: "sn-7", M: 2, Origin: 1, Mu: 1, Lambda: 1, Policy: "sc"})
	for i := 0; i < 200; i++ {
		if err := w.Append(Record{Kind: KindServe, Stream: id, Time: float64(i + 1), Server: 1,
			TraceID: "00112233445566778899aabbccddeeff"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Rotations == 0 || st.Files < 2 {
		t.Fatalf("expected rotation: %+v", st)
	}
	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(st.Files) {
		t.Fatalf("read %d files, stats say %d", len(recs), st.Files)
	}
	total := 0
	for i, rec := range recs {
		if rec.Truncated {
			t.Fatalf("file %d truncated", i)
		}
		info := rec.Streams[id]
		if info == nil {
			t.Fatalf("file %d (%s) is not self-contained: stream %d undeclared", i, rec.Path, id)
		}
		if i == 0 && info.Resumed {
			t.Fatal("first file's open marked resumed")
		}
		if i > 0 && !info.Resumed {
			t.Fatalf("file %d's re-emitted open not marked resumed", i)
		}
		total += rec.ServeCount()
	}
	if total != 200 {
		t.Fatalf("serve records across files = %d, want 200", total)
	}
}

func TestWriterSyncInterval(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Options{Dir: dir, Sync: SyncInterval, SyncInterval: 10 * time.Millisecond, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	id := w.OpenStream(StreamInfo{Session: "sn-3", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	deadline := time.Now().Add(2 * time.Second)
	for w.Stats().Fsyncs == 0 && time.Now().Before(deadline) {
		_ = w.Append(Record{Kind: KindServe, Stream: id, Time: float64(time.Now().UnixNano()), Server: 1})
		time.Sleep(time.Millisecond)
	}
	if w.Stats().Fsyncs == 0 {
		t.Fatal("interval sync never fired")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterTornFileRecoversOnRead(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Options{Dir: dir, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	id := w.OpenStream(StreamInfo{Session: "sn-5", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	for i := 0; i < 50; i++ {
		_ = w.Append(Record{Kind: KindServe, Stream: id, Time: float64(i + 1), Server: 1, Cost: float64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := w.Files()[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-final-frame.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("truncation not detected")
	}
	if got := rec.ServeCount(); got != 49 {
		t.Fatalf("recovered %d serves, want 49", got)
	}
}

func TestReadPathRejectsEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadPath(dir); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := ReadPath(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing path accepted")
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := NewWriter(Options{}); err == nil {
		t.Fatal("missing dir accepted")
	}
	if _, err := NewWriter(Options{Dir: t.TempDir(), Mode: "xml"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := NewWriter(Options{Dir: t.TempDir(), Sync: "sometimes"}); err == nil {
		t.Fatal("bad sync policy accepted")
	}
	if _, err := NewEncoder(&bytes.Buffer{}, "xml", ""); err == nil {
		t.Fatal("bad encoder mode accepted")
	}
}

func TestCloseStreamStopsReEmission(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Options{Dir: dir, RotateBytes: 256, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	a := w.OpenStream(StreamInfo{Session: "sn-a", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	b := w.OpenStream(StreamInfo{Session: "sn-b", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	w.CloseStream(a)
	for i := 0; i < 100; i++ {
		_ = w.Append(Record{Kind: KindServe, Stream: b, Time: float64(i + 1), Server: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("expected rotation, got %d files", len(recs))
	}
	last := recs[len(recs)-1]
	if last.Streams[a] != nil {
		t.Fatal("closed stream re-emitted after rotation")
	}
	if last.Streams[b] == nil {
		t.Fatal("live stream not re-emitted after rotation")
	}
}

// TestWriterFailedRotationKeepsRecording blocks the next file's path
// with a directory, which fails the create even for root. Recording must
// carry on in the current file: every serve stays readable, none is
// dropped, and Close reports the failed create.
func TestWriterFailedRotationKeepsRecording(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "dcrec-000002.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(Options{Dir: dir, RotateBytes: 2048, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	id := w.OpenStream(StreamInfo{Session: "sn-4", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	for i := 0; i < 200; i++ {
		if err := w.Append(Record{Kind: KindServe, Stream: id, Time: float64(i + 1), Server: 1}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close did not report the failed rotation")
	}
	if st := w.Stats(); st.Records != 201 || st.Dropped != 0 || st.Files != 1 {
		t.Fatalf("stats = %+v, want 201 records, none dropped, 1 file", st)
	}
	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Truncated {
		t.Fatalf("read %d recordings, truncated=%v", len(recs), recs[0].Truncated)
	}
	if got := recs[0].ServeCount(); got != 200 {
		t.Fatalf("file 1 holds %d serves, want all 200", got)
	}
}

// TestWriterRotationRetryIsBounded: while the next file cannot be
// created, records keep landing in the current one without retrying the
// create on every record; once the path frees up, the retry after
// another RotateBytes opens file 2 and the serves replay in order across
// both files.
func TestWriterRotationRetryIsBounded(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "dcrec-000002.wal")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	const rotate = 2048
	w, err := NewWriter(Options{Dir: dir, RotateBytes: rotate, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	id := w.OpenStream(StreamInfo{Session: "sn-5", M: 2, Origin: 1, Mu: 1, Lambda: 1})
	n := 0
	appendOne := func() {
		n++
		if err := w.Append(Record{Kind: KindServe, Stream: id, Time: float64(n), Server: 1}); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
	}
	for w.err == nil { // up to the first failed rotation
		appendOne()
	}
	// 21 more records stay well under another RotateBytes, so none of
	// them retries the create.
	if allocs := testing.AllocsPerRun(20, appendOne); allocs != 0 {
		t.Errorf("an Append past a failed rotation allocates %v objects, want 0", allocs)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for start := w.cur.logicalSize(); w.Stats().Files == 1; {
		if w.cur.logicalSize()-start > rotate {
			t.Fatalf("no rotation after another %d bytes", rotate)
		}
		appendOne()
	}
	for i := 0; i < 10; i++ {
		appendOne()
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "dcrec-000002.wal") {
		t.Fatalf("Close = %v, want the first failed rotation", err)
	}
	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d files, want 2", len(recs))
	}
	next := 1
	for _, rec := range recs {
		if rec.Truncated || rec.Streams[id] == nil {
			t.Fatalf("%s: truncated=%v, stream declared=%v", rec.Path, rec.Truncated, rec.Streams[id] != nil)
		}
		for _, r := range rec.Records {
			if r.Kind != KindServe {
				continue
			}
			if r.Time != float64(next) {
				t.Fatalf("%s: serve at %v, want %d", rec.Path, r.Time, next)
			}
			next++
		}
	}
	if next-1 != n {
		t.Fatalf("replayed %d serves, appended %d", next-1, n)
	}
}

// TestWriterConcurrentHammer races every Writer entry point. Producers
// open, append to and close their own streams under a small rotation
// bound and a 1 ms fsync timer; another goroutine flushes, syncs and
// reads the stats and file list; Close lands mid-traffic. Afterwards
// each stream's serves read back in append order, every file declares
// each stream whose serves it holds, and each open and append is
// counted exactly once, as a record or as a drop.
func TestWriterConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(Options{Dir: dir, Sync: SyncInterval, SyncInterval: time.Millisecond, RotateBytes: 1024, Source: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	const producers, streamsEach, appendsEach = 4, 6, 120
	const calls = producers * streamsEach * (1 + appendsEach)
	var made atomic.Int64 // opens and appends issued
	var mu sync.Mutex
	accepted := map[uint32]int{} // serves Append took, per stream
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := 0; s < streamsEach; s++ {
				id := w.OpenStream(StreamInfo{Session: fmt.Sprintf("sn-%d-%d", p, s), M: 2, Origin: 1, Mu: 1, Lambda: 1})
				made.Add(1)
				n := 0
				for i := 0; i < appendsEach; i++ {
					if w.Append(Record{Kind: KindServe, Stream: id, Time: float64(i + 1), Server: 1}) == nil {
						n++
					}
					made.Add(1)
				}
				w.CloseStream(id)
				mu.Lock()
				accepted[id] = n
				mu.Unlock()
			}
		}(p)
	}
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = w.Flush()
			_ = w.Sync()
			_ = w.Stats()
			_ = w.Files()
		}
	}()
	for made.Load() < calls/2 {
		runtime.Gosched()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	side.Wait()

	st := w.Stats()
	if st.Records+st.Dropped != calls {
		t.Fatalf("records %d + dropped %d != %d opens and appends", st.Records, st.Dropped, calls)
	}
	t.Logf("%d recorded, %d dropped after Close, %d files", st.Records, st.Dropped, st.Files)
	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	serves := map[uint32]int{}
	for _, rec := range recs {
		if rec.Truncated {
			t.Fatalf("%s truncated", rec.Path)
		}
		declared := map[uint32]bool{}
		for _, r := range rec.Records {
			if r.Kind == KindOpen {
				declared[r.Stream] = true
				continue
			}
			if !declared[r.Stream] {
				t.Fatalf("%s holds a serve of stream %d before declaring it", rec.Path, r.Stream)
			}
			serves[r.Stream]++
			if r.Time != float64(serves[r.Stream]) {
				t.Fatalf("stream %d: serve %d reads back at time %v", r.Stream, serves[r.Stream], r.Time)
			}
		}
	}
	for id, n := range accepted {
		if serves[id] != n {
			t.Errorf("stream %d: %d serves read back, Append took %d", id, serves[id], n)
		}
	}
	if len(serves) > len(accepted) {
		t.Errorf("%d streams read back, %d opened", len(serves), len(accepted))
	}
}
