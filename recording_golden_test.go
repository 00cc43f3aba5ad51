package datacache

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"datacache/internal/offline"
	"datacache/internal/recorder"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// recordGoldenWorkload records, from one goroutine, the Fig. 6 session
// (each serve stamped with a trace id) and a seeded pool churning nine
// keys through three engines. The Fig. 6 stream stays open while the
// pool runs, so every rotation re-emits it alongside the pool's live
// incarnations.
func recordGoldenWorkload(t *testing.T, dir, mode string) {
	t.Helper()
	w, err := recorder.NewWriter(recorder.Options{Dir: dir, Mode: mode, RotateBytes: 2048, Source: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	seq, cm := offline.Fig6Instance()
	sess, err := NewSession(seq.M, seq.Origin, cm, &SessionOptions{Recorder: w, RecordSession: "sn-1"})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range seq.Requests {
		sess.SetRecordTraceID(fmt.Sprintf("%032x", i+1))
		if _, err := sess.Serve(r.Server, r.Time); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := NewPool(4, 1, CostModel{Mu: 1, Lambda: 1.5}, &PoolOptions{
		Session:  SessionOptions{Recorder: w, RecordSession: "pl-1"},
		MaxItems: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	tm := 0.0
	for i := 0; i < 100; i++ {
		tm += rng.ExpFloat64()
		tenant, item := fmt.Sprintf("t%d", rng.Intn(3)), fmt.Sprintf("i%d", rng.Intn(3))
		if _, err := pool.Serve(tenant, item, ServerID(rng.Intn(4)+1), tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordingGoldenBytes pins every byte the flight recorder writes for
// one producing goroutine, in both encodings: the file names, the
// headers, each frame, the Resumed opens rotation re-emits and where
// rotation cuts. Regenerate testdata/dcrec-v2 with -update only when
// the recording is meant to change.
func TestRecordingGoldenBytes(t *testing.T) {
	for _, mode := range []string{recorder.ModeBinary, recorder.ModeNDJSON} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			recordGoldenWorkload(t, dir, mode)
			golden := filepath.Join("testdata", "dcrec-v2", mode)
			got := readDir(t, dir)
			if *update {
				if err := os.RemoveAll(golden); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(golden, 0o755); err != nil {
					t.Fatal(err)
				}
				for name, data := range got {
					if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := readDir(t, golden)
			if len(got) < 3 {
				t.Fatalf("recorded %d files; the workload must rotate at least twice", len(got))
			}
			if len(got) != len(want) {
				t.Fatalf("recorded %d files, golden has %d", len(got), len(want))
			}
			for name, data := range got {
				if !bytes.Equal(data, want[name]) {
					t.Errorf("%s differs from its golden (%d bytes recorded, %d golden)", name, len(data), len(want[name]))
				}
			}
		})
	}
}

// readDir maps every file name in dir to its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
