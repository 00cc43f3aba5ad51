package recorder

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy names when the writer fsyncs the recording file.
const (
	// SyncNone fsyncs only on Close and explicit Sync calls (fastest;
	// a crash may lose buffered records — the torn-tail reader recovers
	// the durable prefix).
	SyncNone = "none"
	// SyncInterval fsyncs on a timer (Options.SyncInterval).
	SyncInterval = "interval"
	// SyncAlways fsyncs after every record, before the call that wrote
	// it returns (durable, slowest).
	SyncAlways = "always"
)

// DefaultSyncInterval is the SyncInterval timer period unless
// Options.SyncInterval overrides it.
const DefaultSyncInterval = time.Second

// Options configures a Writer.
type Options struct {
	// Dir is the directory recording files are created in (required;
	// created if missing).
	Dir string
	// Mode selects the encoding: ModeBinary (default) or ModeNDJSON.
	Mode string
	// Sync selects the fsync policy: SyncNone (default), SyncInterval or
	// SyncAlways.
	Sync string
	// SyncInterval is the SyncInterval timer period (default
	// DefaultSyncInterval).
	SyncInterval time.Duration
	// RotateBytes starts a new file once the current one reaches this
	// size (0 disables size rotation).
	RotateBytes int64
	// RotateAge starts a new file once the current one is this old
	// (0 disables age rotation).
	RotateAge time.Duration
	// Source names the writing process in each file's header.
	Source string
}

// Stats is a point-in-time writer readout, feeding the dc_recorder_*
// gauges. Reading it never waits on a write or an fsync.
type Stats struct {
	Records   int64  `json:"records"` // records handed to the encoder
	Bytes     int64  `json:"bytes"`   // bytes written across all files
	Fsyncs    int64  `json:"fsyncs"`
	Dropped   int64  `json:"dropped"` // records that failed to encode or arrived after close
	Rotations int64  `json:"rotations"`
	Files     int64  `json:"files"`
	Mode      string `json:"mode"`
}

var errClosed = errors.New("recorder: writer is closed")

// Writer is the flight-recorder sink. Every call encodes and writes on
// the calling goroutine under one lock, so a record costs one encode
// into the file buffer, and a stream's records land in the order its
// owner made them. All methods are safe for concurrent use, Close
// included: records arriving after Close are counted as dropped.
type Writer struct {
	opts  Options
	timer *time.Timer // SyncInterval's fsync timer; nil under other policies

	mu      sync.Mutex
	cur     *file                 // the file being written
	streams map[uint32]StreamInfo // live streams, re-emitted on rotation
	lastID  uint32                // stream ids are minted in open order
	paths   []string              // every file created, oldest first
	err     error                 // first write error, reported by Close

	// Counters and the closed flag are atomic so Stats and Closed never
	// wait for the lock.
	closed    atomic.Bool
	records   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	dropped   atomic.Int64
	rotations atomic.Int64
	files     atomic.Int64
}

// NewWriter opens a recording writer: it creates Dir, starts the first
// file and, under SyncInterval, arms the fsync timer.
func NewWriter(opts Options) (*Writer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("recorder: Options.Dir is required")
	}
	if opts.Mode == "" {
		opts.Mode = ModeBinary
	}
	if !ValidMode(opts.Mode) {
		return nil, fmt.Errorf("recorder: unknown mode %q (binary|ndjson)", opts.Mode)
	}
	switch opts.Sync {
	case "":
		opts.Sync = SyncNone
	case SyncNone, SyncInterval, SyncAlways:
	default:
		return nil, fmt.Errorf("recorder: unknown sync policy %q (none|interval|always)", opts.Sync)
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recorder: creating %s: %w", opts.Dir, err)
	}
	w := &Writer{opts: opts, streams: map[uint32]StreamInfo{}}
	var err error
	if w.cur, err = w.openFile(1); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		// Under the lock, so the first tick sees the timer it re-arms.
		w.mu.Lock()
		w.timer = time.AfterFunc(opts.SyncInterval, w.syncTick)
		w.mu.Unlock()
	}
	return w, nil
}

// Mode returns the writer's encoding.
func (w *Writer) Mode() string { return w.opts.Mode }

// Dir returns the recording directory.
func (w *Writer) Dir() string { return w.opts.Dir }

// Closed reports whether Close has been called.
func (w *Writer) Closed() bool { return w.closed.Load() }

// Stats snapshots the writer's counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Records:   w.records.Load(),
		Bytes:     w.bytes.Load(),
		Fsyncs:    w.fsyncs.Load(),
		Dropped:   w.dropped.Load(),
		Rotations: w.rotations.Load(),
		Files:     w.files.Load(),
		Mode:      w.opts.Mode,
	}
}

// Files returns the recording file paths created so far, oldest first.
func (w *Writer) Files() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.paths)
}

// OpenStream declares a new stream (one engine incarnation), writes its
// open record and returns its id. The stream joins the rotation table
// before its open record is written, so an open that itself fills the
// file is re-emitted at the head of the next one.
func (w *Writer) OpenStream(info StreamInfo) uint32 {
	info.Resumed = false
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastID++
	id := w.lastID
	if w.closed.Load() {
		w.dropped.Add(1)
		return id
	}
	w.streams[id] = info
	// A failed write is counted as dropped and reported by Close.
	_ = w.write(&Record{Kind: KindOpen, Stream: id, Info: &info})
	return id
}

// CloseStream retires a stream: later rotations stop re-emitting its
// open record.
func (w *Writer) CloseStream(id uint32) {
	w.mu.Lock()
	delete(w.streams, id)
	w.mu.Unlock()
}

// Append writes one serve record. A closed writer drops it, as does a
// failed encode; both count in Stats.Dropped.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		w.dropped.Add(1)
		return errClosed
	}
	return w.write(&rec)
}

// Flush hands every record written so far to the operating system
// (buffered bytes flushed, no fsync).
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return errClosed
	}
	return w.cur.enc.Flush()
}

// Sync flushes and fsyncs the current file.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return errClosed
	}
	return w.sync()
}

// Close flushes, fsyncs and closes the recording and stops the fsync
// timer. It is idempotent, and returns the first write error the writer
// hit, if any.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Swap(true) {
		return w.err
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.setErr(w.sync())
	w.setErr(w.cur.f.Close())
	return w.err
}

// syncTick is the SyncInterval timer: it fsyncs the current file and
// re-arms until Close. It holds the lock across the fsync, once per
// interval.
func (w *Writer) syncTick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return
	}
	w.setErr(w.sync())
	w.timer.Reset(w.opts.SyncInterval)
}

// write encodes one record into the current file, applies the fsync
// policy and rotates when the file is full. The caller holds w.mu.
func (w *Writer) write(rec *Record) error {
	if err := w.cur.enc.Encode(rec); err != nil {
		w.setErr(err)
		w.dropped.Add(1)
		return err
	}
	w.records.Add(1)
	if w.opts.Sync == SyncAlways {
		w.setErr(w.sync())
	}
	if w.shouldRotate() {
		w.setErr(w.rotate())
	}
	return nil
}

// sync flushes and fsyncs the current file. The caller holds w.mu.
func (w *Writer) sync() error {
	if err := w.cur.enc.Flush(); err != nil {
		return err
	}
	if err := w.cur.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	return nil
}

func (w *Writer) setErr(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *Writer) shouldRotate() bool {
	if w.opts.RotateBytes > 0 && w.cur.logicalSize() >= w.cur.rotateSize {
		return true
	}
	return w.opts.RotateAge > 0 && !time.Now().Before(w.cur.rotateAt)
}

// rotate creates the next file, then finishes the current one, so a
// failed create leaves recording on the current file; it retries once
// another RotateBytes or RotateAge has gone by, not on every record. The
// new file opens with every live stream's open record, marked Resumed
// and in open order, so it replays on its own.
func (w *Writer) rotate() error {
	next, err := w.openFile(w.cur.seq + 1)
	if err != nil {
		w.cur.rotateSize = w.cur.logicalSize() + w.opts.RotateBytes
		w.cur.rotateAt = time.Now().Add(w.opts.RotateAge)
		return err
	}
	err = w.sync()
	if cerr := w.cur.f.Close(); err == nil {
		err = cerr
	}
	w.cur = next
	w.rotations.Add(1)
	ids := make([]uint32, 0, len(w.streams))
	for id := range w.streams {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		info := w.streams[id]
		info.Resumed = true
		if eerr := next.enc.Encode(&Record{Kind: KindOpen, Stream: id, Info: &info}); eerr != nil {
			return eerr
		}
	}
	return err
}

// file is one recording file: the OS file, its encoder, and what
// rotation checks. The encoder writes through it, counting bytes.
type file struct {
	w    *Writer
	f    *os.File
	enc  *Encoder
	seq  int
	size int64 // bytes written to f
	// Rotation thresholds, moved forward by a failed rotation.
	rotateSize int64
	rotateAt   time.Time
}

// logicalSize counts the bytes still in the encoder's buffer too.
func (c *file) logicalSize() int64 { return c.size + int64(c.enc.Buffered()) }

func (c *file) Write(p []byte) (int, error) {
	n, err := c.f.Write(p)
	c.size += int64(n)
	c.w.bytes.Add(int64(n))
	return n, err
}

// openFile starts recording file seq: creates it, writes the header and
// registers the path.
func (w *Writer) openFile(seq int) (*file, error) {
	ext := "wal"
	if w.opts.Mode == ModeNDJSON {
		ext = "ndjson"
	}
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("dcrec-%06d.%s", seq, ext))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("recorder: creating %s: %w", path, err)
	}
	c := &file{w: w, f: f, seq: seq, rotateSize: w.opts.RotateBytes, rotateAt: time.Now().Add(w.opts.RotateAge)}
	if c.enc, err = NewEncoder(c, w.opts.Mode, w.opts.Source); err != nil {
		f.Close()
		return nil, err
	}
	w.paths = append(w.paths, path)
	w.files.Add(1)
	return c, nil
}
