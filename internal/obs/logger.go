package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ParseLevel maps the usual flag spellings onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a structured logger writing to w. format selects the
// handler: "json" for machine ingestion, anything else (conventionally
// "text") for the human-readable key=value form.
func NewLogger(w io.Writer, level slog.Level, format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NopLogger returns a logger that discards everything — the default for
// embedded servers (tests, examples) that did not opt into logging.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// --- request IDs ---

// reqSeq numbers requests within this process; reqEpoch distinguishes
// processes (and restarts) so IDs from interleaved logs don't collide.
var (
	reqSeq   atomic.Uint64
	reqEpoch = fmt.Sprintf("%x-%x", os.Getpid()&0xffff, time.Now().UnixNano()&0xffffff)
)

// NewRequestID returns a process-unique request identifier, cheap enough
// to mint on every request: req-<epoch>-<sequence>, the sequence
// zero-padded to six digits.
func NewRequestID() string {
	var b [64]byte
	id := append(b[:0], "req-"...)
	id = append(id, reqEpoch...)
	id = append(id, '-')
	var d [20]byte
	seq := strconv.AppendUint(d[:0], reqSeq.Add(1), 10)
	for i := len(seq); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, seq...))
}

type ctxKey struct{}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestIDFrom extracts the request ID, or "" when none was attached.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}
