package trace

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds a slog.Logger writing to w in the given format ("text"
// or "json") at the given level ("debug", "info", "warn", "error"), with
// trace/span IDs from the record's context stitched into every entry.
// It is the one constructor behind every CLI's -log-level/-log-format
// flags, so all seven commands log identically.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("trace: unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("trace: unknown log format %q (want text or json)", format)
	}
	return slog.New(WithLogIDs(h)), nil
}

// WithLogIDs wraps a slog.Handler so that records logged with a context
// carrying a current span gain traceId/spanId attributes. Records without
// a span pass through untouched.
func WithLogIDs(h slog.Handler) slog.Handler { return idHandler{h} }

type idHandler struct {
	inner slog.Handler
}

func (h idHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	return h.inner.Enabled(ctx, lvl)
}

func (h idHandler) Handle(ctx context.Context, rec slog.Record) error {
	if sp := SpanFromContext(ctx); sp != nil {
		rec = rec.Clone()
		rec.AddAttrs(
			slog.String("traceId", sp.fin.TraceID.String()),
			slog.String("spanId", sp.fin.SpanID.String()),
		)
	}
	return h.inner.Handle(ctx, rec)
}

func (h idHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return idHandler{h.inner.WithAttrs(attrs)}
}

func (h idHandler) WithGroup(name string) slog.Handler {
	return idHandler{h.inner.WithGroup(name)}
}
