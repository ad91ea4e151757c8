package trace

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Record is the exported, immutable form of a finished span — one JSON
// object per line in -trace-out files, one array element in the
// /debug/traces response.
type Record struct {
	TraceID    string         `json:"traceId"`
	SpanID     string         `json:"spanId"`
	ParentID   string         `json:"parentId,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationUS float64        `json:"durationUs"`
	Error      string         `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	// Member is the cluster member that produced the span, stamped by the
	// /debug/traces federation layer (empty on locally exported spans).
	Member string `json:"member,omitempty"`
}

// Sink receives finished spans. Implementations must be safe for
// concurrent Export calls: spans end on whatever goroutine ran the work.
type Sink interface {
	Export(Finished)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Finished)

// Export calls f(fin).
func (f SinkFunc) Export(fin Finished) { f(fin) }

// Tee fans each span out to every non-nil sink, in order.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	return SinkFunc(func(fin Finished) {
		for _, s := range kept {
			s.Export(fin)
		}
	})
}

// JSONL writes one JSON object per finished span to an io.Writer, suitable
// for the CLIs' -trace-out files. Writes are serialized by a mutex;
// marshal errors are impossible for Record's field types and encode errors
// on the writer are dropped (tracing must never fail the traced work).
type JSONL struct {
	mu sync.Mutex
	w  io.Writer
}

// NewJSONL returns a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Export writes the span's Record as one line of JSON.
func (j *JSONL) Export(fin Finished) {
	buf, err := json.Marshal(fin.Record())
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w.Write(buf)
}

// Ring keeps the most recent finished spans in a bounded buffer — the
// store behind ringschedd's /debug/traces endpoint. Spans are kept raw;
// Snapshot and Trace render the Records they return. Slots are allocated
// as spans arrive, up to the capacity, so an idle process holds none;
// from then on the oldest span is overwritten. Total counts everything
// ever exported.
type Ring struct {
	mu       sync.Mutex
	buf      []Finished // oldest first until it holds capacity spans
	capacity int
	next     int // the oldest slot once len(buf) == capacity
	total    uint64
}

// NewRing returns a ring holding up to capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	return &Ring{capacity: max(capacity, 1)}
}

// Export stores fin, evicting the oldest span once the ring is full.
func (r *Ring) Export(fin Finished) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Finished, len(r.buf), min(max(2*len(r.buf), 16), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, fin)
		return
	}
	r.buf[r.next] = fin
	r.next++
	if r.next == r.capacity {
		r.next = 0
	}
}

// Total returns the number of spans ever exported to the ring.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []Record {
	return r.collect(func(*Finished) bool { return true })
}

// Trace returns the retained spans of one trace, oldest first. traceID
// is matched as rendered: anything but 32 lowercase hex digits matches
// nothing.
func (r *Ring) Trace(traceID string) []Record {
	var id TraceID
	if len(traceID) != 2*len(id) {
		return nil
	}
	if _, err := hex.Decode(id[:], []byte(traceID)); err != nil || id.String() != traceID {
		return nil
	}
	return r.collect(func(f *Finished) bool { return f.TraceID == id })
}

// collect copies the retained spans that keep accepts, oldest first,
// under the lock, and renders them outside it.
func (r *Ring) collect(keep func(*Finished) bool) []Record {
	r.mu.Lock()
	var kept []Finished
	for _, part := range [2][]Finished{r.buf[r.next:], r.buf[:r.next]} {
		for i := range part {
			if keep(&part[i]) {
				kept = append(kept, part[i])
			}
		}
	}
	r.mu.Unlock()
	out := make([]Record, len(kept))
	for i := range kept {
		out[i] = kept[i].Record()
	}
	return out
}
