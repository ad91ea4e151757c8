package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// eagerSpan is the span as it was before spans exported raw values: a
// growing attribute slice with SetAttr's overwrite and ignore-after-End
// rules, rendered into a Record inside End. It is the oracle Finished's
// Record is held to.
type eagerSpan struct {
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	attrs   []Attr
	err     string
	ended   bool
}

func (s *eagerSpan) SetAttr(key string, value any) {
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

func (s *eagerSpan) SetError(err error) {
	if err != nil && !s.ended {
		s.err = err.Error()
	}
}

// End is the former Span.End body, with the end instant passed in.
func (s *eagerSpan) End(end time.Time) (Record, bool) {
	if s.ended {
		return Record{}, false
	}
	s.ended = true
	rec := Record{
		TraceID:    s.traceID.String(),
		SpanID:     s.id.String(),
		Name:       s.name,
		Start:      s.start,
		DurationUS: float64(end.Sub(s.start)) / float64(time.Microsecond),
		Error:      s.err,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	return rec, true
}

// TestFinishedRecordMatchesEagerEnd drives random spans and an eager
// oracle through the same calls — attribute overwrites, more attributes
// than the inline array holds, SetAttr and SetError after End, errors,
// roots and children — and holds every exported span's Record, and its
// JSON bytes, equal to what the eager End rendered.
func TestFinishedRecordMatchesEagerEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var got []Finished
	tr := New(SinkFunc(func(f Finished) { got = append(got, f) }))
	keys := []string{"method", "code", "outcome", "alias", "decoder", "protocol", "schedulable",
		"coalesced", "deadlineMs", "shed", "aborted", "endpoint", "reprobed", "version"}
	value := func() any {
		switch rng.IntN(5) {
		case 0:
			return rng.IntN(1000)
		case 1:
			return rng.IntN(2) == 1
		case 2:
			return fmt.Sprintf("v%d", rng.IntN(10))
		case 3:
			return rng.Float64() * 1e3
		default:
			return uint64(rng.IntN(1 << 20))
		}
	}
	for i := range 2000 {
		ctx := context.Background()
		var sp *Span
		if i%3 == 0 {
			_, sp = tr.StartRoot(ctx, fmt.Sprintf("root%d", i%7), TraceID{})
		} else {
			pctx, _ := tr.StartRoot(ctx, "parent", TraceID{})
			_, sp = Start(pctx, fmt.Sprintf("child%d", i%5))
		}
		eager := &eagerSpan{
			traceID: sp.fin.TraceID, id: sp.fin.SpanID, parent: sp.fin.ParentID,
			name: sp.fin.Name, start: sp.fin.Start,
		}
		got = got[:0]
		var want []Record
		for range rng.IntN(40) {
			switch op := rng.IntN(10); {
			case op < 7:
				k, v := keys[rng.IntN(len(keys))], value()
				sp.SetAttr(k, v)
				eager.SetAttr(k, v)
			case op < 9:
				err := fmt.Errorf("boom %d", rng.IntN(3))
				if rng.IntN(4) == 0 {
					err = nil
				}
				sp.SetError(err)
				eager.SetError(err)
			default:
				n := len(got)
				sp.End()
				if len(got) > n {
					f := got[len(got)-1]
					if rec, ok := eager.End(f.Start.Add(f.Duration)); ok {
						want = append(want, rec)
					}
				}
			}
		}
		n := len(got)
		sp.End()
		if len(got) > n {
			f := got[len(got)-1]
			if rec, ok := eager.End(f.Start.Add(f.Duration)); ok {
				want = append(want, rec)
			}
		}
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("span %d exported %d times, oracle %d; want once", i, len(got), len(want))
		}
		rec := got[0].Record()
		if !reflect.DeepEqual(rec, want[0]) {
			t.Fatalf("span %d: Record()\n %+v\nwant\n %+v", i, rec, want[0])
		}
		a, errA := json.Marshal(rec)
		b, errB := json.Marshal(want[0])
		if errA != nil || errB != nil || string(a) != string(b) {
			t.Fatalf("span %d: JSON %s (%v), want %s (%v)", i, a, errA, b, errB)
		}
	}
}

// oldTrace is Ring.Trace as a comparison of rendered trace IDs.
func oldTrace(r *Ring, traceID string) []Record {
	var out []Record
	for _, rec := range r.Snapshot() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// TestRingTraceMatchesStringComparison holds Ring.Trace to the string
// comparison it replaced, for every retained trace's ID and for IDs that
// match nothing: upper case, malformed, empty, absent and all zeros (the
// rendering of a zero ID, which a directly exported span can carry).
func TestRingTraceMatchesStringComparison(t *testing.T) {
	ring := NewRing(32)
	tr := New(ring)
	var ids []string
	for i := range 40 {
		ctx, root := tr.StartRoot(context.Background(), "root", TraceID{})
		for range i % 3 {
			_, sp := Start(ctx, "child")
			sp.End()
		}
		root.End()
		ids = append(ids, root.TraceID().String())
	}
	ring.Export(Finished{Name: "zero"})
	queries := []string{"", strings.Repeat("0", 32), strings.Repeat("f", 32), "t1", strings.Repeat("g", 32)}
	for _, id := range ids {
		queries = append(queries, id, strings.ToUpper(id), id[:31], id+"0", " "+id[1:], id[:30]+"zz")
	}
	for _, q := range queries {
		got, want := ring.Trace(q), oldTrace(ring, q)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Trace(%q) = %d spans, string comparison %d", q, len(got), len(want))
		}
	}
	if len(ring.Trace(ids[len(ids)-1])) == 0 || len(ring.Trace(strings.Repeat("0", 32))) != 1 {
		t.Fatal("the newest trace and the zero-ID span must be found")
	}
}

// TestRingOrderAndTotalAtEveryFill holds Total and oldest-first order at
// every fill level and across several wraps of rings that grow their
// slots with use.
func TestRingOrderAndTotalAtEveryFill(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 3, 5, 16, 17, 40} {
		ring := NewRing(capacity)
		held := max(capacity, 1)
		if got := ring.Snapshot(); len(got) != 0 || ring.Total() != 0 {
			t.Fatalf("cap %d: empty ring holds %d, total %d", capacity, len(got), ring.Total())
		}
		for n := 1; n <= 3*held+2; n++ {
			ring.Export(Finished{Name: fmt.Sprint(n - 1)})
			if ring.Total() != uint64(n) {
				t.Fatalf("cap %d after %d: total %d", capacity, n, ring.Total())
			}
			got := ring.Snapshot()
			first := max(n-held, 0)
			if len(got) != n-first {
				t.Fatalf("cap %d after %d: %d retained, want %d", capacity, n, len(got), n-first)
			}
			for i, rec := range got {
				if rec.Name != fmt.Sprint(first+i) {
					t.Fatalf("cap %d after %d: slot %d holds %s, want %d", capacity, n, i, rec.Name, first+i)
				}
			}
		}
	}
}

// TestRingConcurrentExportAndRead ends spans on several goroutines while
// others read the ring, across its slots' growth and wrap; the race
// detector holds the lock discipline.
func TestRingConcurrentExportAndRead(t *testing.T) {
	const capacity, writers, perWriter = 100, 4, 200
	ring := NewRing(capacity)
	tr := New(ring)
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range ring.Snapshot() {
					ring.Trace(rec.TraceID)
				}
			}
		}()
	}
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWriter {
				ctx, root := tr.StartRoot(context.Background(), "root", TraceID{})
				_, sp := Start(ctx, "child")
				sp.SetAttr("k", 1)
				sp.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := ring.Total(), uint64(2*writers*perWriter); got != want {
		t.Fatalf("total %d, want %d", got, want)
	}
	if got := len(ring.Snapshot()); got != capacity {
		t.Fatalf("%d spans retained, want %d", got, capacity)
	}
}

// BenchmarkSpanEnd starts, annotates and ends one child span into a Tee
// of a Ring and a stage-style sink (a name lookup and a duration read),
// the per-span work of a served request.
func BenchmarkSpanEnd(b *testing.B) {
	stageOf := map[string]string{"cache.lookup": `stage="cache"`}
	var seconds float64
	stage := SinkFunc(func(f Finished) {
		if _, ok := stageOf[f.Name]; ok {
			seconds += f.DurationUS() / 1e6
		}
	})
	ring := NewRing(4096)
	ctx, root := New(Tee(ring, stage)).StartRoot(context.Background(), "http.analyze", TraceID{})
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_, sp := Start(ctx, "cache.lookup")
		sp.SetAttr("alias", true)
		sp.SetAttr("outcome", "hit")
		sp.End()
	}
}
