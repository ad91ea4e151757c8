package ringstate

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsched/internal/wire"
)

// goroutineLeakCheck snapshots the goroutines running this package's
// code and registers a cleanup that fails the test if any are still
// alive shortly after it ends (same idiom as internal/service).
func goroutineLeakCheck(t *testing.T) {
	t.Helper()
	before := ringstateGoroutines()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		var after []string
		for deadline := time.Now().Add(3 * time.Second); ; {
			after = ringstateGoroutines()
			if len(after) <= len(before) {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d ringsched goroutines before, %d after:\n%s",
			len(before), len(after), strings.Join(after, "\n---\n"))
	})
}

func ringstateGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "ringsched/") && !strings.Contains(g, "ringstateGoroutines") {
			out = append(out, g)
		}
	}
	return out
}

func testConfig() Config { return Config{BandwidthMbps: 16} }

func TestStoreCreateGetDelete(t *testing.T) {
	st := NewStore(2, 4)
	r1, err := st.Create(testConfig(), []wire.StreamSpec{{Name: "a", PeriodMs: 10, LengthBits: 1024}}, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID() != "r1" || r1.Version() != 1 {
		t.Fatalf("first ring: id=%s version=%d, want r1 v1", r1.ID(), r1.Version())
	}
	if got, err := st.Get("r1"); err != nil || got != r1 {
		t.Fatalf("Get(r1) = %v, %v", got, err)
	}
	if _, err := st.Get("r9"); err != ErrRingNotFound {
		t.Fatalf("Get(missing) = %v, want ErrRingNotFound", err)
	}
	r2, err := st.Create(testConfig(), nil, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(testConfig(), nil, EditMeta{}); !errors.Is(err, ErrTooManyRings) {
		t.Fatalf("third ring: %v, want ErrTooManyRings", err)
	}
	if ids := st.List(); len(ids) != 2 || ids[0] != r1 || ids[1] != r2 {
		t.Fatalf("List() = %v", ids)
	}
	// CAS delete: stale version refused, matching version wins.
	if err := st.Delete("r1", 7); err == nil {
		t.Fatal("stale delete succeeded")
	} else {
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.Expected != 7 || ce.Current != 1 {
			t.Fatalf("stale delete: %v, want ConflictError{7, 1}", err)
		}
	}
	if err := st.Delete("r1", 1); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len() = %d after delete, want 1", st.Len())
	}
	if _, _, _, err := r1.AddStream(0, wire.StreamSpec{PeriodMs: 10, LengthBits: 100}, EditMeta{}); err != ErrRingNotFound {
		t.Fatalf("edit after delete: %v, want ErrRingNotFound", err)
	}
	if _, _, _, _, err := r1.State(); err != ErrRingNotFound {
		t.Fatalf("State after delete: %v, want ErrRingNotFound", err)
	}
}

func TestStoreStreamLimitAndCAS(t *testing.T) {
	st := NewStore(0, 2)
	r, err := st.Create(testConfig(), nil, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	v, id1, _, err := r.AddStream(1, wire.StreamSpec{Name: "a", PeriodMs: 10, LengthBits: 1024}, EditMeta{})
	if err != nil || v != 2 {
		t.Fatalf("first add: v=%d err=%v", v, err)
	}
	// Stale expected version: typed conflict, nothing changes.
	if _, _, _, err := r.AddStream(1, wire.StreamSpec{Name: "b", PeriodMs: 10, LengthBits: 1024}, EditMeta{}); err == nil {
		t.Fatal("stale add succeeded")
	} else {
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.Expected != 1 || ce.Current != 2 {
			t.Fatalf("stale add: %v, want ConflictError{1, 2}", err)
		}
	}
	if r.Version() != 2 {
		t.Fatalf("version moved on conflict: %d", r.Version())
	}
	// Expected 0 is unconditional.
	if _, _, _, err := r.AddStream(0, wire.StreamSpec{Name: "b", PeriodMs: 20, LengthBits: 1024}, EditMeta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.AddStream(0, wire.StreamSpec{Name: "c", PeriodMs: 30, LengthBits: 1024}, EditMeta{}); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("over-limit add: %v, want ErrTooManyStreams", err)
	}
	if v, _, err := r.RemoveStream(3, id1, EditMeta{}); err != nil || v != 4 {
		t.Fatalf("remove: v=%d err=%v", v, err)
	}
	if _, _, err := r.ModifyStream(4, id1, wire.StreamSpec{PeriodMs: 10, LengthBits: 1}, EditMeta{}); err != ErrStreamNotFound {
		t.Fatalf("modify removed stream: %v, want ErrStreamNotFound", err)
	}
	if r.Version() != 4 {
		t.Fatalf("failed modify moved version: %d", r.Version())
	}
}

// TestStoreParallelCASEditors races N writers per round, all naming the
// same expected version: exactly one must win each round.
func TestStoreParallelCASEditors(t *testing.T) {
	goroutineLeakCheck(t)
	st := NewStore(0, 0)
	r, err := st.Create(testConfig(), nil, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	const editors = 8
	const rounds = 24
	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		wins := make(chan uint64, editors)
		for e := 0; e < editors; e++ {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				v, _, _, err := r.AddStream(uint64(round), wire.StreamSpec{
					Name: "w", PeriodMs: float64(10 + e), LengthBits: 512,
				}, EditMeta{})
				switch {
				case err == nil:
					wins <- v
				default:
					var ce *ConflictError
					if !errors.As(err, &ce) {
						t.Errorf("round %d editor %d: %v, want ConflictError", round, e, err)
					} else if ce.Current != uint64(round+1) {
						t.Errorf("round %d editor %d: conflict current=%d, want %d", round, e, ce.Current, round+1)
					}
				}
			}(e)
		}
		wg.Wait()
		close(wins)
		var winners []uint64
		for v := range wins {
			winners = append(winners, v)
		}
		if len(winners) != 1 || winners[0] != uint64(round+1) {
			t.Fatalf("round %d: winners %v, want exactly one at version %d", round, winners, round+1)
		}
	}
	if got := r.Version(); got != rounds+1 {
		t.Fatalf("final version %d, want %d", got, rounds+1)
	}
	if got := len(r.engine.ids); got != rounds {
		t.Fatalf("%d streams admitted, want %d", got, rounds)
	}
}

// TestStoreConcurrentReadsDuringEdits hammers State() while a writer
// edits; -race verifies the locking, the assertions verify snapshot
// consistency (every observed state is internally coherent).
func TestStoreConcurrentReadsDuringEdits(t *testing.T) {
	goroutineLeakCheck(t)
	st := NewStore(0, 0)
	r, err := st.Create(testConfig(), []wire.StreamSpec{{Name: "base", PeriodMs: 50, LengthBits: 1024}}, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, _, snap, verdicts, err := r.State()
				if err != nil {
					t.Errorf("State: %v", err)
					return
				}
				if v == 0 || len(verdicts) == 0 {
					t.Errorf("incoherent state: v=%d verdicts=%d", v, len(verdicts))
					return
				}
				for _, vd := range verdicts {
					if len(vd.Streams) != len(snap) {
						t.Errorf("verdict has %d streams, snapshot %d", len(vd.Streams), len(snap))
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_, id, _, err := r.AddStream(0, wire.StreamSpec{PeriodMs: 10 + float64(i%11), LengthBits: 2048}, EditMeta{})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, _, err := r.RemoveStream(0, id, EditMeta{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestStoreDeleteWithInflightEdits deletes a ring while editors are mid
// flight: edits before the delete succeed, edits after it fail with
// ErrRingNotFound, and no goroutine outlives the test.
func TestStoreDeleteWithInflightEdits(t *testing.T) {
	goroutineLeakCheck(t)
	st := NewStore(0, 0)
	r, err := st.Create(testConfig(), nil, EditMeta{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for e := 0; e < 6; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				_, _, _, err := r.AddStream(0, wire.StreamSpec{PeriodMs: float64(10 + e), LengthBits: 256}, EditMeta{})
				if err != nil {
					if err != ErrRingNotFound {
						t.Errorf("editor %d: %v, want ErrRingNotFound", e, err)
					}
					return
				}
			}
		}(e)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	if err := st.Delete(r.ID(), 0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := st.Get(r.ID()); err != ErrRingNotFound {
		t.Fatalf("Get after delete: %v", err)
	}
}
