package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSplit(t *testing.T) {
	for _, tc := range []struct{ budget, n, outer, inner int }{
		{8, 2, 2, 4},
		{8, 100, 8, 1},
		{3, 2, 2, 1},
		{1, 5, 1, 1},
		{5, 0, 1, 5},
	} {
		outer, inner := Split(tc.budget, tc.n)
		if outer != tc.outer || inner != tc.inner {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)", tc.budget, tc.n, outer, inner, tc.outer, tc.inner)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	if outer, inner := Split(0, 1<<20); outer != procs || inner != 1 {
		t.Errorf("Split(0, 1<<20) = (%d, %d), want (GOMAXPROCS=%d, 1)", outer, inner, procs)
	}
}

// TestForOneWorkerRunsInOrder: one worker calls every index in order, as
// worker 0, on the calling goroutine.
func TestForOneWorkerRunsInOrder(t *testing.T) {
	var got []int
	err := For(context.Background(), 1, 6, func(_ context.Context, w, i int) error {
		if w != 0 {
			t.Errorf("index %d ran on worker %d", i, w)
		}
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3 4 5]" {
		t.Errorf("indices %v, want 0..5 in order", got)
	}
}

// TestForCallsEachIndexOnce: many workers call every index exactly once,
// each from a worker named in [0, workers).
func TestForCallsEachIndexOnce(t *testing.T) {
	const workers, n = 4, 200
	var calls [n]atomic.Int32
	var perWorker [workers]int // touched only by its own worker
	err := For(context.Background(), workers, n, func(_ context.Context, w, i int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d outside [0, %d)", w, workers)
			return nil
		}
		perWorker[w]++
		calls[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("index %d called %d times, want 1", i, c)
		}
	}
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Errorf("workers made %d calls, want %d", total, n)
	}
}

// TestForDispatchesAPrefix: indices go out in order, so however a failure
// cuts a run short, the indices called are exactly 0..m-1 for some m.
func TestForDispatchesAPrefix(t *testing.T) {
	const workers, n, failAt = 4, 1000, 37
	var mu sync.Mutex
	called := map[int]bool{}
	boom := errors.New("boom")
	err := For(context.Background(), workers, n, func(ctx context.Context, _, i int) error {
		mu.Lock()
		called[i] = true
		mu.Unlock()
		if i == failAt {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	m := len(called)
	for i := 0; i < m; i++ {
		if !called[i] {
			t.Fatalf("%d indices called but index %d is not among them", m, i)
		}
	}
	if m <= failAt {
		t.Errorf("%d indices called, want more than %d", m, failAt)
	}
}

// allStarted runs For with one worker per index, each call waiting until
// every call has started, so every index runs whatever the errors; then
// result(i) gives each call's error.
func allStarted(ctx context.Context, n int, result func(ctx context.Context, i int) error) error {
	var started sync.WaitGroup
	started.Add(n)
	return For(ctx, n, n, func(ctx context.Context, _, i int) error {
		started.Done()
		started.Wait()
		return result(ctx, i)
	})
}

func TestForErrorRule(t *testing.T) {
	errB, errC := errors.New("b"), errors.New("c")
	canceledAt1 := fmt.Errorf("index 1: %w", context.Canceled)

	// The lowest-index error not caused by cancellation wins, even over a
	// lower-index cancellation.
	err := allStarted(context.Background(), 4, func(_ context.Context, i int) error {
		return [...]error{nil, canceledAt1, errB, errC}[i]
	})
	if err != errB {
		t.Errorf("err = %v, want b", err)
	}

	// With only cancellation errors and a live parent, the lowest-index
	// one is returned as it was.
	err = allStarted(context.Background(), 3, func(_ context.Context, i int) error {
		if i == 0 {
			return nil
		}
		return fmt.Errorf("index %d: %w", i, context.DeadlineExceeded)
	})
	if err == nil || err.Error() != "index 1: context deadline exceeded" {
		t.Errorf("err = %v, want index 1's deadline error", err)
	}

	// A canceled parent outranks the calls' own cancellation errors.
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = allStarted(parent, 3, func(ctx context.Context, i int) error {
		if i == 0 {
			cancel()
			return nil
		}
		<-ctx.Done()
		return fmt.Errorf("index %d: %w", i, ctx.Err())
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want the parent's context.Canceled", err)
	}
}

// TestForFirstErrorCancelsCalls: the first error cancels the context the
// other calls hold, so calls waiting on it return.
func TestForFirstErrorCancelsCalls(t *testing.T) {
	const workers = 4
	boom := errors.New("boom")
	var calls atomic.Int32
	err := For(context.Background(), workers, 100, func(ctx context.Context, _, i int) error {
		calls.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c := calls.Load(); c > 2*workers {
		t.Errorf("%d calls after the first error canceled the run, want ≤ %d", c, 2*workers)
	}
}

func TestForPreCanceledDispatchesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := For(ctx, 4, 10, func(context.Context, int, int) error {
		calls.Add(1)
		return nil
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if c := calls.Load(); c != 0 {
		t.Errorf("%d calls under a pre-canceled context, want 0", c)
	}
}

func TestForLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := For(ctx, 8, 1<<20, func(context.Context, int, int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

func TestForEmpty(t *testing.T) {
	if err := For(context.Background(), 4, 0, func(context.Context, int, int) error {
		t.Error("called with n = 0")
		return nil
	}); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}
