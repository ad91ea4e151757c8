package ringschedclient_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"ringsched/internal/resilience"
	"ringsched/internal/service"
	"ringsched/ringschedclient"
)

func newRingServer(t *testing.T) *ringschedclient.Client {
	t.Helper()
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ringschedclient.New(ts.URL, integOptions())
}

func TestRingSessionLifecycle(t *testing.T) {
	c := newRingServer(t)
	ctx := context.Background()

	sess, state, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{
		BandwidthMbps: 16,
		Streams: []ringschedclient.RingStreamSpec{
			{Name: "gyro", PeriodMs: 10, LengthBits: 4096},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Version != 1 || len(state.Streams) != 1 {
		t.Fatalf("created state %+v, want version 1 with one stream", state)
	}
	if len(state.Verdicts) != 3 {
		t.Fatalf("%d verdicts, want 3", len(state.Verdicts))
	}

	edit, err := sess.AddStream(ctx, ringschedclient.RingStreamSpec{
		Name: "telemetry", PeriodMs: 50, LengthBits: 65536,
	})
	if err != nil {
		t.Fatal(err)
	}
	if edit.Version != 2 || edit.Op != "add" || !edit.Admitted() {
		t.Fatalf("add edit %+v, want admitted version 2", edit)
	}
	if sess.Version() != 2 {
		t.Fatalf("session version %d, want 2", sess.Version())
	}

	if _, err := sess.ModifyStream(ctx, edit.StreamID, ringschedclient.RingStreamSpec{
		Name: "telemetry", PeriodMs: 25, LengthBits: 65536,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RemoveStream(ctx, edit.StreamID); err != nil {
		t.Fatal(err)
	}
	if sess.Version() != 4 {
		t.Fatalf("session version %d after modify+remove, want 4", sess.Version())
	}

	// A second session opened by ID sees the same state.
	sess2, state2, err := c.OpenRing(ctx, sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if state2.Version != 4 || len(state2.Streams) != 1 {
		t.Fatalf("reopened state %+v, want version 4 with one stream", state2)
	}
	_ = sess2

	if err := sess.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Refresh(ctx); err == nil {
		t.Fatal("refresh after delete succeeded, want not_found")
	} else {
		var ae *ringschedclient.APIError
		if !errors.As(err, &ae) || ae.Code != resilience.CodeNotFound {
			t.Fatalf("refresh after delete: %v, want APIError not_found", err)
		}
	}
}

// TestRingSessionConflictRebase pins the CAS loop: a session holding a
// stale version transparently rebases from the 409 body and lands its
// edit at the next version.
func TestRingSessionConflictRebase(t *testing.T) {
	c := newRingServer(t)
	ctx := context.Background()

	sessA, _, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{BandwidthMbps: 16})
	if err != nil {
		t.Fatal(err)
	}
	sessB, _, err := c.OpenRing(ctx, sessA.ID())
	if err != nil {
		t.Fatal(err)
	}
	// A edits first; B's tracked version (1) is now stale.
	if _, err := sessA.AddStream(ctx, ringschedclient.RingStreamSpec{PeriodMs: 10, LengthBits: 1024}); err != nil {
		t.Fatal(err)
	}
	edit, err := sessB.AddStream(ctx, ringschedclient.RingStreamSpec{PeriodMs: 20, LengthBits: 1024})
	if err != nil {
		t.Fatalf("stale session edit did not rebase: %v", err)
	}
	if edit.Version != 3 {
		t.Fatalf("rebased edit landed at version %d, want 3", edit.Version)
	}
}

// TestRingSessionConcurrentEditors hammers one ring from several
// sessions; the rebase loop must serialize them without losing edits.
func TestRingSessionConcurrentEditors(t *testing.T) {
	c := newRingServer(t)
	ctx := context.Background()

	lead, _, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{BandwidthMbps: 16})
	if err != nil {
		t.Fatal(err)
	}
	const editors, adds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, editors)
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, _, err := c.OpenRing(ctx, lead.ID())
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < adds; i++ {
				// Under editors-way contention an edit can exhaust its
				// bounded rebases; retry it — the bound exists to surface
				// livelock to callers, and this caller's policy is to
				// keep admitting.
				for {
					_, err := sess.AddStream(ctx, ringschedclient.RingStreamSpec{PeriodMs: 100, LengthBits: 512})
					if err == nil {
						break
					}
					var ae *ringschedclient.APIError
					if errors.As(err, &ae) && ae.Code == resilience.CodeConflict {
						continue
					}
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	state, err := lead.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Streams) != editors*adds {
		t.Fatalf("%d streams landed, want %d", len(state.Streams), editors*adds)
	}
	if state.Version != uint64(1+editors*adds) {
		t.Fatalf("final version %d, want %d", state.Version, 1+editors*adds)
	}
}
