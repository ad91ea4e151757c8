package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ringsched/internal/service"
	"ringsched/internal/wire"
	"ringsched/ringschedclient"
)

// TestVerifyHistory edits live rings, then runs the -verify-history mode
// on each and requires it to certify bit-identical verdicts
// (compacted-trail replay is proven separately in the ringstate audit
// tests). The rings are the route-agreement rings of the service's
// TestRingSnapshotMatchesAnalyze: awkward float parameters under a loss
// model, FDDI under lossy-token with an unbounded degraded Σh (on the
// wire as -1), and 101 streams, past the paper's 100 stations.
func TestVerifyHistory(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	c := ringschedclient.New(ts.URL, ringschedclient.Options{})
	ctx := context.Background()
	plant := make([]ringschedclient.RingStreamSpec, 99)
	for i := range plant {
		plant[i] = ringschedclient.RingStreamSpec{
			Name: fmt.Sprintf("n%d", i), PeriodMs: float64(20 + i%17), LengthBits: float64(512 + 64*(i%5)),
		}
	}
	for _, tc := range []struct {
		name   string
		create ringschedclient.RingCreateRequest
		edit   func(t *testing.T, sess *ringschedclient.RingSession)
	}{
		{
			name: "float edits under loss",
			create: ringschedclient.RingCreateRequest{
				BandwidthMbps: 4,
				FaultModel:    "loss:p=1e-3",
				Streams: []ringschedclient.RingStreamSpec{
					{Name: "gyro", PeriodMs: 10, LengthBits: 4096},
				},
			},
			edit: func(t *testing.T, sess *ringschedclient.RingSession) {
				// Non-representable thirds keep the float math honest.
				ids := make([]string, 0, 8)
				for i := 0; i < 8; i++ {
					re, err := sess.AddStream(ctx, ringschedclient.RingStreamSpec{
						PeriodMs: 10 + float64(i)/3, LengthBits: 4096 * float64(i+1),
					})
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, re.StreamID)
				}
				if _, err := sess.ModifyStream(ctx, ids[2], ringschedclient.RingStreamSpec{
					PeriodMs: 7.0 / 3, LengthBits: 9999,
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := sess.RemoveStream(ctx, ids[5]); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "fddi unbounded degraded allocation",
			create: ringschedclient.RingCreateRequest{
				Protocols:     []string{"fddi"},
				BandwidthMbps: 100,
				Scenario:      "lossy-token",
				Streams:       []ringschedclient.RingStreamSpec{{PeriodMs: 1, LengthBits: 1000}},
			},
			edit: func(t *testing.T, sess *ringschedclient.RingSession) {
				if _, err := sess.AddStream(ctx, ringschedclient.RingStreamSpec{PeriodMs: 3, LengthBits: 1000}); err != nil {
					t.Fatal(err)
				}
				state, err := sess.Refresh(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(state.Verdicts), `"totalAllocation": -1`) {
					t.Fatalf("ring verdicts lack the unbounded degraded allocation: %s", state.Verdicts)
				}
			},
		},
		{
			name: "101 streams",
			create: ringschedclient.RingCreateRequest{
				BandwidthMbps: 100,
				FaultModel:    "loss:p=1e-3",
				Streams:       plant,
			},
			edit: func(t *testing.T, sess *ringschedclient.RingSession) {
				for _, s := range []ringschedclient.RingStreamSpec{
					{Name: "n99", PeriodMs: 7, LengthBits: 4096},
					{Name: "n100", PeriodMs: 25, LengthBits: 2048},
				} {
					if _, err := sess.AddStream(ctx, s); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, _, err := c.CreateRing(ctx, tc.create)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(t, sess)
			var out bytes.Buffer
			err = run(context.Background(),
				[]string{"-base", ts.URL, "-verify-history", sess.ID()}, &out, io.Discard)
			if err != nil {
				t.Fatalf("verify-history failed: %v", err)
			}
			if !strings.Contains(out.String(), "verified: ring "+sess.ID()) {
				t.Fatalf("unexpected output: %s", out.String())
			}
		})
	}
}

func TestVerifyHistoryDetectsDivergence(t *testing.T) {
	live := []wire.Verdict{{Protocol: "802.4", Schedulable: true, Utilization: 0.30000000000000004}}
	repl := []wire.Verdict{{Protocol: "802.4", Schedulable: true, Utilization: 0.3}}
	if err := compareVerdicts(live, repl); err == nil {
		t.Fatal("0.30000000000000004 vs 0.3 must not compare equal")
	}
	// Sanity: identical verdicts pass, and stream order is ignored.
	a := wire.StreamVerdict{PeriodMs: 10, Schedulable: true}
	b := wire.StreamVerdict{PeriodMs: 20, Schedulable: false}
	l := []wire.Verdict{{Protocol: "p", Streams: []wire.StreamVerdict{a, b}}}
	r := []wire.Verdict{{Protocol: "p", Streams: []wire.StreamVerdict{b, a}}}
	if err := compareVerdicts(l, r); err != nil {
		t.Fatalf("order-insensitive compare failed: %v", err)
	}
}

func TestVerifyHistoryRequiresBase(t *testing.T) {
	err := run(context.Background(), []string{"-verify-history", "r1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-base") {
		t.Fatalf("want -base requirement error, got %v", err)
	}
}
