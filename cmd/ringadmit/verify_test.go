package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ringsched/internal/ringstate"
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
				if d := state.Verdicts[0].Degraded; d == nil || d.TotalAllocation != -1 {
					t.Fatalf("ring verdicts lack the unbounded degraded allocation: %+v", state.Verdicts)
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

// TestClientHistoryRebuildsCompactedRing edits a ring through a
// RingSession past its audit cap, then rebuilds it from the structured
// History alone (config, baseline adds, then the retained records)
// through a fresh engine, and requires the rebuilt ring's streams and
// verdicts to be the live ring's by -verify-history's comparison.
func TestClientHistoryRebuildsCompactedRing(t *testing.T) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	ctx := context.Background()
	c := ringschedclient.New(ts.URL, ringschedclient.Options{})
	sess, _, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{
		BandwidthMbps: 100,
		Scenario:      "lossy-token",
		Streams:       []ringschedclient.RingStreamSpec{{Name: "seed", PeriodMs: 40, LengthBits: 2048}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every edit but the modifies and removes adds a stream; every tenth
	// add is a hog that the next edit removes again, so the retained
	// records hold verdict flips.
	var ids []string
	for i := 0; i < ringstate.DefaultRingAudit+64; i++ {
		spec := ringschedclient.RingStreamSpec{
			Name: fmt.Sprintf("s%d", i), PeriodMs: 20 + float64(i%23)/3, LengthBits: float64(256 * (1 + i%4)),
		}
		var re *ringschedclient.RingEdit
		switch {
		case i%10 == 9:
			spec.LengthBits = 1e9
			re, err = sess.AddStream(ctx, spec)
		case i%10 == 0 && i > 0:
			re, err = sess.RemoveStream(ctx, ids[len(ids)-1])
			ids = ids[:len(ids)-1]
		case i%10 == 5:
			re, err = sess.ModifyStream(ctx, ids[i%len(ids)], spec)
		case i%10 == 7:
			j := i % len(ids)
			re, err = sess.RemoveStream(ctx, ids[j])
			ids = append(ids[:j], ids[j+1:]...)
		default:
			re, err = sess.AddStream(ctx, spec)
		}
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if re.Op == ringstate.OpAdd {
			ids = append(ids, re.StreamID)
		}
	}

	h, err := sess.History(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Compacted == 0 || len(h.Baseline) == 0 || h.Config.FaultSpec == "" {
		t.Fatalf("history lacks a compacted baseline or the fault model: compacted %d, %d baseline streams, config %+v",
			h.Compacted, len(h.Baseline), h.Config)
	}
	flips := 0
	for _, rec := range h.Records {
		flips += len(rec.Flips)
	}
	if flips == 0 {
		t.Fatal("no retained record carries a verdict flip")
	}
	eng, err := ringstate.NewEngine(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	handles := map[uint64]uint64{} // live stream ID → rebuilt stream ID
	for _, b := range h.Baseline {
		if handles[b.ID], _, err = eng.Add(b.StreamSpec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range h.Records {
		switch rec.Op {
		case ringstate.OpAdd:
			handles[rec.StreamID], _, err = eng.Add(*rec.Stream)
		case ringstate.OpModify:
			_, err = eng.Modify(handles[rec.StreamID], *rec.Stream)
		case ringstate.OpRemove:
			_, err = eng.Remove(handles[rec.StreamID])
		}
		if err != nil {
			t.Fatalf("record %d (%s): %v", rec.Seq, rec.Op, err)
		}
	}

	state, err := sess.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if state.Version != h.Version {
		t.Fatalf("state at version %d, history at %d", state.Version, h.Version)
	}
	rebuilt := eng.Snapshot()
	if len(rebuilt) != len(state.Streams) {
		t.Fatalf("rebuilt %d streams, live ring holds %d", len(rebuilt), len(state.Streams))
	}
	for i, s := range rebuilt {
		if s.StreamSpec != state.Streams[i].StreamSpec {
			t.Fatalf("stream %d: rebuilt %+v, live %+v", i, s.StreamSpec, state.Streams[i].StreamSpec)
		}
	}
	if err := compareVerdicts(state.Verdicts, eng.Verdicts()); err != nil {
		t.Fatal(err)
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
