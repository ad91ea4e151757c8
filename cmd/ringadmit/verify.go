package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"ringsched/internal/ringstate"
	"ringsched/internal/wire"
	"ringsched/ringschedclient"
)

// verifyHistory is the -verify-history mode: fetch a live ring's audit
// trail in its script serialization, replay it offline through a fresh
// incremental engine built from the ring's own config, and require the
// replayed verdicts to be bit-identical to the live ones. Audit records
// carry server-assigned stream IDs and the replay assigns its own, so
// per-stream verdicts are compared as multisets with identity ignored;
// the admission math depends only on (period, length) and canonical
// position, which the replay reproduces exactly.
func verifyHistory(ctx context.Context, base, ringID string, out io.Writer) error {
	c := ringschedclient.New(base, ringschedclient.Options{})
	sess, state, err := c.OpenRing(ctx, ringID)
	if err != nil {
		return err
	}
	// The trail and the state must describe the same version. The script
	// header names the version it was cut at; refetch both until they
	// agree, so a concurrent editor cannot make the verification lie.
	var script string
	for attempt := 0; ; attempt++ {
		if script, err = sess.HistoryScript(ctx); err != nil {
			return err
		}
		if state, err = sess.Refresh(ctx); err != nil {
			return err
		}
		if v, ok := scriptVersion(script); ok && v == state.Version {
			break
		}
		if attempt == 2 {
			return fmt.Errorf("ringadmit: ring %s is being edited concurrently; history and state never settled", ringID)
		}
	}
	liveVersion := state.Version

	edits, err := parseScript(strings.NewReader(script))
	if err != nil {
		return fmt.Errorf("ringadmit: history script does not parse: %w", err)
	}
	replay, err := newOfflineReplayer(ringstate.Config{
		Protocols:     state.Protocols,
		BandwidthMbps: state.BandwidthMbps,
		FaultSpec:     state.FaultModel,
	}, "")
	if err != nil {
		return err
	}
	for _, e := range edits {
		if _, err := replay.apply(ctx, e); err != nil {
			return fmt.Errorf("ringadmit: replay line %d (%s %s): %w", e.line, e.op, e.name, err)
		}
	}

	var live []wire.Verdict
	if err := json.Unmarshal(state.Verdicts, &live); err != nil {
		return fmt.Errorf("ringadmit: live verdicts do not decode: %w", err)
	}
	if err := compareVerdicts(live, replay.eng.Verdicts()); err != nil {
		return fmt.Errorf("ringadmit: ring %s version %d: %w", ringID, liveVersion, err)
	}
	fmt.Fprintf(out, "verified: ring %s version %d — %d edits replayed, %d protocol verdicts bit-identical\n",
		ringID, liveVersion, len(edits), len(live))
	return nil
}

// scriptVersion reads the version out of the script's header comment
// ("# ring <id> history (version N)").
func scriptVersion(script string) (uint64, bool) {
	line, _, _ := strings.Cut(script, "\n")
	const marker = "(version "
	i := strings.Index(line, marker)
	if i < 0 || !strings.HasSuffix(line, ")") {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(line[i+len(marker):len(line)-1], "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

// bits renders a float for exact comparison and reporting: the IEEE-754
// payload, so 0.1+0.2 and 0.3 do not pass as equal.
func bits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}

// streamKey renders one per-stream verdict as a comparable string with
// identity (ID, name) excluded.
func streamKey(s wire.StreamVerdict) string {
	return fmt.Sprintf("%s|%d|%d|%s|%s|%s|%s|%v",
		bits(s.PeriodMs), s.Frames, s.Q, bits(s.AugmentedLength),
		bits(s.ResponseTime), bits(s.Allocation), bits(s.WorstCaseResponse), s.Schedulable)
}

func compareVerdicts(live, replayed []wire.Verdict) error {
	if len(live) != len(replayed) {
		return fmt.Errorf("verdict count differs: live %d, replay %d", len(live), len(replayed))
	}
	byProto := map[string]wire.Verdict{}
	for _, v := range replayed {
		byProto[v.Protocol] = v
	}
	for _, lv := range live {
		rv, ok := byProto[lv.Protocol]
		if !ok {
			return fmt.Errorf("protocol %s missing from replay", lv.Protocol)
		}
		scalars := []struct {
			name       string
			live, repl float64
		}{
			{"utilization", lv.Utilization, rv.Utilization},
			{"augmentedUtilization", lv.AugmentedUtilization, rv.AugmentedUtilization},
			{"blocking", lv.Blocking, rv.Blocking},
			{"theta", lv.Theta, rv.Theta},
			{"frameTime", lv.FrameTime, rv.FrameTime},
			{"ttrt", lv.TTRT, rv.TTRT},
			{"overhead", lv.Overhead, rv.Overhead},
			{"totalAllocation", lv.TotalAllocation, rv.TotalAllocation},
			{"capacity", lv.Capacity, rv.Capacity},
		}
		if lv.Schedulable != rv.Schedulable {
			return fmt.Errorf("%s: schedulable live=%v replay=%v", lv.Protocol, lv.Schedulable, rv.Schedulable)
		}
		for _, s := range scalars {
			if math.Float64bits(s.live) != math.Float64bits(s.repl) {
				return fmt.Errorf("%s: %s differs: live %s replay %s (%v vs %v)",
					lv.Protocol, s.name, bits(s.live), bits(s.repl), s.live, s.repl)
			}
		}
		if (lv.Degraded == nil) != (rv.Degraded == nil) {
			return fmt.Errorf("%s: degraded presence differs", lv.Protocol)
		}
		if lv.Degraded != nil {
			ld, rd := lv.Degraded, rv.Degraded
			if ld.Schedulable != rd.Schedulable {
				return fmt.Errorf("%s: degraded schedulable live=%v replay=%v", lv.Protocol, ld.Schedulable, rd.Schedulable)
			}
			dscalars := []struct {
				name       string
				live, repl float64
			}{
				{"availability", ld.Availability, rd.Availability},
				{"losses", ld.Losses, rd.Losses},
				{"recovery", ld.Recovery, rd.Recovery},
				{"blocking", ld.Blocking, rd.Blocking},
				{"totalAllocation", ld.TotalAllocation, rd.TotalAllocation},
				{"capacity", ld.Capacity, rd.Capacity},
			}
			for _, s := range dscalars {
				if math.Float64bits(s.live) != math.Float64bits(s.repl) {
					return fmt.Errorf("%s: degraded %s differs: live %s replay %s",
						lv.Protocol, s.name, bits(s.live), bits(s.repl))
				}
			}
		}
		if len(lv.Streams) != len(rv.Streams) {
			return fmt.Errorf("%s: stream count differs: live %d replay %d",
				lv.Protocol, len(lv.Streams), len(rv.Streams))
		}
		lk := make([]string, len(lv.Streams))
		rk := make([]string, len(rv.Streams))
		for i := range lv.Streams {
			lk[i] = streamKey(lv.Streams[i])
			rk[i] = streamKey(rv.Streams[i])
		}
		sort.Strings(lk)
		sort.Strings(rk)
		for i := range lk {
			if lk[i] != rk[i] {
				return fmt.Errorf("%s: per-stream verdict multiset differs at %d:\n  live   %s\n  replay %s",
					lv.Protocol, i, lk[i], rk[i])
			}
		}
	}
	return nil
}
