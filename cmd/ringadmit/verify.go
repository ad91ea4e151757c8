package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
// the verdicts are compared by their wire encoding with each stream's
// handle and name blanked (compareVerdicts); the admission math depends
// only on (period, length) and canonical position, which the replay
// reproduces exactly.
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
	ids := map[string]string{}
	for _, e := range edits {
		if _, err := replayEdit(ctx, replay, ids, e); err != nil {
			return fmt.Errorf("ringadmit: replay line %d (%s %s): %w", e.line, e.op, e.name, err)
		}
	}

	if err := compareVerdicts(state.Verdicts, replay.eng.Verdicts()); err != nil {
		return fmt.Errorf("ringadmit: ring %s version %d: %w", ringID, state.Version, err)
	}
	fmt.Fprintf(out, "verified: ring %s version %d — %d edits replayed, %d protocol verdicts bit-identical\n",
		ringID, state.Version, len(edits), len(state.Verdicts))
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

// compareVerdicts requires live and replayed verdicts to agree bit for
// bit, protocol by protocol, apart from the streams' identities.
func compareVerdicts(live, replayed []wire.Verdict) error {
	if len(live) != len(replayed) {
		return fmt.Errorf("verdict count differs: live %d, replay %d", len(live), len(replayed))
	}
	for i := range live {
		l, err := verdictBytes(live[i])
		if err != nil {
			return err
		}
		r, err := verdictBytes(replayed[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(l, r) {
			return fmt.Errorf("%s verdict differs:\n  live   %s\n  replay %s", live[i].Protocol, l, r)
		}
	}
	return nil
}

// verdictBytes is v's wire encoding with each stream verdict's handle and
// name blanked and the streams sorted by their encoding, so verdicts that
// differ only in which stream is which compare equal. Go writes every
// finite float in its shortest round-trip form, so equal bytes mean equal
// bits.
func verdictBytes(v wire.Verdict) ([]byte, error) {
	streams := make([]json.RawMessage, len(v.Streams))
	for i, s := range v.Streams {
		s.ID, s.Name = "", ""
		var err error
		if streams[i], err = json.Marshal(s); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(streams, func(a, b json.RawMessage) int { return bytes.Compare(a, b) })
	return json.Marshal(struct {
		wire.Verdict
		Streams []json.RawMessage `json:"streams,omitempty"`
	}{v, streams})
}
