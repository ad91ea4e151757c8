// Command ringadmit replays an online admission-control edit script
// against a ring: a sequence of add / modify / remove edits, each
// answered with the incremental per-protocol verdict delta. By default
// the script runs offline through the in-process incremental engine;
// with -base it runs against a live ringschedd /v1/rings session
// (created for the run and deleted afterwards), exercising the same
// engine over the wire with optimistic concurrency.
//
// Script format, one edit per line (# comments and blank lines ignored):
//
//	add <name> <periodMs> <lengthBits>
//	modify <name> <periodMs> <lengthBits>
//	remove <name>
//
// Names are script-local handles: modify and remove address the most
// recent add with that name.
//
// Usage:
//
//	ringadmit -print-example > edits.txt
//	ringadmit -script edits.txt -bw 16
//	ringadmit -script edits.txt -bw 16 -scenario lossy-token -json
//	ringadmit -script edits.txt -base http://localhost:8080
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ringsched/internal/cli"
	"ringsched/internal/ringstate"
	"ringsched/internal/wire"
	"ringsched/ringschedclient"
)

func main() {
	cli.Main("ringadmit", run)
}

const exampleScript = `# ringadmit edit script: grow a ring until admission fails.
add gyro 10 4096
add telemetry 50 65536
add video 100 1048576
modify video 100 2097152
remove telemetry
`

// edit is one parsed script line.
type edit struct {
	op     string
	name   string
	stream wire.StreamSpec
	line   int
}

func parseScript(r io.Reader) ([]edit, error) {
	var edits []edit
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		e := edit{op: f[0], line: line}
		switch e.op {
		case "add", "modify":
			if len(f) != 4 {
				return nil, fmt.Errorf("line %d: want %q, got %q", line, e.op+" <name> <periodMs> <lengthBits>", text)
			}
			period, err1 := strconv.ParseFloat(f[2], 64)
			bits, err2 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad number in %q", line, text)
			}
			e.name = f[1]
			e.stream = wire.StreamSpec{Name: f[1], PeriodMs: period, LengthBits: bits}
		case "remove":
			if len(f) != 2 {
				return nil, fmt.Errorf("line %d: want %q, got %q", line, "remove <name>", text)
			}
			e.name = f[1]
		default:
			return nil, fmt.Errorf("line %d: unknown op %q (want add, modify or remove)", line, e.op)
		}
		edits = append(edits, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edits, nil
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringadmit", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scriptPath   = fs.String("script", "", `edit script file ("-" or empty = stdin)`)
		bwMbps       = fs.Float64("bw", 100, "network bandwidth in Mbps")
		protocols    = fs.String("protocols", "", "comma-separated protocol slugs (default: all three)")
		faultSpec    = fs.String("fault-model", "", "fault model spec for side-by-side degraded verdicts")
		scenario     = fs.String("scenario", "", "named fault scenario (mutually exclusive with -fault-model)")
		base         = fs.String("base", "", "ringschedd base URL; empty replays offline through the in-process engine")
		jsonOut      = fs.Bool("json", false, "emit one JSON object per edit plus the final ring state")
		printExample = fs.Bool("print-example", false, "print an example edit script and exit")
		verifyRing   = fs.String("verify-history", "",
			"ring ID: fetch its audit trail from -base, replay it offline, and require bit-identical verdicts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printExample {
		_, err := io.WriteString(out, exampleScript)
		return err
	}
	if *verifyRing != "" {
		if *base == "" {
			return fmt.Errorf("-verify-history requires -base (the ringschedd holding the ring)")
		}
		return verifyHistory(ctx, *base, *verifyRing, out)
	}
	if *faultSpec != "" && *scenario != "" {
		return fmt.Errorf("-fault-model and -scenario are mutually exclusive")
	}

	in := io.Reader(os.Stdin)
	if *scriptPath != "" && *scriptPath != "-" {
		f, err := os.Open(*scriptPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	edits, err := parseScript(in)
	if err != nil {
		return err
	}

	var protos []string
	if *protocols != "" {
		for _, p := range strings.Split(*protocols, ",") {
			protos = append(protos, strings.TrimSpace(p))
		}
	}

	var replay replayer
	if *base == "" {
		replay, err = newOfflineReplayer(ringstate.Config{
			Protocols:     protos,
			BandwidthMbps: *bwMbps,
			FaultSpec:     *faultSpec,
		}, *scenario)
	} else {
		replay, err = newOnlineReplayer(ctx, *base, protos, *bwMbps, *faultSpec, *scenario)
	}
	if err != nil {
		return err
	}
	defer replay.close(ctx)

	enc := json.NewEncoder(out)
	for _, e := range edits {
		res, err := replay.apply(ctx, e)
		if err != nil {
			return fmt.Errorf("line %d (%s %s): %w", e.line, e.op, e.name, err)
		}
		if *jsonOut {
			if err := enc.Encode(res); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(out, "%-6s %-12s v%-3d reprobed=%-3d %s\n",
			e.op, e.name, res.Version, res.Reprobed, res.verdictSummary())
	}
	if *jsonOut {
		state, err := replay.state(ctx)
		if err != nil {
			return err
		}
		return enc.Encode(state)
	}
	state, err := replay.state(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final: %d streams at version %d\n", len(state.Streams), state.Version)
	for _, v := range state.Summary {
		fmt.Fprintf(out, "  %-16s schedulable=%v\n", v.Protocol, v.Schedulable)
	}
	return nil
}

// editResult is one edit's outcome, shape-shared between the offline
// and online replayers.
type editResult struct {
	Op       string         `json:"op"`
	Name     string         `json:"name"`
	Version  uint64         `json:"version"`
	StreamID string         `json:"streamId,omitempty"`
	Reprobed int            `json:"reprobed"`
	Deltas   []protoOutcome `json:"deltas"`
}

// protoOutcome is one protocol's outcome line.
type protoOutcome struct {
	Protocol          string `json:"protocol"`
	Schedulable       bool   `json:"schedulable"`
	EditedSchedulable *bool  `json:"editedSchedulable,omitempty"`
}

func (r editResult) verdictSummary() string {
	var b strings.Builder
	for i, d := range r.Deltas {
		if i > 0 {
			b.WriteByte(' ')
		}
		mark := "+"
		if !d.Schedulable {
			mark = "!"
		}
		if d.EditedSchedulable != nil && !*d.EditedSchedulable {
			mark = "-"
		}
		b.WriteString(mark + d.Protocol)
	}
	return b.String()
}

// finalState is the replay's closing summary.
type finalState struct {
	Version uint64         `json:"version"`
	Streams []string       `json:"streams"`
	Summary []protoOutcome `json:"summary"`
}

type replayer interface {
	apply(ctx context.Context, e edit) (editResult, error)
	state(ctx context.Context) (finalState, error)
	close(ctx context.Context)
}

// offlineReplayer drives the in-process incremental engine directly.
type offlineReplayer struct {
	eng *ringstate.Engine
	ids map[string]uint64
	ver uint64
}

func newOfflineReplayer(cfg ringstate.Config, scenario string) (*offlineReplayer, error) {
	if scenario != "" {
		spec, _, err := wire.ResolveFaults("", scenario)
		if err != nil {
			return nil, err
		}
		cfg.FaultSpec = spec
	}
	eng, err := ringstate.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &offlineReplayer{eng: eng, ids: map[string]uint64{}, ver: 1}, nil
}

func (o *offlineReplayer) apply(_ context.Context, e edit) (editResult, error) {
	var delta *ringstate.Delta
	var err error
	id, known := o.ids[e.name]
	switch e.op {
	case "add":
		id, delta, err = o.eng.Add(e.stream)
		if err == nil {
			o.ids[e.name] = id
		}
	case "modify":
		if !known {
			return editResult{}, fmt.Errorf("no stream named %q has been added", e.name)
		}
		delta, err = o.eng.Modify(id, e.stream)
	case "remove":
		if !known {
			return editResult{}, fmt.Errorf("no stream named %q has been added", e.name)
		}
		delta, err = o.eng.Remove(id)
		if err == nil {
			delete(o.ids, e.name)
		}
	}
	if err != nil {
		return editResult{}, err
	}
	o.ver++
	res := editResult{
		Op: e.op, Name: e.name, Version: o.ver,
		StreamID: wire.StreamHandle(id), Reprobed: delta.Reprobed,
	}
	for _, pd := range delta.Protocols {
		po := protoOutcome{Protocol: pd.Protocol, Schedulable: pd.Schedulable}
		if e.op != "remove" {
			ok := pd.EditedSchedulable
			po.EditedSchedulable = &ok
		}
		res.Deltas = append(res.Deltas, po)
	}
	return res, nil
}

func (o *offlineReplayer) state(context.Context) (finalState, error) {
	st := finalState{Version: o.ver, Streams: []string{}}
	for _, s := range o.eng.Snapshot() {
		st.Streams = append(st.Streams, s.Name)
	}
	for _, v := range o.eng.Verdicts() {
		st.Summary = append(st.Summary, protoOutcome{Protocol: v.Protocol, Schedulable: v.Schedulable})
	}
	return st, nil
}

func (o *offlineReplayer) close(context.Context) {}

// onlineReplayer drives a live /v1/rings session.
type onlineReplayer struct {
	sess *ringschedclient.RingSession
	ids  map[string]string
}

func newOnlineReplayer(ctx context.Context, base string, protos []string, bw float64, faultSpec, scenario string) (*onlineReplayer, error) {
	c := ringschedclient.New(base, ringschedclient.Options{})
	sess, _, err := c.CreateRing(ctx, ringschedclient.RingCreateRequest{
		Protocols:     protos,
		BandwidthMbps: bw,
		FaultModel:    faultSpec,
		Scenario:      scenario,
	})
	if err != nil {
		return nil, err
	}
	return &onlineReplayer{sess: sess, ids: map[string]string{}}, nil
}

func (o *onlineReplayer) apply(ctx context.Context, e edit) (editResult, error) {
	var re *ringschedclient.RingEdit
	var err error
	id, known := o.ids[e.name]
	spec := ringschedclient.RingStreamSpec{Name: e.stream.Name, PeriodMs: e.stream.PeriodMs, LengthBits: e.stream.LengthBits}
	switch e.op {
	case "add":
		re, err = o.sess.AddStream(ctx, spec)
		if err == nil {
			o.ids[e.name] = re.StreamID
		}
	case "modify":
		if !known {
			return editResult{}, fmt.Errorf("no stream named %q has been added", e.name)
		}
		re, err = o.sess.ModifyStream(ctx, id, spec)
	case "remove":
		if !known {
			return editResult{}, fmt.Errorf("no stream named %q has been added", e.name)
		}
		re, err = o.sess.RemoveStream(ctx, id)
		if err == nil {
			delete(o.ids, e.name)
		}
	}
	if err != nil {
		return editResult{}, err
	}
	res := editResult{
		Op: e.op, Name: e.name, Version: re.Version,
		StreamID: re.StreamID, Reprobed: re.Reprobed,
	}
	for _, pd := range re.Deltas {
		res.Deltas = append(res.Deltas, protoOutcome{
			Protocol:          pd.Protocol,
			Schedulable:       pd.Schedulable,
			EditedSchedulable: pd.EditedSchedulable,
		})
	}
	return res, nil
}

func (o *onlineReplayer) state(ctx context.Context) (finalState, error) {
	rs, err := o.sess.Refresh(ctx)
	if err != nil {
		return finalState{}, err
	}
	st := finalState{Version: rs.Version, Streams: []string{}}
	for _, s := range rs.Streams {
		st.Streams = append(st.Streams, s.Name)
	}
	var verdicts []struct {
		Protocol    string `json:"protocol"`
		Schedulable bool   `json:"schedulable"`
	}
	if err := json.Unmarshal(rs.Verdicts, &verdicts); err != nil {
		return finalState{}, err
	}
	for _, v := range verdicts {
		st.Summary = append(st.Summary, protoOutcome{Protocol: v.Protocol, Schedulable: v.Schedulable})
	}
	return st, nil
}

func (o *onlineReplayer) close(ctx context.Context) {
	// Best effort: the ring was created for this replay, clean it up.
	_ = o.sess.Delete(ctx)
}
