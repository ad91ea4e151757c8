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
	ids := map[string]string{}
	for _, e := range edits {
		res, err := replayEdit(ctx, replay, ids, e)
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
	rs, err := replay.state(ctx)
	if err != nil {
		return err
	}
	state := finalStateOf(rs)
	if *jsonOut {
		return enc.Encode(state)
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

// replayer applies edits to one ring and reports them in the /v1/rings
// schema, whether the ring is in process or behind a ringschedd.
type replayer interface {
	// apply runs one add, modify or remove; id is the stream's handle
	// (unused by an add).
	apply(ctx context.Context, op, id string, s wire.StreamSpec) (wire.RingEditResponse, error)
	state(ctx context.Context) (wire.RingResponse, error)
	close(ctx context.Context)
}

// replayEdit runs one script edit through rp. ids maps the script's
// stream names to the handles rp assigned them.
func replayEdit(ctx context.Context, rp replayer, ids map[string]string, e edit) (editResult, error) {
	id, known := ids[e.name]
	if e.op != ringstate.OpAdd && !known {
		return editResult{}, fmt.Errorf("no stream named %q has been added", e.name)
	}
	re, err := rp.apply(ctx, e.op, id, e.stream)
	if err != nil {
		return editResult{}, err
	}
	switch e.op {
	case ringstate.OpAdd:
		ids[e.name] = re.StreamID
	case ringstate.OpRemove:
		delete(ids, e.name)
	}
	res := editResult{
		Op: e.op, Name: e.name, Version: re.Version,
		StreamID: re.StreamID, Reprobed: re.Reprobed,
	}
	for _, d := range re.Deltas {
		res.Deltas = append(res.Deltas, protoOutcome{
			Protocol:          d.Protocol,
			Schedulable:       d.Schedulable,
			EditedSchedulable: d.EditedSchedulable,
		})
	}
	return res, nil
}

// finalStateOf summarizes a ring's state.
func finalStateOf(rs wire.RingResponse) finalState {
	st := finalState{Version: rs.Version, Streams: []string{}}
	for _, s := range rs.Streams {
		st.Streams = append(st.Streams, s.Name)
	}
	for _, v := range rs.Verdicts {
		st.Summary = append(st.Summary, protoOutcome{Protocol: v.Protocol, Schedulable: v.Schedulable})
	}
	return st
}

// offlineReplayer drives the in-process incremental engine directly.
type offlineReplayer struct {
	eng *ringstate.Engine
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
	return &offlineReplayer{eng: eng, ver: 1}, nil
}

func (o *offlineReplayer) apply(_ context.Context, op, id string, s wire.StreamSpec) (wire.RingEditResponse, error) {
	sid, _ := wire.ParseStreamHandle(id)
	var delta *ringstate.Delta
	var err error
	switch op {
	case ringstate.OpAdd:
		_, delta, err = o.eng.Add(s)
	case ringstate.OpModify:
		delta, err = o.eng.Modify(sid, s)
	default:
		delta, err = o.eng.Remove(sid)
	}
	if err != nil {
		return wire.RingEditResponse{}, err
	}
	o.ver++
	return wire.RingEditResponse{
		Version:  o.ver,
		Op:       op,
		StreamID: wire.StreamHandle(delta.StreamID),
		Reprobed: delta.Reprobed,
		Deltas:   delta.Wire(),
	}, nil
}

func (o *offlineReplayer) state(context.Context) (wire.RingResponse, error) {
	rs := wire.RingResponse{Version: o.ver, Verdicts: o.eng.Verdicts()}
	for _, s := range o.eng.Snapshot() {
		rs.Streams = append(rs.Streams, wire.RingStream{ID: wire.StreamHandle(s.ID), StreamSpec: s.StreamSpec})
	}
	return rs, nil
}

func (o *offlineReplayer) close(context.Context) {}

// onlineReplayer drives a live /v1/rings session.
type onlineReplayer struct {
	sess *ringschedclient.RingSession
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
	return &onlineReplayer{sess: sess}, nil
}

func (o *onlineReplayer) apply(ctx context.Context, op, id string, s wire.StreamSpec) (wire.RingEditResponse, error) {
	var re *ringschedclient.RingEdit
	var err error
	switch op {
	case ringstate.OpAdd:
		re, err = o.sess.AddStream(ctx, s)
	case ringstate.OpModify:
		re, err = o.sess.ModifyStream(ctx, id, s)
	default:
		re, err = o.sess.RemoveStream(ctx, id)
	}
	if err != nil {
		return wire.RingEditResponse{}, err
	}
	return *re, nil
}

func (o *onlineReplayer) state(ctx context.Context) (wire.RingResponse, error) {
	rs, err := o.sess.Refresh(ctx)
	if err != nil {
		return wire.RingResponse{}, err
	}
	return *rs, nil
}

func (o *onlineReplayer) close(ctx context.Context) {
	// Best effort: the ring was created for this replay, clean it up.
	_ = o.sess.Delete(ctx)
}
