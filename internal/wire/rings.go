package wire

// This file is the /v1/rings schema: the requests and responses of a
// ring session. The server, ringschedclient and ringadmit all read and
// write these types, so a ring looks the same through every door.

// RingCreateRequest creates a ring session. The analysis parameters are
// exactly /v1/analyze's (FaultModel and Scenario mutually exclusive);
// Streams optionally seeds the ring.
type RingCreateRequest struct {
	Protocols     []string     `json:"protocols,omitempty"`
	BandwidthMbps float64      `json:"bandwidthMbps"`
	FaultModel    string       `json:"faultModel,omitempty"`
	Scenario      string       `json:"scenario,omitempty"`
	Streams       []StreamSpec `json:"streams,omitempty"`
}

// RingStream is one resident stream with its server-assigned handle.
type RingStream struct {
	ID string `json:"id"`
	StreamSpec
}

// RingResponse is the full state of a ring at one version: config,
// resident streams in canonical order, and the verdicts /v1/analyze
// would report for the same snapshot. SnapshotKey is that equivalent
// analyze request's cache key ("" for an empty ring), so a client can
// check the stateless endpoint agrees without re-posting the set.
type RingResponse struct {
	ID            string       `json:"id"`
	Version       uint64       `json:"version"`
	Protocols     []string     `json:"protocols"`
	BandwidthMbps float64      `json:"bandwidthMbps"`
	FaultModel    string       `json:"faultModel,omitempty"`
	SnapshotKey   string       `json:"snapshotKey,omitempty"`
	Streams       []RingStream `json:"streams"`
	Verdicts      []Verdict    `json:"verdicts"`
}

// RingListResponse is the /v1/rings listing.
type RingListResponse struct {
	Rings []RingSummary `json:"rings"`
}

// RingSummary is one ring in the listing.
type RingSummary struct {
	ID      string `json:"id"`
	Version uint64 `json:"version"`
	Streams int    `json:"streams"`
}

// RingEditRequest is the body of a stream add (POST .../streams) or
// modify (PUT .../streams/{id}). ExpectedVersion 0 is unconditional;
// any other value must match the ring's current version or the edit
// fails with 409 and changes nothing.
type RingEditRequest struct {
	ExpectedVersion uint64     `json:"expectedVersion,omitempty"`
	Stream          StreamSpec `json:"stream"`
}

// RingStreamFlip names a resident stream (other than the edited one)
// whose per-stream verdict changed because of an edit.
type RingStreamFlip struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	Schedulable bool   `json:"schedulable"`
}

// RingProtocolDelta is one protocol's incremental verdict delta for a
// single edit. Degraded fields appear only when the ring has a fault
// model; EditedSchedulable only for add/modify.
type RingProtocolDelta struct {
	Protocol               string           `json:"protocol"`
	Reprobed               int              `json:"reprobed"`
	WasSchedulable         bool             `json:"wasSchedulable"`
	Schedulable            bool             `json:"schedulable"`
	DegradedWasSchedulable *bool            `json:"degradedWasSchedulable,omitempty"`
	DegradedSchedulable    *bool            `json:"degradedSchedulable,omitempty"`
	EditedSchedulable      *bool            `json:"editedSchedulable,omitempty"`
	Flipped                []RingStreamFlip `json:"flipped,omitempty"`
}

// RingEditResponse reports one applied edit: the new version, the edit's
// subject, how much analysis it cost, and the per-protocol deltas. A
// 200 does not mean the stream is schedulable — read the deltas (or
// Admitted); an infeasible admission is a successful edit with a
// negative verdict.
type RingEditResponse struct {
	RingID   string              `json:"ringId"`
	Version  uint64              `json:"version"`
	Op       string              `json:"op"`
	StreamID string              `json:"streamId"`
	Reprobed int                 `json:"reprobed"`
	Deltas   []RingProtocolDelta `json:"deltas"`
}

// Admitted reports whether every protocol's edited-stream verdict came
// back schedulable (vacuously true for removes).
func (e *RingEditResponse) Admitted() bool {
	for _, d := range e.Deltas {
		if d.EditedSchedulable != nil && !*d.EditedSchedulable {
			return false
		}
	}
	return true
}
