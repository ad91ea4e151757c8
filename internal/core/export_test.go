package core

import "ringsched/internal/rma"

// ProbeCounters exposes a PDP probe's workspace telemetry to the external
// tests, which drive probes through the breakdown search.
func ProbeCounters(p Probe) rma.Counters { return p.(*pdpJob).ws.Counters() }
