package service

import (
	"context"
	"net/http/pprof"

	"ringsched/internal/trace"
)

// registerDebug mounts the debugging surface next to the API: the span
// ring at /debug/traces (federated across the cluster in -peers mode),
// the request flight recorder at /debug/requests, and the standard pprof
// profiles. All of it stays up while draining — it is exactly what an
// operator wants to look at when a deploy is going sideways — so it
// bypasses instrument.
func (s *Server) registerDebug() {
	ds := &trace.DebugServer{Ring: s.spans}
	if s.clust != nil {
		ds.Self = s.clust.self
		ds.Peers = func() []string {
			var peers []string
			for _, m := range s.Members() {
				if m != s.clust.self {
					peers = append(peers, m)
				}
			}
			return peers
		}
		// A peer answers with its own spans only, so it does not scatter
		// in turn: federation stays one hop deep.
		ds.Fetch = func(ctx context.Context, member, traceID string) ([]trace.Record, error) {
			return s.clust.pool.Client(member).Spans(ctx, traceID, true)
		}
		ds.ScatterTimeout = s.cfg.PeerFillTimeout
	}
	s.mux.Handle("/debug/traces", ds)
	s.mux.HandleFunc("/debug/requests", s.handleRequests)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
