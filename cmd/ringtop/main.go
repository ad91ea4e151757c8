// Command ringtop is a terminal dashboard for a ringschedd fleet: it
// polls each member's /metrics and /debug/requests and renders one RED
// row per member — request rate, error and slow percentages, cache /
// coalesce / peer-fill hit rates, resident rings, in-flight work — plus
// a latency sparkline built from the flight recorder's recent digests.
//
// Rates are deltas between consecutive scrapes; the first tick (and
// -count 1 runs) shows lifetime totals instead.
//
// Usage:
//
//	ringtop -targets localhost:8081,localhost:8082
//	ringtop -targets localhost:8081 -interval 1s
//	ringtop -targets localhost:8081 -count 1        # one snapshot, exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"ringsched/internal/cli"
	"ringsched/internal/promtext"
	"ringsched/internal/textplot"
)

func main() {
	cli.Main("ringtop", run)
}

// memberStats is one member's scrape, reduced to the dashboard's needs.
type memberStats struct {
	target string
	err    error

	requests  float64 // all finished requests (SLO classes summed)
	errors    float64 // class="error"
	slow      float64 // class="slow"
	hits      float64
	misses    float64
	coalesced float64
	peerFills float64
	rings     float64
	inFlight  float64

	latenciesMs []float64 // oldest-first, from /debug/requests
}

// scrape polls one member. Any failure marks the whole row.
func scrape(ctx context.Context, client *http.Client, target string) memberStats {
	st := memberStats{target: target}
	base := target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	fams, err := fetchMetrics(ctx, client, base)
	if err != nil {
		st.err = err
		return st
	}
	byName := map[string]promtext.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	slo := byName["ringschedd_slo_requests_total"]
	st.requests = slo.Value(nil)
	st.errors = slo.Value(map[string]string{"class": "error"})
	st.slow = slo.Value(map[string]string{"class": "slow"})
	st.hits = byName["ringschedd_cache_hits_total"].Value(nil)
	st.misses = byName["ringschedd_cache_misses_total"].Value(nil)
	st.coalesced = byName["ringschedd_coalesced_total"].Value(nil)
	// A fill the owner answered from its cache (hit) or computed (miss)
	// was served here as X-Cache: peer; a failed one was computed here.
	fills := byName["ringschedd_peer_fill_total"]
	st.peerFills = fills.Value(map[string]string{"result": "hit"}) + fills.Value(map[string]string{"result": "miss"})
	st.rings = byName["ringschedd_rings"].Value(nil)
	st.inFlight = byName["ringschedd_http_in_flight"].Value(nil)

	if lats, err := fetchLatencies(ctx, client, base); err == nil {
		st.latenciesMs = lats
	}
	return st
}

func fetchMetrics(ctx context.Context, client *http.Client, base string) ([]promtext.Family, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return promtext.Parse(resp.Body)
}

// fetchLatencies reads the flight recorder's newest digests and returns
// their latencies oldest-first, ready for a left-to-right sparkline.
func fetchLatencies(ctx context.Context, client *http.Client, base string) ([]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/requests?limit=64", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/requests: %s", resp.Status)
	}
	var body struct {
		Requests []struct {
			LatencyMs float64 `json:"latencyMs"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	lats := make([]float64, len(body.Requests))
	for i, r := range body.Requests {
		lats[len(body.Requests)-1-i] = r.LatencyMs // newest-first → oldest-first
	}
	return lats, nil
}

// pct renders a share of a total as a percentage cell.
func pct(part, whole float64) string {
	if whole <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*part/whole)
}

// render writes one dashboard frame.
func render(w io.Writer, tick int, interval time.Duration, cur []memberStats, prev map[string]memberStats) {
	fmt.Fprintf(w, "ringtop — %d members, tick %d (interval %s)\n\n", len(cur), tick, interval)
	fmt.Fprintf(w, "%-24s %9s %8s %6s %6s %6s %6s %6s %6s %5s  %s\n",
		"MEMBER", "REQS", "RPS", "ERR%", "SLOW%", "HIT%", "COAL%", "PEER%", "RINGS", "INFL", "LATENCY")
	for _, st := range cur {
		if st.err != nil {
			fmt.Fprintf(w, "%-24s DOWN: %v\n", st.target, st.err)
			continue
		}
		rps := "-"
		if p, ok := prev[st.target]; ok && interval > 0 {
			rps = fmt.Sprintf("%.1f", (st.requests-p.requests)/interval.Seconds())
		}
		lookups := st.hits + st.misses
		spark := textplot.Spark(st.latenciesMs)
		lat := ""
		if n := len(st.latenciesMs); n > 0 {
			maxMs := st.latenciesMs[0]
			for _, v := range st.latenciesMs {
				if v > maxMs {
					maxMs = v
				}
			}
			lat = fmt.Sprintf("%s max=%.1fms", spark, maxMs)
		}
		fmt.Fprintf(w, "%-24s %9.0f %8s %6s %6s %6s %6s %6s %6.0f %5.0f  %s\n",
			st.target, st.requests, rps,
			pct(st.errors, st.requests), pct(st.slow, st.requests),
			pct(st.hits, lookups), pct(st.coalesced, lookups+st.coalesced),
			pct(st.peerFills, lookups), st.rings, st.inFlight, lat)
	}
}

func run(ctx context.Context, args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("ringtop", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		targets  = fs.String("targets", "", "comma-separated ringschedd addresses (host:port,...)")
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
		count    = fs.Int("count", 0, "ticks to render before exiting (0 = run until interrupted)")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-scrape HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var members []string
	for _, tgt := range strings.Split(*targets, ",") {
		if tgt = strings.TrimSpace(tgt); tgt != "" {
			members = append(members, tgt)
		}
	}
	if len(members) == 0 {
		return fmt.Errorf("ringtop: -targets required (comma-separated host:port list)")
	}
	sort.Strings(members)
	client := &http.Client{Timeout: *timeout}

	prev := map[string]memberStats{}
	for tick := 1; ; tick++ {
		cur := make([]memberStats, len(members))
		for i, m := range members {
			cur[i] = scrape(ctx, client, m)
		}
		if tick > 1 {
			fmt.Fprint(out, "\033[H\033[2J") // home + clear between frames
		}
		render(out, tick, *interval, cur, prev)
		for _, st := range cur {
			if st.err == nil {
				prev[st.target] = st
			}
		}
		if *count > 0 && tick >= *count {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}
