#!/usr/bin/env bash
# Observability-plane demo: bring up a two-replica cluster behind the lb
# and prove the cross-process debugging story end to end:
#
#   1. Federated tracing — a request that peer-fills (lb → replica A →
#      replica B) yields, from ONE query to the lb's /debug/traces, a
#      merged span tree containing member-attributed spans from all
#      three processes.
#   2. Flight recorder — /debug/requests on the serving replica carries
#      the request digest: endpoint, canonical key, the "peer" cache
#      disposition, and the same trace ID the client saw. The owner's
#      recorder holds the fill under that trace ID too, as an ordinary
#      analyze request: fills ride the owner's public routes.
#   3. Audit trail — after CAS edits, /v1/rings/{id}/history?format=script
#      replayed offline through ringadmit -verify-history reproduces the
#      live verdicts bit-for-bit.
#   4. ringtop — one snapshot of the fleet renders RED rows for both
#      replicas from their /metrics and /debug/requests, and replica A's
#      row counts its peer fill in PEER%.
#
# Usage:
#   scripts/obs_demo.sh
#
# Environment:
#   DEMO_PORT  first port of the block used (default 7120)
set -euo pipefail
cd "$(dirname "$0")/.."

port="${DEMO_PORT:-7120}"
a="127.0.0.1:$port"
b="127.0.0.1:$((port + 1))"
lb="127.0.0.1:$((port + 2))"

bin="$(mktemp -d)"
work="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$bin" "$work"
}
trap cleanup EXIT

go build -o "$bin/ringschedd" ./cmd/ringschedd
go build -o "$bin/ringsched-lb" ./cmd/ringsched-lb
go build -o "$bin/ringadmit" ./cmd/ringadmit
go build -o "$bin/ringtop" ./cmd/ringtop

"$bin/ringschedd" -addr "$a" -advertise "$a" -peers "$b" &
pids+=($!)
"$bin/ringschedd" -addr "$b" -advertise "$b" -peers "$a" &
pids+=($!)
# The lb fronts ONLY replica A: spans from B can reach a trace query
# solely through federation (A's peer scatter or the lb's own).
"$bin/ringsched-lb" -addr "$lb" -backends "$a" &
pids+=($!)
for addr in "$a" "$b" "$lb"; do
    for _ in $(seq 1 100); do
        curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    curl -sf "http://$addr/healthz" >/dev/null
done

# --- 1. Drive one request that crosses all three processes. ------------
trace_id=""
for bw in $(seq 1 512); do
    body="{\"bandwidthMbps\":$bw,\"streams\":[{\"name\":\"s\",\"periodMs\":10,\"lengthBits\":4096}]}"
    curl -sf -D "$work/hdr.txt" -o /dev/null -XPOST -d "$body" "http://$lb/v1/analyze"
    if grep -qi '^x-cache: peer' "$work/hdr.txt"; then
        trace_id=$(grep -i '^x-ringsched-trace:' "$work/hdr.txt" | tr -d '\r' | awk '{print $2}')
        break
    fi
done
if [ -z "$trace_id" ]; then
    echo "FAIL: no bandwidth in 1..512 produced a peer fill" >&2
    exit 1
fi
echo "peer-filled request traced as $trace_id"

curl -sf "http://$lb/debug/traces?trace=$trace_id" > "$work/trace.json"
members=$(jq -r '[.spans[].member] | unique | length' "$work/trace.json")
if [ "$members" -lt 3 ]; then
    echo "FAIL: federated trace has spans from $members members, want >= 3" >&2
    jq . "$work/trace.json" >&2
    exit 1
fi
jq -e '.tree | length > 0' "$work/trace.json" >/dev/null
jq -e '[.spans[].name] | index("lb.forward") != null and index("peer.fill") != null' \
    "$work/trace.json" >/dev/null
echo "federated trace: spans from $members processes in one merged tree"

# --- 2. The flight recorder has the digest, trace ID included. ---------
curl -sf "http://$a/debug/requests?endpoint=analyze" > "$work/requests.json"
jq -e --arg id "$trace_id" \
    'any(.requests[]; .traceId == $id and .cache == "peer" and .key != "")' \
    "$work/requests.json" >/dev/null
curl -sf "http://$b/debug/requests" > "$work/owner_requests.json"
if ! jq -e --arg id "$trace_id" 'any(.requests[]; .traceId == $id and .endpoint == "analyze")' \
    "$work/owner_requests.json" >/dev/null; then
    echo "FAIL: owner $b has no analyze record of the fill under trace $trace_id" >&2
    jq . "$work/owner_requests.json" >&2
    exit 1
fi
echo "flight recorder: digest carries the peer disposition and trace ID; the owner logged the fill as analyze"

# --- 3. Audit trail replays to bit-identical verdicts. -----------------
state=$(curl -sf -XPOST -d '{"bandwidthMbps":4,"streams":[{"name":"gyro","periodMs":10,"lengthBits":4096}]}' \
    "http://$a/v1/rings")
rid=$(jq -r .id <<<"$state")
ver=$(jq -r .version <<<"$state")
for i in $(seq 1 5); do
    edit=$(curl -sf -XPOST \
        -d "{\"expectedVersion\":$ver,\"stream\":{\"periodMs\":1$i.5,\"lengthBits\":$((4096 * i))}}" \
        "http://$a/v1/rings/$rid/streams")
    ver=$(jq -r .version <<<"$edit")
done
curl -sf "http://$a/v1/rings/$rid/history?format=script" > "$work/history.txt"
grep -q "# ring $rid history (version $ver)" "$work/history.txt"
"$bin/ringadmit" -base "http://$a" -verify-history "$rid" | tee "$work/verify.txt"
grep -q "verified: ring $rid version $ver" "$work/verify.txt"
echo "audit trail: ringadmit replay certified bit-identical verdicts"

# --- 4. ringtop renders the fleet. -------------------------------------
"$bin/ringtop" -targets "$a,$b" -count 1 > "$work/ringtop.txt"
grep -q '2 members' "$work/ringtop.txt"
grep -q "$a" "$work/ringtop.txt"
grep -q "$b" "$work/ringtop.txt"
peer_pct=$(awk -v m="$a" '$1 == m { print $8 }' "$work/ringtop.txt")
if ! awk -v p="$peer_pct" 'BEGIN { exit !(p + 0 > 0) }'; then
    echo "FAIL: ringtop shows PEER% '$peer_pct' for $a after a peer fill, want > 0" >&2
    cat "$work/ringtop.txt" >&2
    exit 1
fi
echo "ringtop snapshot:"
sed 's/^/  /' "$work/ringtop.txt"

echo "PASS: federated tracing, flight recorder, audit replay, and ringtop all hold"
