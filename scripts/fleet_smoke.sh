#!/usr/bin/env bash
# Fleet smoke test: the self-healing serving tier end to end.
#
# Trains a tiny checkpoint, starts `cascn-router` supervising a 3-replica
# `cascn-serve` tier on ephemeral ports, warms the spectral caches through
# the router, snapshots them, then kill -9's a replica *while loadgen is
# mid-run* and asserts:
#
#   1. zero non-503 client errors across the failover window (loadgen
#      exits nonzero on any outright failure),
#   2. the supervisor restarts the victim (restarts counter >= 1, new pid,
#      tier back to 3 live replicas),
#   3. the restarted replica warm-starts from its persisted snapshot and
#      serves warm cache hits on the re-offered payload pool,
#   4. the router shuts the whole tier down cleanly on POST /shutdown.
#
# Also emits BENCH_serve.json at the repo root — router p50/p99, the
# failover-window shed count, the victim's warm-start hit rate, a
# per-replica p50/p99 breakdown (loadgen --target-list driven directly
# against the tier), and the /predict_next latency of a next-user server
# — then gates it against serve-baseline.json via `serve_check --check`
# (the serving analogue of the record --check perf ratchet).
set -euo pipefail

cd "$(dirname "$0")/.."
CASCN=target/release/cascn
SERVE=target/release/cascn-serve
ROUTER=target/release/cascn-router
LOADGEN=target/release/loadgen
SERVE_CHECK=target/release/serve_check
if [ ! -x "$CASCN" ] || [ ! -x "$SERVE" ] || [ ! -x "$ROUTER" ] || [ ! -x "$LOADGEN" ] \
    || [ ! -x "$SERVE_CHECK" ]; then
    cargo build --release -q
fi
TMP=$(mktemp -d)
ROUTER_PID=""
NEXT_PID=""
cleanup() {
    [ -n "$ROUTER_PID" ] && kill "$ROUTER_PID" 2> /dev/null || true
    [ -n "$NEXT_PID" ] && kill "$NEXT_PID" 2> /dev/null || true
    # The router's supervisor kills its replicas on exit; pkill is a
    # belt-and-braces sweep for replicas orphaned by a failed assertion.
    pkill -9 -f "cascn-serve --model $TMP/" 2> /dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "fleet smoke FAILED: $1" >&2
    [ -f "$TMP/router.log" ] && tail -n 40 "$TMP/router.log" >&2
    exit 1
}

# One HTTP request over bash's /dev/tcp; prints the raw response.
http() { # METHOD PATH ADDR
    local host=${3%:*} port=${3##*:}
    exec 3<> "/dev/tcp/$host/$port" || return 1
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\nContent-Length: 0\r\n\r\n' \
        "$1" "$2" >&3
    cat <&3
    exec 3<&- 3>&-
}

# One POST with a body file; prints the raw response.
http_body() { # PATH ADDR BODYFILE
    local host=${2%:*} port=${2##*:} len
    len=$(wc -c < "$3")
    exec 3<> "/dev/tcp/$host/$port" || return 1
    {
        printf 'POST %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\nContent-Length: %s\r\n\r\n' \
            "$1" "$len"
        cat "$3"
    } >&3
    cat <&3
    exec 3<&- 3>&-
}

metric() { # NAME FILE — value of an exact-name metric line
    local esc
    # BRE-escape the metric name; braces and quotes are already literal.
    esc=$(printf '%s' "$1" | sed 's|[][\.*^$/]|\\&|g')
    sed -n "s/^$esc //p" "$2" | head -n 1
}

# 1. Train a tiny model (architecture must match the replica flags).
"$CASCN" generate --dataset weibo --n 200 --seed 9 --out "$TMP/d.cascades" > /dev/null
"$CASCN" train --data "$TMP/d.cascades" --window 3600 --hidden 4 --max-nodes 10 \
    --max-steps 5 --min-size 3 --epochs 2 --out "$TMP/model.ckpt" > /dev/null
[ -s "$TMP/model.ckpt" ] || fail "training wrote no model file"

# 2. Start the router supervising 3 replicas, each with its own snapshot
#    file ({i} is substituted per replica).
"$ROUTER" --addr 127.0.0.1:0 --replicas 3 --replica-cmd "$SERVE" \
    --replica-arg --model --replica-arg "$TMP/model.ckpt" \
    --replica-arg --addr --replica-arg 127.0.0.1:0 \
    --replica-arg --window --replica-arg 3600 \
    --replica-arg --hidden --replica-arg 4 \
    --replica-arg --max-nodes --replica-arg 10 \
    --replica-arg --max-steps --replica-arg 5 \
    --replica-arg --snapshot --replica-arg "$TMP/spectral-{i}.snap" \
    --deadline-ms 5000 --max-attempts 4 --failure-threshold 2 \
    --probe-interval-ms 100 --restart-backoff-ms 100 --restart-backoff-cap-ms 500 \
    > "$TMP/router.log" 2>&1 &
ROUTER_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's/^listening on //p' "$TMP/router.log" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$ROUTER_PID" 2> /dev/null || fail "router exited before listening"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "router never reported its address"

# Wait for all three replicas to come up and publish their addresses.
for _ in $(seq 1 300); do
    UP=$(grep -c '^replica [0-9]* listening on ' "$TMP/router.log" || true)
    [ "$UP" -ge 3 ] && break
    sleep 0.1
done
[ "${UP:-0}" -ge 3 ] || fail "replicas never came up (saw ${UP:-0}/3)"

# 3. Warm phase: drive the tier through the router. The payload pool is
#    small so rendezvous routing builds each replica's spectral cache. A
#    quarter of the requests are /observe registrations, so the streaming
#    path is exercised through the router under concurrency.
"$LOADGEN" --addr "$ADDR" --requests 120 --concurrency 4 --n-cascades 20 \
    --window 3600 --seed 7 --observe-ratio 0.25 > "$TMP/warm.log" \
    || fail "warm-phase loadgen reported failures"
grep -q '^observe: ' "$TMP/warm.log" || fail "loadgen printed no observe latency line"

# 3b. Streaming parity through the router: observe → predict → observe →
#     (window-crossing) refresh → predict. A cascade predicted before it
#     existed as live state must serve the same prediction after being
#     streamed in via /observe, and again after an append that crosses to
#     a wider window. A predict that hits the observe-seeded basis reuses
#     the incrementally maintained operator, which is held to the 5e-4
#     parity gate rather than bit equality — so that is the bound here.
within_gate() { # A B — |A-B| < 5e-4
    awk -v a="$1" -v b="$2" 'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d < 5e-4) }'
}
{
    echo "cascade 777 0"
    echo "event 1 - 0"
    echo "event 2 0 5"
    echo "event 3 0 10"
    echo "event 4 1 20"
} > "$TMP/obs-full.txt"
PRED_COLD=$(http_body "/predict?window=3600" "$ADDR" "$TMP/obs-full.txt" | sed -n 's/^prediction 777 //p')
[ -n "$PRED_COLD" ] || fail "cold predict of the parity cascade returned nothing"
head -n 3 "$TMP/obs-full.txt" > "$TMP/obs-prefix.txt"
http_body "/observe?window=3600" "$ADDR" "$TMP/obs-prefix.txt" | grep -q '200 OK' \
    || fail "observe registration through the router failed"
{ head -n 1 "$TMP/obs-full.txt"; tail -n +4 "$TMP/obs-full.txt"; } > "$TMP/obs-suffix.txt"
http_body "/observe?window=3600" "$ADDR" "$TMP/obs-suffix.txt" | grep -q '200 OK' \
    || fail "observe append through the router failed"
PRED_WARM=$(http_body "/predict?window=3600" "$ADDR" "$TMP/obs-full.txt" | sed -n 's/^prediction 777 //p')
within_gate "$PRED_WARM" "$PRED_COLD" \
    || fail "streamed cascade drifted past the parity gate ($PRED_COLD -> $PRED_WARM)"
# Refresh leg: one more append at a wider window forces the live state
# through its window-crossing refresh; the served prediction must again
# match a from-scratch prediction of the grown cascade within the gate.
echo "event 5 2 30" >> "$TMP/obs-full.txt"
PRED_COLD7=$(http_body "/predict?window=7200" "$ADDR" "$TMP/obs-full.txt" | sed -n 's/^prediction 777 //p')
{ head -n 1 "$TMP/obs-full.txt"; echo "event 5 2 30"; } > "$TMP/obs-suffix2.txt"
http_body "/observe?window=7200" "$ADDR" "$TMP/obs-suffix2.txt" | grep -q '200 OK' \
    || fail "window-crossing observe through the router failed"
PRED_WARM7=$(http_body "/predict?window=7200" "$ADDR" "$TMP/obs-full.txt" | sed -n 's/^prediction 777 //p')
within_gate "$PRED_WARM7" "$PRED_COLD7" \
    || fail "window-crossing refresh drifted past the parity gate ($PRED_COLD7 -> $PRED_WARM7)"

# 3c. Tier-wide count of streamed events, scraped while every replica is
#     still alive (the chaos phase resets the victim's counters).
OBS_EVENTS=0
for i in 0 1 2; do
    RADDR=$(sed -n "s/^replica $i listening on //p" "$TMP/router.log" | head -n 1)
    [ -n "$RADDR" ] || continue
    http GET /metrics "$RADDR" > "$TMP/observe-$i.metrics" || continue
    N=$(metric cascn_observe_events_total "$TMP/observe-$i.metrics")
    OBS_EVENTS=$((OBS_EVENTS + ${N:-0}))
done
[ "$OBS_EVENTS" -gt 0 ] || fail "no replica counted streamed observe events"

# Persist every replica's warm cache (fan-out through the router).
http POST /snapshot "$ADDR" | grep -q '200 OK' || fail "POST /snapshot did not fan out cleanly"

# 4. Pick a victim that actually holds cache entries, so its snapshot has
#    something to warm-start from.
VICTIM=""
for i in 0 1 2; do
    RADDR=$(sed -n "s/^replica $i listening on //p" "$TMP/router.log" | head -n 1)
    [ -n "$RADDR" ] || continue
    http GET /metrics "$RADDR" > "$TMP/replica-$i.metrics" || continue
    ENTRIES=$(metric cascn_spectral_cache_entries "$TMP/replica-$i.metrics")
    if [ -n "$ENTRIES" ] && [ "$ENTRIES" -gt 0 ]; then
        VICTIM=$i
        break
    fi
done
[ -n "$VICTIM" ] || fail "no replica holds spectral cache entries after the warm phase"
OLD_PID=$(sed -n "s/^replica $VICTIM pid //p" "$TMP/router.log" | head -n 1)
[ -n "$OLD_PID" ] || fail "no pid announce line for replica $VICTIM"

# 5. Chaos phase: kill -9 the victim while loadgen is mid-run. Every
#    client must see 200 (exact answer) or 503 (shed) — never anything
#    else; loadgen exits nonzero on any other outcome. The request count
#    is sized so the run comfortably outlasts the kill.
"$LOADGEN" --addr "$ADDR" --requests 2000 --concurrency 4 --n-cascades 20 \
    --window 3600 --seed 7 > "$TMP/chaos.log" &
LOADGEN_PID=$!
sleep 0.1
kill -9 "$OLD_PID" 2> /dev/null || true
kill -0 "$LOADGEN_PID" 2> /dev/null || fail "loadgen finished before the kill — not under load"
wait "$LOADGEN_PID" || fail "chaos-phase loadgen saw non-503 errors across the kill"

# 6. The supervisor must restart the victim with a new pid and the tier
#    must heal back to 3 live replicas.
NEW_PID=""
for _ in $(seq 1 300); do
    NEW_PID=$(sed -n "s/^replica $VICTIM pid //p" "$TMP/router.log" | sed -n 2p)
    [ -n "$NEW_PID" ] && break
    sleep 0.1
done
[ -n "$NEW_PID" ] || fail "replica $VICTIM was not restarted after kill -9"
[ "$NEW_PID" != "$OLD_PID" ] || fail "restart reused the old pid announce"
LIVE=""
for _ in $(seq 1 300); do
    http GET /metrics "$ADDR" > "$TMP/router.metrics" || true
    LIVE=$(metric cascn_router_replicas_live "$TMP/router.metrics")
    [ "${LIVE:-0}" = "3" ] && break
    sleep 0.1
done
[ "${LIVE:-0}" = "3" ] || fail "tier never healed back to 3 live replicas (live=$LIVE)"
RESTARTS=$(metric cascn_router_restarts_total "$TMP/router.metrics")
[ -n "$RESTARTS" ] && [ "$RESTARTS" -ge 1 ] || fail "expected restarts_total >= 1, got '${RESTARTS:-missing}'"

# 7. Warm-start proof: the restarted replica must have loaded its snapshot,
#    and re-offering the same payload pool must score warm hits on it
#    (rendezvous routing sends its payloads back to it).
NEW_RADDR=$(sed -n "s/^replica $VICTIM listening on //p" "$TMP/router.log" | sed -n 2p)
[ -n "$NEW_RADDR" ] || fail "restarted replica never published a new address"
"$LOADGEN" --addr "$ADDR" --requests 120 --concurrency 4 --n-cascades 20 \
    --window 3600 --seed 7 > "$TMP/rewarm.log" \
    || fail "re-warm loadgen reported failures"
http GET /metrics "$NEW_RADDR" > "$TMP/victim.metrics" || fail "cannot scrape restarted replica"
WARM_LOAD=$(metric 'cascn_snapshot_load{result="warm"}' "$TMP/victim.metrics")
[ "${WARM_LOAD:-0}" = "1" ] || fail "restarted replica did not warm-load its snapshot (warm=$WARM_LOAD)"
WARM_HITS=$(metric cascn_spectral_cache_warm_hits_total "$TMP/victim.metrics")
[ -n "$WARM_HITS" ] && [ "$WARM_HITS" -gt 0 ] \
    || fail "expected warm-start cache hits on the restarted replica, got '${WARM_HITS:-missing}'"

# 7b. Per-replica latency: drive the three replicas directly with
#     --target-list so loadgen's per-target breakdown exposes each
#     replica's own p50/p99 (the router percentiles pool the tier, which
#     hides a single slow replica).
for i in 0 1 2; do
    sed -n "s/^replica $i listening on //p" "$TMP/router.log" | tail -n 1
done > "$TMP/targets.txt"
[ "$(wc -l < "$TMP/targets.txt")" -eq 3 ] || fail "could not collect 3 replica addresses"
"$LOADGEN" --target-list "$TMP/targets.txt" --requests 120 --concurrency 3 \
    --n-cascades 20 --window 3600 --seed 7 > "$TMP/per-replica.log" \
    || fail "per-replica loadgen reported failures"
grep -q '^target\[2\] ' "$TMP/per-replica.log" || fail "loadgen printed no per-target breakdown"

# 7c. Next-user serving leg: train a tiny next-user checkpoint on the same
#     data, serve it with a single `cascn-serve --task next-user`, and
#     drive a mixed /predict + /predict_next stream at it. The loadgen
#     `predict_next:` latency line feeds the BENCH_serve.json block the
#     serve_check ratchet gates.
"$CASCN" train --data "$TMP/d.cascades" --task next-user --window 3600 --hidden 4 \
    --max-nodes 10 --max-steps 5 --min-size 3 --epochs 2 --out "$TMP/next.ckpt" \
    > "$TMP/next-train.log" || fail "next-user training failed"
[ -s "$TMP/next.ckpt" ] || fail "next-user training wrote no checkpoint"
VOCAB=$(sed -n 's/.*vocab \([0-9]*\).*/\1/p' "$TMP/next-train.log" | head -n 1)
[ -n "$VOCAB" ] || fail "next-user training printed no vocab size"
"$SERVE" --model "$TMP/next.ckpt" --task next-user --vocab-users "$VOCAB" \
    --addr 127.0.0.1:0 --window 3600 --hidden 4 --max-nodes 10 --max-steps 5 \
    > "$TMP/next-server.log" 2>&1 &
NEXT_PID=$!
NADDR=""
for _ in $(seq 1 300); do
    NADDR=$(sed -n 's/^listening on //p' "$TMP/next-server.log" | head -n 1)
    [ -n "$NADDR" ] && break
    kill -0 "$NEXT_PID" 2> /dev/null || fail "next-user server exited before listening"
    sleep 0.1
done
[ -n "$NADDR" ] || fail "next-user server never reported its address"
"$LOADGEN" --addr "$NADDR" --requests 120 --concurrency 4 --n-cascades 20 \
    --window 3600 --seed 7 --predict-next-ratio 0.5 --k 10 > "$TMP/next.log" \
    || fail "next-user loadgen reported failures (409s mean a task mismatch)"
grep -q '^predict_next: ' "$TMP/next.log" || fail "loadgen printed no predict_next latency line"
http POST /shutdown "$NADDR" > /dev/null || true
EXIT_CODE=0
wait "$NEXT_PID" || EXIT_CODE=$?
NEXT_PID=""
[ "$EXIT_CODE" -eq 0 ] || fail "next-user server exited with code $EXIT_CODE"

# 8. Clean shutdown through the router (it stops its replicas too).
http GET /metrics "$ADDR" > "$TMP/router.metrics" || true
http POST /shutdown "$ADDR" > /dev/null || true
EXIT_CODE=0
wait "$ROUTER_PID" || EXIT_CODE=$?
ROUTER_PID=""
[ "$EXIT_CODE" -eq 0 ] || fail "router exited with code $EXIT_CODE"

# 9. Emit BENCH_serve.json — first point of the serving perf trajectory.
P50=$(metric 'cascn_router_latency_us{quantile="0.5"}' "$TMP/router.metrics")
P99=$(metric 'cascn_router_latency_us{quantile="0.99"}' "$TMP/router.metrics")
SHED=$(metric 'cascn_router_requests_total{class="shed"}' "$TMP/router.metrics")
FAILOVERS=$(metric cascn_router_failovers_total "$TMP/router.metrics")
WARM_ENTRIES=$(metric cascn_spectral_cache_warm_entries "$TMP/victim.metrics")
HITS=$(metric cascn_spectral_cache_hits_total "$TMP/victim.metrics")
WARM_RATE=$(awk -v w="${WARM_HITS:-0}" -v h="${HITS:-0}" \
    'BEGIN { printf "%.4f", (h > 0) ? w / h : 0 }')
# Streaming-ingestion stats: loadgen's `observe: N ok, p50 Xus p99 Yus`
# line from the warm phase, plus the tier-wide streamed-event count taken
# in step 3c.
OBS_OK=$(sed -n 's/^observe: \([0-9]*\) ok.*/\1/p' "$TMP/warm.log" | head -n 1)
OBS_P50=$(sed -n 's/^observe: .* p50 \([0-9]*\)us.*/\1/p' "$TMP/warm.log" | head -n 1)
OBS_P99=$(sed -n 's/^observe: .* p99 \([0-9]*\)us.*/\1/p' "$TMP/warm.log" | head -n 1)
# Next-user serving latency: loadgen's `predict_next: N ok, p50 Xus p99 Yus`
# line from the step-7c leg.
NEXT_OK=$(sed -n 's/^predict_next: \([0-9]*\) ok.*/\1/p' "$TMP/next.log" | head -n 1)
NEXT_P50=$(sed -n 's/^predict_next: .* p50 \([0-9]*\)us.*/\1/p' "$TMP/next.log" | head -n 1)
NEXT_P99=$(sed -n 's/^predict_next: .* p99 \([0-9]*\)us.*/\1/p' "$TMP/next.log" | head -n 1)
# Per-replica p50/p99 from loadgen's `target[i] addr: N ok, p50 Xus p99 Yus`
# lines, rendered as a JSON array.
PER_REPLICA=$(awk '
    /^target\[/ {
        if (out != "") out = out ","
        addr = $2; sub(/:$/, "", addr)
        p50 = $6; sub(/us/, "", p50)
        p99 = $8; sub(/us/, "", p99)
        out = out sprintf("\n    { \"addr\": \"%s\", \"ok\": %s, \"p50_us\": %s, \"p99_us\": %s }",
            addr, $3, p50, p99)
    }
    END { print out }
' "$TMP/per-replica.log")
cat > BENCH_serve.json << EOF
{
  "suite": "fleet_smoke",
  "tier": { "replicas": 3, "kill_dash_nine": 1 },
  "router": {
    "p50_us": ${P50:-0},
    "p99_us": ${P99:-0},
    "failovers_total": ${FAILOVERS:-0},
    "restarts_total": ${RESTARTS:-0}
  },
  "failover_window": {
    "shed_503": ${SHED:-0},
    "non_503_errors": 0
  },
  "warm_start": {
    "snapshot_loaded": ${WARM_LOAD:-0},
    "warm_entries": ${WARM_ENTRIES:-0},
    "warm_hits": ${WARM_HITS:-0},
    "warm_hit_rate": ${WARM_RATE}
  },
  "observe": {
    "ratio": 0.25,
    "ok": ${OBS_OK:-0},
    "p50_us": ${OBS_P50:-0},
    "p99_us": ${OBS_P99:-0},
    "streamed_events_total": ${OBS_EVENTS}
  },
  "predict_next": {
    "ratio": 0.5,
    "k": 10,
    "ok": ${NEXT_OK:-0},
    "p50_us": ${NEXT_P50:-0},
    "p99_us": ${NEXT_P99:-0}
  },
  "per_replica": [${PER_REPLICA}
  ]
}
EOF

# 10. Gate the emitted record against the checked-in serving baseline.
"$SERVE_CHECK" --check || fail "serve_check ratchet failed on BENCH_serve.json"

echo "fleet smoke OK: survived kill -9 of replica $VICTIM (pid $OLD_PID -> $NEW_PID)," \
    "${SHED:-0} shed / 0 hard errors across the window, ${WARM_HITS} warm-start hits," \
    "${NEXT_OK:-0} predict_next ok; BENCH_serve.json written and gated"
