#!/usr/bin/env bash
# Serving smoke test: trains a tiny size model, starts cascn-serve on an
# ephemeral port, drives it with the loadgen client (a payload pool small
# enough that the run revisits cascades and must hit the spectral cache),
# then asserts from GET /metrics that the cache hit counter is nonzero and
# latency quantiles are reported, and that the server shuts down cleanly
# on POST /shutdown.
set -euo pipefail

cd "$(dirname "$0")/.."
CASCN=target/release/cascn
SERVE=target/release/cascn-serve
LOADGEN=target/release/loadgen
if [ ! -x "$CASCN" ] || [ ! -x "$SERVE" ] || [ ! -x "$LOADGEN" ]; then
    cargo build --release -q
fi
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

# 1. Train a tiny size model; its `--out` file is what the server loads
#    (architecture must match the serve flags).
"$CASCN" generate --dataset weibo --n 200 --seed 9 --out "$TMP/d.cascades" > /dev/null
"$CASCN" train --data "$TMP/d.cascades" --window 3600 --hidden 4 --max-nodes 10 \
    --max-steps 5 --min-size 3 --epochs 2 --out "$TMP/model.ckpt" > /dev/null
if [ ! -s "$TMP/model.ckpt" ]; then
    echo "serve smoke FAILED: training wrote no model file" >&2
    exit 1
fi

# 2. Start the server on an ephemeral port; parse the port from its
#    "listening on ADDR" line.
"$SERVE" --model "$TMP/model.ckpt" --addr 127.0.0.1:0 --window 3600 \
    --hidden 4 --max-nodes 10 --max-steps 5 > "$TMP/server.log" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's/^listening on //p' "$TMP/server.log" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVER_PID" 2> /dev/null; then
        echo "serve smoke FAILED: server exited before listening" >&2
        cat "$TMP/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve smoke FAILED: server never reported its address" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

# 3. Drive it: 200 requests over a 20-cascade pool (each payload repeats
#    ~20x), scrape metrics, then ask for shutdown.
"$LOADGEN" --addr "$ADDR" --requests 200 --concurrency 4 --n-cascades 20 \
    --window 3600 --seed 7 --print-metrics --shutdown > "$TMP/loadgen.log"
cat "$TMP/loadgen.log"

# 4. The server must exit cleanly after the shutdown route.
EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
if [ "$EXIT_CODE" -ne 0 ]; then
    echo "serve smoke FAILED: server exited with code $EXIT_CODE" >&2
    cat "$TMP/server.log" >&2
    exit 1
fi

# 5. Assert the scraped metrics prove the contract: cache hits > 0 and
#    latency quantiles present.
HITS=$(sed -n 's/^cascn_spectral_cache_hits_total //p' "$TMP/loadgen.log" | head -n 1)
if [ -z "$HITS" ] || [ "$HITS" -eq 0 ]; then
    echo "serve smoke FAILED: expected nonzero spectral cache hits, got '${HITS:-missing}'" >&2
    exit 1
fi
for Q in 0.5 0.99; do
    if ! grep -q "cascn_predict_latency_us{quantile=\"$Q\"}" "$TMP/loadgen.log"; then
        echo "serve smoke FAILED: missing latency quantile $Q in metrics" >&2
        exit 1
    fi
done
echo "serve smoke OK: $HITS spectral cache hits, clean shutdown, latency quantiles reported"
