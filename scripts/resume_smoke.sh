#!/usr/bin/env bash
# Kill-and-resume smoke test: starts a checkpointing training run, SIGKILLs
# it mid-flight, resumes from the surviving checkpoint, and asserts the
# resumed run's `--out` model file is byte-identical to an uninterrupted
# control run. The interrupted/resumed cycle runs under --threads 4, so the
# script also proves the parallel engine's determinism contract end to end:
# serial control == threaded control == killed-and-resumed threaded run.
# The size-regression leg also checks thread parity; the next-user leg
# repeats the kill-and-resume cycle for `--task next-user`.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/cascn
if [ ! -x "$BIN" ]; then
    cargo build --release -q
fi
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$BIN" generate --dataset weibo --n 400 --seed 9 --out "$TMP/d.cascades" > /dev/null

COMMON=(--data "$TMP/d.cascades" --window 3600 --hidden 4 --max-nodes 10
        --max-steps 5 --min-size 3 --patience 6 --epochs 6)

# Control: uninterrupted serial run (--threads 1 is the exact legacy path).
"$BIN" train "${COMMON[@]}" --threads 1 --out "$TMP/control.ckpt" > /dev/null

# Thread-parity: the same run on 4 worker threads must produce a
# byte-identical model.
"$BIN" train "${COMMON[@]}" --threads 4 --out "$TMP/threaded.ckpt" > /dev/null
if cmp -s "$TMP/control.ckpt" "$TMP/threaded.ckpt"; then
    echo "thread parity OK: --threads 4 parameters are identical to --threads 1"
else
    echo "thread parity FAILED: --threads 4 parameters differ from --threads 1" >&2
    exit 1
fi

# kill_and_resume NAME CONTROL ARGS...: checkpoint after every epoch, kill -9
# the run as soon as the first checkpoint lands (i.e. mid-epoch of a later
# epoch), resume to completion under --threads 4, and require the final
# model to match CONTROL byte for byte.
kill_and_resume() {
    local name=$1 control=$2
    shift 2
    "$BIN" train "$@" --threads 4 --checkpoint "$TMP/$name.ckpt" > /dev/null &
    local pid=$!
    for _ in $(seq 1 600); do
        [ -s "$TMP/$name.ckpt" ] && break
        sleep 0.1
    done
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    if [ ! -s "$TMP/$name.ckpt" ]; then
        echo "resume smoke FAILED ($name): no checkpoint was written before the kill" >&2
        exit 1
    fi
    local from
    from=$("$BIN" train "$@" --threads 4 --resume "$TMP/$name.ckpt" --out "$TMP/$name.resumed" \
        | sed -n 's/.* from epoch \([0-9]*\) .*/\1/p')
    if cmp -s "$control" "$TMP/$name.resumed"; then
        echo "resume smoke OK ($name): resumed from epoch $from, final model identical to the control run"
    else
        echo "resume smoke FAILED ($name): resumed model differs from the control run" >&2
        exit 1
    fi
}

kill_and_resume size "$TMP/control.ckpt" "${COMMON[@]}"

# Next-user leg: the microscopic head trains on the same loop, so it
# checkpoints and resumes bit-identically too.
"$BIN" train "${COMMON[@]}" --task next-user --threads 1 --out "$TMP/next-control.ckpt" > /dev/null
kill_and_resume next-user "$TMP/next-control.ckpt" "${COMMON[@]}" --task next-user
