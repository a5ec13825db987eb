#!/bin/sh
# Runs the transport conformance suite (crates/runtime/tests/
# transport_conformance.rs) as COPIES parallel copies of its test binary,
# ROUNDS times over, while three `yes` spinners load the host. Exits 1
# if any run fails, printing that run's output.
#
#   scripts/conformance-under-contention.sh [COPIES] [ROUNDS]   # default 4 25
set -eu
copies=${1:-4}
rounds=${2:-25}

bin=$(cargo test --release -q -p twostep-runtime --test transport_conformance \
    --no-run --message-format=json | python3 -c '
import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("target", {}).get("name") == "transport_conformance" and msg.get("executable"):
        print(msg["executable"])
')
[ -x "$bin" ] || { echo "conformance test binary not found" >&2; exit 2; }

logs=$(mktemp -d)
spinners=""
trap 'kill $spinners 2>/dev/null || true; rm -rf "$logs"' EXIT
for _ in 1 2 3; do
    # Bounded, so a killed script cannot leave a spinner behind.
    timeout 3600 yes >/dev/null &
    spinners="$spinners $!"
done

failed=0
round=1
while [ "$round" -le "$rounds" ]; do
    pids=""
    copy=1
    while [ "$copy" -le "$copies" ]; do
        "$bin" -q >"$logs/$round.$copy" 2>&1 &
        pids="$pids $!:$copy"
        copy=$((copy + 1))
    done
    for entry in $pids; do
        if ! wait "${entry%%:*}"; then
            failed=$((failed + 1))
            echo "--- round $round, copy ${entry#*:} failed:"
            cat "$logs/$round.${entry#*:}"
        fi
    done
    round=$((round + 1))
done

total=$((copies * rounds))
echo "transport conformance under contention: $failed of $total runs failed"
[ "$failed" -eq 0 ]
