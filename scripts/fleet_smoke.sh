#!/usr/bin/env bash
# Fleet smoke: a race-built coordinator fronting three race-built dsed
# workers, loaded by dseload with a 10-second mixed-scenario replay
# (two passes over the identical deterministic sequence: pass one cold,
# pass two warm). Asserts zero errors, a warm cache-hit ratio of at
# least 90%, and leaves the dseload JSON report as the CI artifact. Then
# drives the two streaming job routes through the coordinator, and
# finally SIGTERMs every worker to exercise the graceful-drain path.
#
# Env knobs: FLEET_SMOKE_JSON (report path, default FLEET_SMOKE.json),
# FLEET_SMOKE_PORT (coordinator port, workers take the next three).
set -euo pipefail

OUT=${FLEET_SMOKE_JSON:-FLEET_SMOKE.json}
PORT=${FLEET_SMOKE_PORT:-9400}
COORD=127.0.0.1:${PORT}
BIN=$(mktemp -d)
PIDS=()

cleanup() {
    # SIGTERM is the graceful path (drain + deregister); escalate only
    # if a process survives it.
    for pid in "${PIDS[@]:-}"; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for _ in $(seq 1 50); do
        alive=0
        for pid in "${PIDS[@]:-}"; do
            kill -0 "$pid" 2>/dev/null && alive=1
        done
        [ "$alive" = 0 ] && break
        sleep 0.2
    done
    for pid in "${PIDS[@]:-}"; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "fleet-smoke: building race-instrumented dsed + dseload"
go build -race -o "$BIN/dsed" ./cmd/dsed
go build -race -o "$BIN/dseload" ./cmd/dseload

echo "fleet-smoke: coordinator on $COORD"
"$BIN/dsed" -coordinator -addr "$COORD" -heartbeat-timeout 3s &
PIDS+=($!)

for i in 1 2 3; do
    wport=$((PORT + i))
    echo "fleet-smoke: worker w$i on 127.0.0.1:$wport"
    "$BIN/dsed" -addr "127.0.0.1:$wport" -join "http://$COORD" \
        -worker-id "w$i" -heartbeat 500ms -max-jobs 4 &
    PIDS+=($!)
done

echo "fleet-smoke: waiting for 3 workers on the ring"
ok=0
for _ in $(seq 1 150); do
    n=$(curl -fsS "http://$COORD/v1/workers" 2>/dev/null | grep -c '"id"' || true)
    if [ "${n:-0}" -ge 3 ]; then ok=1; break; fi
    sleep 0.2
done
if [ "$ok" != 1 ]; then
    echo "fleet-smoke: FAIL — workers never registered" >&2
    curl -fsS "http://$COORD/v1/workers" >&2 || true
    exit 1
fi

# Two passes of 50 requests at 10 rps ≈ 10s of replay. The identical
# deterministic sequence both times means pass two must be answered by
# the warm per-shard caches: -min-hit-ratio 0.9 is the fleet-level
# warm-routing assertion, -max-errors 0 the zero-failure assertion.
"$BIN/dseload" -addr "http://$COORD" \
    -mix "fig2-small=3,pipeline-fft-small=2,forkjoin-tiny=1" \
    -rps 10 -n 50 -passes 2 -runs 2 -max-steps 8 \
    -report "$OUT" -max-errors 0 -min-hits 1 -min-hit-ratio 0.9

# The streaming job routes through the coordinator: a synchronous
# POST /v1/run and an async job's GET /v1/jobs/{id}/stream must each end
# with a done line that carries the summary.
expect_done() {
    local last
    last=$(tail -n 1)
    case "$last" in
        *'"state":"done","summary":{'*) echo "fleet-smoke: $1 ended done with a summary" ;;
        *) echo "fleet-smoke: FAIL — $1 ended with: $last" >&2; exit 1 ;;
    esac
}
SPEC='{"scenario":"fig2-small","strategy":"sa","runs":2,"maxSteps":8,"seed":4242}'
curl -fsS -X POST "http://$COORD/v1/run" -d "$SPEC" | expect_done "POST /v1/run"
id=$(curl -fsS -X POST "http://$COORD/v1/jobs" -d "$SPEC" | sed -n 's/^  "id": "\(.*\)",$/\1/p')
curl -fsS "http://$COORD/v1/jobs/$id/stream" | expect_done "GET /v1/jobs/$id/stream"

echo "fleet-smoke: metrics after replay"
curl -fsS "http://$COORD/v1/metrics" | grep -E 'dse_fleet_(workers|requeues)' || true
echo "fleet-smoke: PASS (report: $OUT)"
