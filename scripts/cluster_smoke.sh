#!/usr/bin/env sh
# Multi-process deployment smoke: run the same analysis single-process and as
# one coordinator plus two worker processes over localhost sockets, and
# require identical top-k rankings and one step's spans joined by trace id
# across the coordinator's and a worker's -trace files. Then boot a throttled serve-mode cluster,
# kill -9 one worker, require the session to degrade (visible on /healthz and
# the /statusz worker table), restart the worker, require full recovery, and
# SIGTERM the coordinator expecting a clean exit. Usage:
#
#   scripts/cluster_smoke.sh [ctrl-port] [obs-port] [mesh-port]
#
# Ports default to 47201/47202/47203. Only standard tools (go, curl) are
# used; every phase is bounded so a hang fails fast instead of riding the CI
# job timeout.
set -eu

cd "$(dirname "$0")/.."
CTRL="127.0.0.1:${1:-47201}"
OBS="127.0.0.1:${2:-47202}"
MESH="127.0.0.1:${3:-47203}"

GRAPH="-n 600 -p 8 -seed 3"
BIN="$(mktemp -d)/aacc"
LOGDIR="$(mktemp -d)"
W0= W1= CO=
cleanup() {
    for pid in "$W0" "$W1" "$CO"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$(dirname "$BIN")" "$LOGDIR"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/aacc

# Phase 1: batch cluster vs single-process — identical rankings required.
"$BIN" $GRAPH -top 5 >"$LOGDIR/single.log" 2>&1
"$BIN" -role worker -coordinator "$CTRL" $GRAPH -trace "$LOGDIR/w0.trace" \
    >"$LOGDIR/w0.log" 2>&1 &
W0=$!
"$BIN" -role worker -coordinator "$CTRL" $GRAPH >"$LOGDIR/w1.log" 2>&1 &
W1=$!
"$BIN" -role coordinator -listen "$CTRL" -cluster-workers 2 $GRAPH -top 5 \
    -trace "$LOGDIR/coord.trace" >"$LOGDIR/cluster.log" 2>&1 || {
    echo "cluster_smoke: batch cluster run failed" >&2
    tail -20 "$LOGDIR/cluster.log" "$LOGDIR/w0.log" "$LOGDIR/w1.log" >&2
    exit 1
}
wait "$W0" "$W1" || {
    echo "cluster_smoke: a worker exited non-zero after batch run" >&2
    tail -20 "$LOGDIR/w0.log" "$LOGDIR/w1.log" >&2
    exit 1
}
W0= W1=
sed -n '/^top 5/,/^$/p' "$LOGDIR/single.log" >"$LOGDIR/single.top"
sed -n '/^top 5/,/^$/p' "$LOGDIR/cluster.log" >"$LOGDIR/cluster.top"
if [ ! -s "$LOGDIR/single.top" ] || ! cmp -s "$LOGDIR/single.top" "$LOGDIR/cluster.top"; then
    echo "cluster_smoke: cluster ranking differs from single-process" >&2
    diff "$LOGDIR/single.top" "$LOGDIR/cluster.top" >&2 || true
    exit 1
fi
echo "cluster_smoke: batch cluster matches single-process"

# One collective step seen from three places under one nonzero trace id (the
# command seq; 0 means unkeyed): the coordinator's coord.step span, the span worker 0 relayed
# to it, and worker 0's own worker.step span.
JOINED=
for n in $(sed -n 's/^{"type":"span","trace":\([1-9][0-9]*\),"component":"coord","name":"coord.step".*/\1/p' \
    "$LOGDIR/coord.trace" | head -n 200); do
    if grep -q "^{\"type\":\"span\",\"trace\":$n,\"component\":\"worker\.0\"," "$LOGDIR/coord.trace" &&
        grep -q "^{\"type\":\"span\",\"trace\":$n,\"component\":\"worker\",\"name\":\"worker\.step\"" "$LOGDIR/w0.trace"; then
        JOINED=$n
        break
    fi
done
if [ -z "$JOINED" ]; then
    echo "cluster_smoke: no trace id joins coord.step, the relayed worker.0 span and worker 0's worker.step" >&2
    head -5 "$LOGDIR/coord.trace" "$LOGDIR/w0.trace" >&2 || true
    exit 1
fi
echo "cluster_smoke: trace $JOINED joins coordinator and worker spans"

# Phase 2: crash, degrade, rejoin, recover, graceful shutdown. The short
# round timeout bounds how long the survivor blocks on the dead peer, and
# the step throttle holds the analysis in flight long enough to kill a
# worker mid-run deterministically.
"$BIN" -role worker -coordinator "$CTRL" -listen "$MESH" $GRAPH -round-timeout 2s \
    >"$LOGDIR/w0b.log" 2>&1 &
W0=$!
"$BIN" -role worker -coordinator "$CTRL" $GRAPH -round-timeout 2s \
    >"$LOGDIR/w1b.log" 2>&1 &
W1=$!
"$BIN" -role coordinator -listen "$CTRL" -cluster-workers 2 $GRAPH -round-timeout 2s \
    -serve -step-interval 400ms -obs-addr "$OBS" -linger 120s -top 5 \
    >"$LOGDIR/serve.log" 2>&1 &
CO=$!

poll() { # poll <attempts> <desc> <grep-pattern> <url>
    n=0
    while :; do
        if curl -fsS "$4" 2>/dev/null | grep -q "$3"; then
            return 0
        fi
        if ! kill -0 "$CO" 2>/dev/null; then
            echo "cluster_smoke: coordinator died while waiting for $2" >&2
            tail -20 "$LOGDIR/serve.log" >&2
            exit 1
        fi
        n=$((n + 1))
        if [ "$n" -ge "$1" ]; then
            echo "cluster_smoke: timed out waiting for $2" >&2
            tail -20 "$LOGDIR/serve.log" "$LOGDIR/w0b.log" "$LOGDIR/w1b.log" >&2
            exit 1
        fi
        sleep 0.5
    done
}

poll 120 "the session to come up" '^\(ok\|degraded\) epoch=' "http://$OBS/healthz"
kill -9 "$W0"
W0=
poll 60 "the session to degrade" 'state:     degraded' "http://$OBS/statusz"
curl -fsS "http://$OBS/statusz" | grep -q "dead:" || {
    echo "cluster_smoke: /statusz worker table does not show the dead worker" >&2
    curl -fsS "http://$OBS/statusz" >&2 || true
    exit 1
}
echo "cluster_smoke: session degraded after worker kill"

"$BIN" -role worker -coordinator "$CTRL" -listen "$MESH" $GRAPH -round-timeout 2s \
    >"$LOGDIR/w0c.log" 2>&1 &
W0=$!
poll 120 "the session to recover" 'state:     converged' "http://$OBS/statusz"
curl -fsS "http://$OBS/statusz" | grep -q "dead:" && {
    echo "cluster_smoke: a worker is still dead after the rejoin" >&2
    curl -fsS "http://$OBS/statusz" >&2 || true
    exit 1
}
echo "cluster_smoke: session recovered after worker rejoin"

# The flight recorder must have captured the whole incident — kill-9 →
# degraded → rejoin → resync — and each lifecycle event must carry a nonzero
# trace (the collective command seq) so it can be correlated with spans.
EVENTS="$(curl -fsS "http://$OBS/debug/events")"
for kind in worker-lost degraded worker-rejoin resync recovered; do
    printf '%s\n' "$EVENTS" | grep -q "\"kind\": \"$kind\"" || {
        echo "cluster_smoke: /debug/events missing a \"$kind\" event" >&2
        printf '%s\n' "$EVENTS" | grep '"kind"' >&2 || true
        exit 1
    }
done
for kind in worker-lost worker-rejoin resync; do
    printf '%s\n' "$EVENTS" | grep -A1 "\"kind\": \"$kind\"" | grep -q '"trace": [1-9]' || {
        echo "cluster_smoke: \"$kind\" event has no correlating trace id" >&2
        printf '%s\n' "$EVENTS" | grep -A1 '"kind"' >&2 || true
        exit 1
    }
done
# Federated worker gauges: both workers re-exported and alive again.
CMETRICS="$(curl -fsS "http://$OBS/metrics")"
for want in 'aacc_cluster_worker_up{worker="0"} 1' 'aacc_cluster_worker_up{worker="1"} 1' \
    aacc_cluster_worker_wire_rounds aacc_cluster_worker_metrics_age_seconds; do
    printf '%s\n' "$CMETRICS" | grep -qF "$want" || {
        echo "cluster_smoke: coordinator /metrics missing $want" >&2
        printf '%s\n' "$CMETRICS" | grep '^aacc_cluster' >&2 || true
        exit 1
    }
done
echo "cluster_smoke: flight recorder captured the incident with correlated traces"

# The coordinator's session answers /topk from its mirrored worker rows —
# the converged bound-based ranking must resolve every requested rank.
TOPK="$(curl -fsS "http://$OBS/topk?k=5")"
for field in '"k":5' '"converged":true' '"resolved":5' '"vertex":'; do
    case "$TOPK" in
    *"$field"*) ;;
    *)
        echo "cluster_smoke: coordinator /topk missing $field: $TOPK" >&2
        exit 1
        ;;
    esac
done
echo "cluster_smoke: coordinator served a resolved /topk from mirrored rows"

kill -TERM "$CO"
n=0
while kill -0 "$CO" 2>/dev/null; do
    n=$((n + 1))
    if [ "$n" -ge 60 ]; then
        echo "cluster_smoke: coordinator did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.5
done
if ! wait "$CO"; then
    echo "cluster_smoke: coordinator exited non-zero after SIGTERM" >&2
    tail -20 "$LOGDIR/serve.log" >&2
    exit 1
fi
CO=
grep -q '^top 5' "$LOGDIR/serve.log" || {
    echo "cluster_smoke: graceful shutdown produced no final report" >&2
    tail -20 "$LOGDIR/serve.log" >&2
    exit 1
}
wait "$W0" "$W1" || {
    echo "cluster_smoke: a worker exited non-zero after coordinator shutdown" >&2
    tail -20 "$LOGDIR/w0c.log" "$LOGDIR/w1b.log" >&2
    exit 1
}
W0= W1=
echo "cluster_smoke: OK (batch parity, crash/degrade/rejoin/recover, graceful SIGTERM)"
