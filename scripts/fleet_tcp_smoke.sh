#!/usr/bin/env bash
# Loopback-TCP fleet smoke over real processes: a standalone coordinator,
# a seeded chaos proxy, and three accturbo-defend node processes dialing
# through it. The arc asserted here is the one the package tests prove
# in-process, re-proven across process boundaries with the production
# binary:
#
#   converge   every node reaches rank_source "fleet" with fleet
#              deployments actually applied, and the coordinator's
#              /health lists all three nodes with last-seen ages;
#   fallback   kill -9 the coordinator mid-run: every node degrades to
#              the sticky "fleet-fallback:local" (HTTP 503, still
#              ranking, never FIFO);
#   recover    restart the coordinator on the same address: every node
#              re-handshakes through the proxy (Connects >= 2) and
#              returns to "fleet" with new deployments on top of its
#              pre-outage count.
#
# Needs: go, curl, jq. Exits non-zero on the first failed phase, with
# every process log dumped for the post-mortem.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

dump_logs() {
  for f in "$WORK"/*.log; do
    echo "==== $f ===="
    cat "$f"
  done
}

# wait_line FILE PATTERN WHAT: wait for a startup banner to appear.
wait_line() {
  local file=$1 pat=$2 what=$3
  for _ in $(seq 1 100); do
    if grep -q "$pat" "$file" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $what never appeared in $file" >&2
  dump_logs >&2
  exit 1
}

# wait_health URL JQ_COND WHAT: poll a /health endpoint until the jq
# condition holds (curl without -f: a degraded node answers 503 and
# that body is still the evidence we want).
wait_health() {
  local url=$1 cond=$2 what=$3
  for _ in $(seq 1 300); do
    if curl -s "$url" 2>/dev/null | jq -e "$cond" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: $what (want $cond at $url)" >&2
  echo "last body: $(curl -s "$url" 2>/dev/null)" >&2
  dump_logs >&2
  exit 1
}

echo "== build =="
go build -o "$WORK/defend" ./cmd/accturbo-defend

CHAOS_FLAGS=(-chaos-seed 7 -fault-spec 'stream:corrupt=8192,reset=32768,delay=16384,for=5ms')

echo "== start coordinator =="
"$WORK/defend" coordinator -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
  >"$WORK/coord1.log" 2>&1 &
PIDS+=($!)
COORD_PID=$!
wait_line "$WORK/coord1.log" 'fleet coordinator listening on' "coordinator banner"
wait_line "$WORK/coord1.log" 'serving coordinator health on' "coordinator health banner"
COORD_ADDR=$(sed -n 's/^fleet coordinator listening on //p' "$WORK/coord1.log" | head -1)
COORD_HEALTH=$(sed -n 's|^serving coordinator health on http://\(.*\)/health$|\1|p' "$WORK/coord1.log" | head -1)
echo "coordinator at $COORD_ADDR, health at $COORD_HEALTH"

echo "== start chaos proxy =="
"$WORK/defend" relay -listen 127.0.0.1:0 -target "$COORD_ADDR" "${CHAOS_FLAGS[@]}" \
  >"$WORK/proxy.log" 2>&1 &
PIDS+=($!)
wait_line "$WORK/proxy.log" 'chaos proxy on' "proxy banner"
PROXY_ADDR=$(sed -n 's/^chaos proxy on \([^ ]*\) ->.*/\1/p' "$WORK/proxy.log" | head -1)
echo "chaos proxy at $PROXY_ADDR"

echo "== start 3 nodes through the proxy =="
NODE_HEALTH=()
for i in 1 2 3; do
  "$WORK/defend" node -coordinator "$PROXY_ADDR" -id "$i" \
    -metrics-addr 127.0.0.1:0 -poll 100 -run-for 10m \
    >"$WORK/node$i.log" 2>&1 &
  PIDS+=($!)
  wait_line "$WORK/node$i.log" 'serving node health on' "node $i health banner"
  NODE_HEALTH[$i]=$(sed -n 's|^serving node health on http://\(.*\)/health$|\1|p' "$WORK/node$i.log" | head -1)
  echo "node $i health at ${NODE_HEALTH[$i]}"
done

echo "== phase 1: converge to fleet ranking through the chaos proxy =="
for i in 1 2 3; do
  # rank_source "fleet" alone is the optimistic boot value; demand
  # applied deployments (FleetPolls > 0) as proof frames crossed the
  # real socket.
  wait_health "http://${NODE_HEALTH[$i]}/health" \
    '.health.control.rank_source == "fleet" and .connected and (.ranker.FleetPolls > 0)' \
    "node $i fleet convergence"
done
wait_health "http://$COORD_HEALTH/health" '(.nodes | length) == 3' \
  "coordinator liveness view of all 3 nodes"
FLOOR=()
for i in 1 2 3; do
  FLOOR[$i]=$(curl -s "http://${NODE_HEALTH[$i]}/health" | jq '.ranker.FleetPolls')
done
echo "converged (fleet polls: ${FLOOR[1]} ${FLOOR[2]} ${FLOOR[3]})"

echo "== phase 2: kill the coordinator mid-run =="
kill -9 "$COORD_PID"
for i in 1 2 3; do
  # Sticky local fallback: degraded but still ranking — never FIFO.
  wait_health "http://${NODE_HEALTH[$i]}/health" \
    '.health.control.rank_source == "fleet-fallback:local" and .health.degraded' \
    "node $i fallback after coordinator kill"
  SRC=$(curl -s "http://${NODE_HEALTH[$i]}/health" | jq -r '.health.control.rank_source')
  case "$SRC" in
    fleet|fleet-fallback:local) ;;
    *) echo "FAIL: node $i left the defended sources: $SRC" >&2; dump_logs >&2; exit 1 ;;
  esac
done
echo "all nodes on fleet-fallback:local"

echo "== phase 3: restart the coordinator on the same address =="
"$WORK/defend" coordinator -listen "$COORD_ADDR" \
  >"$WORK/coord2.log" 2>&1 &
PIDS+=($!)
wait_line "$WORK/coord2.log" 'fleet coordinator listening on' "restarted coordinator banner"
for i in 1 2 3; do
  # Recovery means new deployments land on top of the pre-outage count,
  # over a re-established connection (Connects >= 2).
  wait_health "http://${NODE_HEALTH[$i]}/health" \
    ".health.control.rank_source == \"fleet\" and .connected
     and (.ranker.FleetPolls > ${FLOOR[$i]}) and (.transport.Connects >= 2)
     and (.ranker.FallbackEngagements >= 1)" \
    "node $i recovery after coordinator restart"
done
echo "all nodes recovered to fleet ranking"

echo "PASS: fleet TCP smoke (converge -> fallback -> recover over loopback with chaos)"
