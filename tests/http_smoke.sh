#!/bin/sh
# End-to-end smoke test for the status server: starts lima_monitor
# following a growing trace with --http on an ephemeral port, scrapes
# /healthz and /metrics (validated with check_prometheus.sh), appends
# more trace while scraping, checks /readyz, /varz and /debug/spans
# (JSON-validated with python3), then sends SIGTERM and requires a clean
# exit.  Skips (exit 77) when curl is unavailable.
# Usage: http_smoke.sh LIMA_MONITOR_BIN WORK_DIR CHECKER_SH
set -u

Monitor="$1"
Work="$2"
Checker="$3"

command -v curl > /dev/null 2>&1 || { echo "http_smoke: SKIP (no curl)"; exit 77; }

rm -rf "$Work"
mkdir -p "$Work"
Trace="$Work/smoke.trace"
Out="$Work/monitor.out"

cat > "$Trace" <<'EOF'
LIMATRACE 1
procs 2
region 0 loop
activity 0 comp
activity 1 comm
re 0 0.0 0
ab 0 0.0 0
ae 0 0.9 0
re 1 0.0 0
ab 1 0.0 0
ae 1 1.25 0
EOF

# --history 2 is deliberately tiny: with >=3 windows the history must
# evict, and the eviction counters must show on /metrics.  The low
# alert threshold guarantees at least one SSE alert frame.
"$Monitor" "$Trace" --window 1 --follow --idle-exit-ms 0 --interval-ms 50 \
    --log-json --http 127.0.0.1:0 --flight-recorder 1024 \
    --history 2 --alert-threshold 0.0001 \
    > "$Out" 2>&1 &
Pid=$!

fail() {
  echo "http_smoke: $1" >&2
  cat "$Out" >&2
  kill "$Pid" 2> /dev/null
  exit 1
}

# The monitor logs the bound address once the server is up; poll for it.
Addr=""
Tries=0
while [ "$Tries" -lt 100 ]; do
  Addr=$(sed -n 's/.*status server listening.*"address":"\([^"]*\)".*/\1/p' "$Out")
  [ -n "$Addr" ] && break
  kill -0 "$Pid" 2> /dev/null || fail "monitor died before listening"
  sleep 0.1
  Tries=$((Tries + 1))
done
[ -n "$Addr" ] || fail "status server never announced an address"

Base="http://$Addr"

curl -fsS "$Base/healthz" > "$Work/healthz" || fail "GET /healthz failed"
grep -q '^ok$' "$Work/healthz" || fail "/healthz did not report ok"

curl -fsS "$Base/metrics" > "$Work/metrics" || fail "GET /metrics failed"
sh "$Checker" "$Work/metrics" || fail "/metrics failed Prometheus validation"
grep -q '^process_resident_memory_bytes ' "$Work/metrics" \
    || fail "/metrics missing process self-metrics"

# Subscribe to the live event stream before the trace grows, so the
# windows drained below must arrive as SSE frames.  SSE is fan-out
# only (no replay), so wait until the monitor reports the subscription
# before appending — otherwise a slow-starting curl misses the frames.
curl -sN --max-time 120 "$Base/events" > "$Work/sse" 2> /dev/null &
SsePid=$!
Tries=0
while [ "$Tries" -lt 200 ]; do
  curl -fsS "$Base/varz" 2> /dev/null | grep -q '"sse_subscribers": [1-9]' \
      && break
  sleep 0.1
  Tries=$((Tries + 1))
done
curl -fsS "$Base/varz" 2> /dev/null | grep -q '"sse_subscribers": [1-9]' \
    || fail "SSE subscription never registered"

# Grow the trace while the server is live: scrape-during-ingest.
cat >> "$Trace" <<'EOF'
ab 0 0.9 1
ae 0 1.1 1
ab 1 1.25 1
ae 1 1.4 1
ab 0 1.1 0
ae 0 2.6 0
rx 0 2.6 0
ab 1 1.4 0
ae 1 2.3 0
rx 1 2.3 0
re 0 2.6 0
ab 0 2.6 0
ae 0 3.6 0
rx 0 3.6 0
re 1 2.3 0
ab 1 2.3 0
ae 1 3.2 0
rx 1 3.2 0
EOF

# Wait for the monitor to ingest the appended events and emit windows:
# three complete windows, one past the --history 2 cap, so the ring
# must evict.
Tries=0
while [ "$Tries" -lt 100 ]; do
  Windows=$(grep -c '"msg":"window"' "$Out" || true)
  [ "$Windows" -ge 3 ] && break
  sleep 0.1
  Tries=$((Tries + 1))
done
[ "${Windows:-0}" -ge 3 ] || fail "expected >=3 windows while following"

curl -fsS "$Base/readyz" > "$Work/readyz" || fail "GET /readyz failed"
grep -q '^ready$' "$Work/readyz" || fail "/readyz did not report ready"

curl -fsS "$Base/varz" > "$Work/varz" || fail "GET /varz failed"
curl -fsS "$Base/debug/spans" > "$Work/spans" || fail "GET /debug/spans failed"

if command -v python3 > /dev/null 2>&1; then
  python3 - "$Work/varz" "$Work/spans" <<'EOF' || fail "JSON validation failed"
import json, sys
varz = json.load(open(sys.argv[1]))
assert "version" in varz and "windows_emitted" in varz, varz.keys()
assert varz["flight_recorder"] is True
spans = json.load(open(sys.argv[2]))
assert "traceEvents" in spans and isinstance(spans["traceEvents"], list)
EOF
fi

# The dashboard page: served inline, no external asset fetches.
curl -fsS "$Base/dashboard" > "$Work/dashboard" || fail "GET /dashboard failed"
grep -q '<canvas' "$Work/dashboard" || fail "/dashboard missing canvas markup"
grep -q 'EventSource' "$Work/dashboard" || fail "/dashboard missing SSE client"
if grep -Eq 'src="https?:|href="https?:|@import|url\(' "$Work/dashboard"; then
  fail "/dashboard references external assets"
fi

# The windows API: every retained window as valid JSON, the ring capped
# at --history 2 with evictions counted.
curl -fsS "$Base/api/windows" > "$Work/windows.json" \
    || fail "GET /api/windows failed"
if command -v python3 > /dev/null 2>&1; then
  python3 - "$Work/windows.json" <<'EOF' || fail "/api/windows validation failed"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["capacity"] == 2, doc["capacity"]
assert doc["size"] == len(doc["windows"]) <= 2
assert doc["appended"] >= 2
assert doc["appended"] - doc["evictions"] == doc["size"]
ids = [w["id"] for w in doc["windows"]]
assert ids == sorted(ids)
for w in doc["windows"]:
    assert len(w["proc_load"]) == 2, w
    assert isinstance(w["max_sid_c"], (int, float))
    assert w["regions"] and "sid_c" in w["regions"][0]
EOF
  LastId=$(python3 -c \
      'import json,sys; print(json.load(open(sys.argv[1]))["windows"][-1]["id"])' \
      "$Work/windows.json")
  curl -fsS "$Base/api/windows/$LastId" > /dev/null \
      || fail "GET /api/windows/$LastId failed"
fi
Code=$(curl -s -o /dev/null -w '%{http_code}' "$Base/api/windows/999999")
[ "$Code" = "404" ] || fail "expected 404 for unretained window, got $Code"
Code=$(curl -s -o /dev/null -w '%{http_code}' "$Base/api/windows?since=abc")
[ "$Code" = "400" ] || fail "expected 400 for bad since, got $Code"

# At least one SSE window frame (and one alert, given the threshold)
# must have been pushed while the trace grew.
Tries=0
while [ "$Tries" -lt 300 ]; do
  grep -q '^event: alert$' "$Work/sse" 2> /dev/null && break
  sleep 0.1
  Tries=$((Tries + 1))
done
grep -q '^event: window$' "$Work/sse" || fail "no SSE window frame received"
grep -q '^event: alert$' "$Work/sse" || fail "no SSE alert frame received"
grep -q '^data: {' "$Work/sse" || fail "SSE frames carry no JSON data"
kill "$SsePid" 2> /dev/null

# History gauges are direct registry entries, present in every build;
# the lima_http_* request metrics ride the LIMA_METRIC macros and are
# asserted only when /varz says telemetry is compiled in.
curl -fsS "$Base/metrics" > "$Work/metrics2" || fail "second /metrics failed"
grep -q '^lima_history_windows 2' "$Work/metrics2" \
    || fail "/metrics missing bounded lima_history_windows"
grep -q '^lima_history_evictions_total [1-9]' "$Work/metrics2" \
    || fail "/metrics missing lima_history_evictions_total"
if grep -q '"telemetry_compiled": true' "$Work/varz"; then
  # Both stages of the monitor record spans: the reading thread's feed,
  # the folding thread's fold and drain.
  for Span in monitor.feed monitor.fold monitor.drain; do
    grep -q "\"name\": \"$Span\"" "$Work/spans" \
        || fail "/debug/spans missing the $Span span"
  done
  grep -q '^lima_http_requests_total{' "$Work/metrics2" \
      || fail "/metrics missing lima_http_requests_total"
  grep -q '^lima_http_request_duration_seconds_bucket{' "$Work/metrics2" \
      || fail "/metrics missing request duration histogram"
fi

# 404 for unknown paths, with the server still healthy afterwards.
Code=$(curl -s -o /dev/null -w '%{http_code}' "$Base/nope")
[ "$Code" = "404" ] || fail "expected 404 for /nope, got $Code"
curl -fsS "$Base/healthz" > /dev/null || fail "server unhealthy after 404"

kill -TERM "$Pid"
Status=0
wait "$Pid" || Status=$?
[ "$Status" -eq 0 ] || fail "expected clean exit after SIGTERM, got $Status"

grep -q '"msg":"stream complete"' "$Out" || fail "missing stream-complete record"

echo "http_smoke: OK ($Windows windows, addr $Addr)"
