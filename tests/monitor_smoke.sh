#!/bin/sh
# Smoke test for lima_monitor: feeds a fixture trace in two separate
# appends (exercising the incremental stream parser across a chunk
# boundary), requires at least two emitted windows, and validates the
# Prometheus metrics dump with check_prometheus.sh, including the two
# hand-off wait counters.  Then a window so narrow that an event lies
# 2^64 or more windows out must fail with exit 7 (a limit), not spin.
# Usage: monitor_smoke.sh LIMA_MONITOR_BIN WORK_DIR CHECKER_SH
set -eu

Monitor="$1"
Work="$2"
Checker="$3"

rm -rf "$Work"
mkdir -p "$Work"
Trace="$Work/smoke.trace"
Out="$Work/monitor.out"
Prom="$Work/monitor.prom"

# Part 1: header plus the first 1.25 s of a 2-proc run. The split point
# lands mid-window and mid-line-stream, so part 2 must merge seamlessly.
cat > "$Trace" <<'EOF'
LIMATRACE 1
procs 2
region 0 loop
activity 0 comp
activity 1 comm
re 0 0.0 0
ab 0 0.0 0
ae 0 0.9 0
ab 0 0.9 1
ae 0 1.1 1
re 1 0.0 0
ab 1 0.0 0
ae 1 1.25 0
EOF

# Part 2: the rest of the run, appended separately.
cat >> "$Trace" <<'EOF'
ab 1 1.25 1
ae 1 1.4 1
ab 0 1.1 0
ae 0 2.6 0
rx 0 2.6 0
ab 1 1.4 0
ae 1 2.3 0
rx 1 2.3 0
EOF

"$Monitor" "$Trace" --window 1 --log-json --min-windows 2 \
    --metrics-out "$Prom" > "$Out" 2>&1

Windows=$(grep -c '"msg":"window"' "$Out" || true)
if [ "$Windows" -lt 2 ]; then
  echo "monitor_smoke: expected >=2 windows, saw $Windows" >&2
  cat "$Out" >&2
  exit 1
fi

# Every window record must carry the condition-number dispersion fields.
if ! grep -q '"sid_c":' "$Out" || ! grep -q '"sid_a":' "$Out"; then
  echo "monitor_smoke: window records missing sid fields" >&2
  cat "$Out" >&2
  exit 1
fi

sh "$Checker" "$Prom"

# How long each stage waited for the other.
for Name in lima_monitor_reader_blocked_us_total \
            lima_monitor_fold_waiting_us_total; do
  if ! grep -q "^$Name " "$Prom"; then
    echo "monitor_smoke: $Name missing from the metrics dump" >&2
    exit 1
  fi
done

# At --window 1e-300 the first event, at 0.5 s, is 5e299 windows out.
# The monitor must reject it (LimitExceeded, exit 7) in both modes;
# SIGKILL after 10 s catches a fold that walks the windows forever.
Tiny="$Work/tiny-window.trace"
cat > "$Tiny" <<'EOF'
LIMATRACE 1
procs 1
region 0 loop
activity 0 comp
re 0 0.5 0
ab 0 0.5 0
ae 0 1.0 0
rx 0 1.0 0
EOF
for Mode in --strict --lenient; do
  Status=0
  timeout -s KILL 10 "$Monitor" "$Tiny" --window 1e-300 "$Mode" \
      > "$Work/tiny-window.out" 2>&1 || Status=$?
  if [ "$Status" -ne 7 ]; then
    echo "monitor_smoke: --window 1e-300 $Mode exited $Status, expected 7" >&2
    cat "$Work/tiny-window.out" >&2
    exit 1
  fi
done

echo "monitor_smoke: OK ($Windows windows)"
