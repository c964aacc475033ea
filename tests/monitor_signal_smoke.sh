#!/bin/sh
# Signal smoke test for lima_monitor: reading stdin from a pipe that
# stays open and idle, the monitor must write its Prometheus dump to
# stderr within 2 s of SIGUSR1 and exit 0 within 2 s of SIGTERM.  Both
# signals have to reach the thread that waits on the pipe.
# Usage: monitor_signal_smoke.sh LIMA_MONITOR_BIN WORK_DIR
set -u

Monitor="$1"
Work="$2"

rm -rf "$Work"
mkdir -p "$Work"
Fifo="$Work/trace.fifo"
Out="$Work/monitor.out"
Err="$Work/monitor.err"
mkfifo "$Fifo"

# The writer sends a header and one complete window, then holds the
# pipe open without writing.
{
  printf 'LIMATRACE 1\nprocs 1\nregion 0 loop\nactivity 0 comp\n'
  printf 're 0 0.0 0\nab 0 0.0 0\nae 0 1.5 0\n'
  exec sleep 60
} > "$Fifo" 2> /dev/null &
Writer=$!

"$Monitor" - --window 1 --log-json < "$Fifo" > "$Out" 2> "$Err" &
Pid=$!

fail() {
  echo "monitor_signal_smoke: $1" >&2
  cat "$Out" "$Err" >&2
  kill -KILL "$Pid" 2> /dev/null
  kill "$Writer" 2> /dev/null
  exit 1
}

# within TENTHS CMD...: true once CMD succeeds, polling every 0.1 s.
within() {
  Left="$1"
  shift
  while [ "$Left" -gt 0 ]; do
    "$@" && return 0
    sleep 0.1
    Left=$((Left - 1))
  done
  "$@"
}

# The window record shows the monitor has read all the writer sent and
# now waits on the idle pipe.
within 100 grep -q '"msg":"window"' "$Out" \
    || fail "no window record from the header and first events"

kill -USR1 "$Pid"
within 20 grep -q '^# TYPE ' "$Err" \
    || fail "no metrics dump on stderr within 2 s of SIGUSR1"

kill -TERM "$Pid"
( sleep 2; kill -KILL "$Pid" ) > /dev/null 2>&1 &
Watchdog=$!
Status=0
wait "$Pid" || Status=$?
kill "$Watchdog" 2> /dev/null
[ "$Status" -eq 0 ] || fail "expected exit 0 within 2 s of SIGTERM, got $Status"
grep -q '"msg":"stream complete"' "$Out" || fail "missing stream-complete record"

kill "$Writer" 2> /dev/null
echo "monitor_signal_smoke: OK"
