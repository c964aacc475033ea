#!/bin/sh
# Equivalence of lima_monitor's reading and fold stages, which run on
# two threads, with the single-threaded loop they replaced: on every
# case monitor_equivalence_helper writes (a clean trace of about 1.5 MB
# and 2,500 windows, the same with malformed lines under --lenient,
# strict errors several 64 KiB chunks in, a step back in time), the
# monitor's stdout, stderr and exit status must equal the loop's byte
# for byte.  The clean and lenient traces are also fed through stdin in
# odd-sized writes, so that reads end at arbitrary bytes.  The clean
# case must pass strict mode (exit 0) and compare at least 2,500 window
# records, or the comparison proves nothing about the windows.
# Usage: monitor_equivalence.sh LIMA_MONITOR_BIN HELPER_BIN WORK_DIR
set -u

Monitor="$1"
Helper="$2"
Work="$3"

rm -rf "$Work"
mkdir -p "$Work"
"$Helper" gen "$Work" || { echo "monitor_equivalence: gen failed" >&2; exit 1; }

Failures=0

# check NAME INPUT [FLAGS...]: runs the monitor on NAME.trace, read as
# a file or (INPUT = stdin) from a pipe, and compares with NAME.*.
check() {
  Name="$1"
  Input="$2"
  shift 2
  Got="$Work/$Name.$Input"
  if [ "$Input" = stdin ]; then
    "$Helper" trickle "$Work/$Name.trace" \
        | "$Monitor" - --window 0.01 --log-json "$@" > "$Got.stdout" 2> "$Got.stderr"
  else
    "$Monitor" "$Work/$Name.trace" --window 0.01 --log-json "$@" \
        > "$Got.stdout" 2> "$Got.stderr"
  fi
  Status=$?
  Expected=$(cat "$Work/$Name.status")
  Bad=""
  [ "$Status" = "$Expected" ] || Bad="exit status $Status, expected $Expected"
  cmp -s "$Got.stdout" "$Work/$Name.stdout" || Bad="$Bad; stdout differs"
  cmp -s "$Got.stderr" "$Work/$Name.stderr" || Bad="$Bad; stderr differs"
  if [ -n "$Bad" ]; then
    echo "monitor_equivalence: $Name ($Input): $Bad" >&2
    head -c 2000 "$Got.stderr" >&2
    Failures=$((Failures + 1))
  fi
}

check clean file
check clean stdin
check lenient file --lenient
check lenient stdin --lenient
check strict-parse file
check strict-fold file
check backwards-strict file
check backwards-lenient file --lenient

[ "$Failures" -eq 0 ] || exit 1
Windows=$(grep -c '"msg":"window"' "$Work/clean.stdout")
CleanStatus=$(cat "$Work/clean.status")
if [ "$CleanStatus" != 0 ] || [ "$Windows" -lt 2500 ]; then
  echo "monitor_equivalence: the clean case exits $CleanStatus with" \
       "$Windows windows, expected 0 with at least 2500" >&2
  exit 1
fi
echo "monitor_equivalence: OK ($Windows windows)"
