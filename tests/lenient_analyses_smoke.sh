#!/bin/sh
# Every analysis honours --lenient, and both tools judge a trace alike.
# On three corpus traces that strict mode rejects (a stray region exit
# followed by earlier events, overlapping activities, a receive with no
# send), lima_analyze with --phases, --counting and --waitstates must
# exit 0 under --lenient and 6 without it.  On the first two, which
# break per-event rules, lima_analyze and lima_monitor --window 100 must
# fail strict mode with the same message, and under --lenient report the
# same dropped count and the same SID_C.
# Usage: lenient_analyses_smoke.sh LIMA_ANALYZE LIMA_MONITOR CORPUS WORK
set -u

Analyze="$1"
Monitor="$2"
Corpus="$3"
Work="$4"

rm -rf "$Work"
mkdir -p "$Work"
Failures=0
fail() {
  echo "lenient_analyses_smoke: $*" >&2
  Failures=$((Failures + 1))
}

for Name in stray-exit-then-earlier overlapping-activities \
            recv-without-send; do
  Trace="$Corpus/$Name.trace"
  "$Analyze" --lenient --quiet --phases --counting --waitstates "$Trace" \
    > /dev/null 2>&1
  Status=$?
  [ "$Status" -eq 0 ] || fail "$Name: --lenient exited $Status, expected 0"
  "$Analyze" --quiet --phases --counting --waitstates "$Trace" \
    > /dev/null 2>&1
  Status=$?
  [ "$Status" -eq 6 ] || fail "$Name: strict exited $Status, expected 6"
done

for Name in stray-exit-then-earlier overlapping-activities; do
  Trace="$Corpus/$Name.trace"
  Out="$Work/$Name"

  "$Analyze" "$Trace" > /dev/null 2> "$Out.analyze.err"
  AnalyzeStatus=$?
  "$Monitor" --window 100 "$Trace" > /dev/null 2> "$Out.monitor.err"
  MonitorStatus=$?
  [ "$AnalyzeStatus" -eq 6 ] && [ "$MonitorStatus" -eq 6 ] ||
    fail "$Name: strict exits $AnalyzeStatus and $MonitorStatus, expected 6"
  AnalyzeMsg=$(tail -n 1 "$Out.analyze.err" | sed 's/^lima_analyze: //')
  MonitorMsg=$(tail -n 1 "$Out.monitor.err" | sed 's/^lima_monitor: //')
  [ "$AnalyzeMsg" = "$MonitorMsg" ] ||
    fail "$Name: strict messages differ: '$AnalyzeMsg' and '$MonitorMsg'"

  "$Analyze" --lenient --csv --log-json "$Trace" \
    > "$Out.analyze.out" 2> "$Out.analyze.log" ||
    fail "$Name: lima_analyze --lenient failed"
  "$Monitor" --lenient --log-json --window 100 "$Trace" \
    > "$Out.monitor.log" 2>&1 || fail "$Name: lima_monitor --lenient failed"
  AnalyzeDrops=$(grep -o '"dropped":[0-9]*' "$Out.analyze.log" | cut -d: -f2)
  MonitorDrops=$(grep -o '"dropped":[0-9]*' "$Out.monitor.log" | cut -d: -f2)
  # The monitor logs a parse report only when it dropped something.
  [ "${AnalyzeDrops:-0}" = "${MonitorDrops:-0}" ] ||
    fail "$Name: dropped ${AnalyzeDrops:-0} and ${MonitorDrops:-0} records"
  AnalyzeSid=$(awk -F, '$0 == "region,ID_C,SID_C" { getline; print $3 }' \
    "$Out.analyze.out")
  MonitorSid=$(grep -o '"sid_c":[-0-9.e]*' "$Out.monitor.log" | cut -d: -f2)
  awk -v A="$AnalyzeSid" -v M="$MonitorSid" \
    'BEGIN { exit !(A != "" && M != "" && \
                    sprintf("%.5f", A) == sprintf("%.5f", M)) }' ||
    fail "$Name: SID_C '$AnalyzeSid' and '$MonitorSid'"
done

[ "$Failures" -eq 0 ] || exit 1
echo "lenient_analyses_smoke: ok"
