#!/bin/sh
# Every analysis honours --lenient, and both tools judge a trace alike.
# On three corpus traces that strict mode rejects (a stray region exit
# followed by earlier events, overlapping activities, a receive with no
# send), lima_analyze with --phases, --counting and --waitstates must
# exit 0 under --lenient and 6 without it.  On the first two, which
# break per-event rules, lima_analyze and lima_monitor --window 100 must
# fail strict mode with the same message, and under --lenient report the
# same dropped count and the same SID_C.  Their lenient totals count
# each event line once: 15 on the first trace.  A slice (--regions on
# the first, --window on the second) changes neither verdict: lenient
# lima_analyze logs the same total and dropped count as without it,
# and strict mode exits 6 with the same message.  --traffic counts only
# the sends the fold keeps: on a trace whose second send steps back in
# time, lenient lima_analyze prints p1 -> p2 as 1/100, not 2/1099, and
# strict mode exits 6.
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
  if [ "$Name" = stray-exit-then-earlier ]; then
    AnalyzeTotal=$(grep -o '"total":[0-9]*' "$Out.analyze.log" | cut -d: -f2)
    MonitorTotal=$(grep -o '"total":[0-9]*' "$Out.monitor.log" | cut -d: -f2)
    [ "$AnalyzeTotal" = 15 ] && [ "$MonitorTotal" = 15 ] ||
      fail "$Name: totals $AnalyzeTotal and $MonitorTotal, expected 15"
  fi
  AnalyzeSid=$(awk -F, '$0 == "region,ID_C,SID_C" { getline; print $3 }' \
    "$Out.analyze.out")
  MonitorSid=$(grep -o '"sid_c":[-0-9.e]*' "$Out.monitor.log" | cut -d: -f2)
  awk -v A="$AnalyzeSid" -v M="$MonitorSid" \
    'BEGIN { exit !(A != "" && M != "" && \
                    sprintf("%.5f", A) == sprintf("%.5f", M)) }' ||
    fail "$Name: SID_C '$AnalyzeSid' and '$MonitorSid'"
done

for Case in "stray-exit-then-earlier --regions main" \
            "overlapping-activities --window 0:10"; do
  set -- $Case
  Name="$1"
  shift
  Trace="$Corpus/$Name.trace"
  Out="$Work/$Name.slice"
  Report='"total":[0-9]*,"dropped":[0-9]*'
  "$Analyze" --lenient --csv --log-json "$Trace" \
    > /dev/null 2> "$Out.whole.log"
  "$Analyze" --lenient --csv --log-json "$@" "$Trace" \
    > /dev/null 2> "$Out.log"
  Status=$?
  [ "$Status" -eq 0 ] || fail "$Name $*: --lenient exited $Status"
  Whole=$(grep -o "$Report" "$Out.whole.log")
  Sliced=$(grep -o "$Report" "$Out.log")
  [ -n "$Whole" ] && [ "$Whole" = "$Sliced" ] ||
    fail "$Name $*: lenient report '$Sliced', expected '$Whole'"
  "$Analyze" "$Trace" > /dev/null 2> "$Out.whole.err"
  "$Analyze" "$@" "$Trace" > /dev/null 2> "$Out.err"
  Status=$?
  [ "$Status" -eq 6 ] || fail "$Name $*: strict exited $Status, expected 6"
  [ "$(tail -n 1 "$Out.err")" = "$(tail -n 1 "$Out.whole.err")" ] ||
    fail "$Name $*: strict message '$(tail -n 1 "$Out.err")'"
done

Trace="$Corpus/send-steps-back.trace"
Out="$Work/send-steps-back"
"$Analyze" --lenient --quiet --traffic "$Trace" > "$Out.out" 2> /dev/null ||
  fail "send-steps-back: lima_analyze --lenient --traffic failed"
grep -q ' 1/100 ' "$Out.out" && ! grep -q '2/1099' "$Out.out" ||
  fail "send-steps-back: lenient traffic is not 1/100: $(grep '^| p1 ' "$Out.out")"
"$Analyze" --quiet --traffic "$Trace" > /dev/null 2>&1
Status=$?
[ "$Status" -eq 6 ] ||
  fail "send-steps-back: strict --traffic exited $Status, expected 6"

[ "$Failures" -eq 0 ] || exit 1
echo "lenient_analyses_smoke: ok"
