//===- support/TraceEventExport.cpp - Telemetry exporters -----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/TraceEventExport.h"
#include "support/Format.h"
#include "support/Version.h"
#include <algorithm>
#include <cstdio>
#include <utility>

using namespace lima;
using namespace lima::telemetry;

namespace {

/// Escapes a string for a JSON string literal (names are ASCII literals,
/// but exporters must never emit malformed output).
std::string escapeJson(std::string_view Str) {
  std::string Out;
  Out.reserve(Str.size());
  for (char C : Str) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string quoted(std::string_view Str) {
  return '"' + escapeJson(Str) + '"';
}

/// Microseconds with sub-microsecond precision, the unit of the Chrome
/// trace-event "ts" and "dur" fields.
std::string toUs(uint64_t Ns) {
  return formatFixed(static_cast<double>(Ns) / 1000.0, 3);
}

std::string workerLabel(unsigned Worker) {
  return Worker == 0 ? std::string("main") : "worker-" + std::to_string(Worker);
}

double idleMs(const StageStats &Stage, unsigned Worker) {
  double Busy = Stage.WorkerComputeMs[Worker] + Stage.WorkerQueueWaitMs[Worker];
  return Busy < Stage.WallMs ? Stage.WallMs - Busy : 0.0;
}

} // namespace

TextTable telemetry::makeSpanSummaryTable(const Snapshot &S) {
  TextTable Table({"span", "count", "total ms", "mean ms", "min ms",
                   "max ms"});
  Table.setTitle("telemetry spans (wall time per instrumented site)");
  Table.setAlign(0, Align::Left);
  for (const SpanStats &Span : S.Spans)
    Table.addRow({Span.Name, std::to_string(Span.Count),
                  formatFixed(Span.TotalMs, 3), formatFixed(Span.MeanMs, 3),
                  formatFixed(Span.MinMs, 3), formatFixed(Span.MaxMs, 3)});
  return Table;
}

TextTable telemetry::makeStageBreakdownTable(const Snapshot &S) {
  TextTable Table({"stage", "worker", "compute ms", "queue-wait ms",
                   "idle ms", "busy %"});
  Table.setTitle("per-stage, per-worker breakdown (the self-profile cube)");
  Table.setAlign(0, Align::Left);
  Table.setAlign(1, Align::Left);
  for (const StageStats &Stage : S.Stages) {
    for (unsigned W = 0; W != S.NumWorkers; ++W) {
      double Compute = Stage.WorkerComputeMs[W];
      double Wait = Stage.WorkerQueueWaitMs[W];
      double BusyPct =
          Stage.WallMs > 0.0 ? 100.0 * Compute / Stage.WallMs : 0.0;
      Table.addRow({W == 0 ? Stage.Name +
                                 " (" + formatFixed(Stage.WallMs, 3) + " ms)"
                           : std::string(),
                    workerLabel(W), formatFixed(Compute, 3),
                    formatFixed(Wait, 3), formatFixed(idleMs(Stage, W), 3),
                    formatFixed(BusyPct, 1)});
    }
    Table.addSeparator();
  }
  return Table;
}

TextTable telemetry::makeCounterTable(const Snapshot &S) {
  TextTable Table({"counter", "value"});
  Table.setTitle("telemetry counters");
  Table.setAlign(0, Align::Left);
  for (const CounterValue &C : S.Counters)
    Table.addRow({C.Name, std::to_string(C.Value)});
  return Table;
}

std::string telemetry::exportChromeTrace(const Snapshot &S) {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::vector<std::string> Lines;

  // Thread-name metadata so Perfetto labels the worker tracks.
  for (unsigned W = 0; W != S.NumWorkers; ++W)
    Lines.push_back("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                    "\"tid\": " +
                    std::to_string(W) + ", \"args\": {\"name\": " +
                    quoted(workerLabel(W)) + "}}");

  // Complete ("X") events for stages and spans, in timestamp order so
  // consumers that stream the array see monotonic ts values.
  std::vector<std::pair<uint64_t, std::string>> Timed;
  for (const StageStats &Stage : S.Stages) {
    uint64_t DurNs = static_cast<uint64_t>(Stage.WallMs * 1e6);
    Timed.push_back(
        {Stage.StartNs,
         "{\"name\": " + quoted("stage:" + Stage.Name) +
             ", \"cat\": \"stage\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
             "\"ts\": " +
             toUs(Stage.StartNs) + ", \"dur\": " + toUs(DurNs) + "}"});
  }
  for (const SpanEvent &E : S.Events) {
    std::string Args;
    if (E.Stage != InvalidName)
      Args = "\"stage\": " + quoted(S.nameOf(E.Stage));
    if (E.QueueWaitNs != 0) {
      if (!Args.empty())
        Args += ", ";
      Args += "\"queue_wait_us\": " + toUs(E.QueueWaitNs);
    }
    Timed.push_back(
        {E.StartNs,
         "{\"name\": " + quoted(S.nameOf(E.Name)) +
             ", \"cat\": \"lima\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(E.Worker) + ", \"ts\": " + toUs(E.StartNs) +
             ", \"dur\": " + toUs(E.DurNs) +
             (Args.empty() ? std::string() : ", \"args\": {" + Args + "}") +
             "}"});
  }
  std::stable_sort(Timed.begin(), Timed.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  for (auto &Entry : Timed)
    Lines.push_back(std::move(Entry.second));

  // Counters as one sample each at the session end.
  uint64_t EndNs = static_cast<uint64_t>(S.SessionWallMs * 1e6);
  for (const CounterValue &C : S.Counters)
    Lines.push_back("{\"name\": " + quoted(C.Name) +
                    ", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"ts\": " +
                    toUs(EndNs) + ", \"args\": {\"value\": " +
                    std::to_string(C.Value) + "}}");

  for (size_t I = 0; I != Lines.size(); ++I) {
    Out += "  " + Lines[I];
    Out += I + 1 == Lines.size() ? "\n" : ",\n";
  }
  Out += "]}\n";
  return Out;
}

std::string telemetry::exportChromeTrace(const FlightSnapshot &S) {
  std::string Out = "{\"displayTimeUnit\": \"ms\", \"total_recorded\": " +
                    std::to_string(S.TotalRecorded) +
                    ", \"retained\": " + std::to_string(S.Events.size()) +
                    ", \"traceEvents\": [\n";
  std::vector<SpanEvent> Events = S.Events;
  std::stable_sort(Events.begin(), Events.end(),
                   [](const SpanEvent &A, const SpanEvent &B) {
                     return A.StartNs < B.StartNs;
                   });
  std::vector<std::string> Lines;
  for (const SpanEvent &E : Events) {
    std::string Args;
    if (E.Stage != InvalidName)
      Args = "\"stage\": " + quoted(S.nameOf(E.Stage));
    if (E.QueueWaitNs != 0) {
      if (!Args.empty())
        Args += ", ";
      Args += "\"queue_wait_us\": " + toUs(E.QueueWaitNs);
    }
    Lines.push_back(
        "{\"name\": " + quoted(S.nameOf(E.Name)) +
        ", \"cat\": \"lima\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
        std::to_string(E.Worker) + ", \"ts\": " + toUs(E.StartNs) +
        ", \"dur\": " + toUs(E.DurNs) +
        (Args.empty() ? std::string() : ", \"args\": {" + Args + "}") + "}");
  }
  for (size_t I = 0; I != Lines.size(); ++I) {
    Out += "  " + Lines[I];
    Out += I + 1 == Lines.size() ? "\n" : ",\n";
  }
  Out += "]}\n";
  return Out;
}

std::string telemetry::exportSelfProfileJson(const Snapshot &S) {
  std::string Out = "{\n";
  Out += "  \"version\": " + quoted(versionString()) + ",\n";
  Out += "  \"git_rev\": " + quoted(gitRevision()) + ",\n";
  Out += "  \"num_workers\": " + std::to_string(S.NumWorkers) + ",\n";
  Out += "  \"session_wall_ms\": " + formatFixed(S.SessionWallMs, 3) + ",\n";
  const ProcessUsage &P = S.Process;
  Out += "  \"process\": {\"user_cpu_ms\": " + formatFixed(P.UserCpuMs, 3) +
         ", \"system_cpu_ms\": " + formatFixed(P.SystemCpuMs, 3) +
         ", \"minor_faults\": " + std::to_string(P.MinorFaults) +
         ", \"major_faults\": " + std::to_string(P.MajorFaults) +
         ", \"voluntary_switches\": " + std::to_string(P.VoluntarySwitches) +
         ", \"involuntary_switches\": " +
         std::to_string(P.InvoluntarySwitches) +
         ", \"max_rss_kb\": " + std::to_string(P.MaxRssKb) + "},\n";

  Out += "  \"stages\": [\n";
  for (size_t I = 0; I != S.Stages.size(); ++I) {
    const StageStats &Stage = S.Stages[I];
    Out += "    {\"name\": " + quoted(Stage.Name) +
           ", \"wall_ms\": " + formatFixed(Stage.WallMs, 3) +
           ", \"workers\": [";
    for (unsigned W = 0; W != S.NumWorkers; ++W) {
      Out += "{\"compute_ms\": " + formatFixed(Stage.WorkerComputeMs[W], 3) +
             ", \"queue_wait_ms\": " +
             formatFixed(Stage.WorkerQueueWaitMs[W], 3) +
             ", \"idle_ms\": " + formatFixed(idleMs(Stage, W), 3) + "}";
      if (W + 1 != S.NumWorkers)
        Out += ", ";
    }
    Out += "]}";
    Out += I + 1 == S.Stages.size() ? "\n" : ",\n";
  }
  Out += "  ],\n";

  Out += "  \"spans\": [\n";
  for (size_t I = 0; I != S.Spans.size(); ++I) {
    const SpanStats &Span = S.Spans[I];
    Out += "    {\"name\": " + quoted(Span.Name) +
           ", \"count\": " + std::to_string(Span.Count) +
           ", \"total_ms\": " + formatFixed(Span.TotalMs, 3) +
           ", \"min_ms\": " + formatFixed(Span.MinMs, 3) +
           ", \"max_ms\": " + formatFixed(Span.MaxMs, 3) +
           ", \"mean_ms\": " + formatFixed(Span.MeanMs, 3) + "}";
    Out += I + 1 == S.Spans.size() ? "\n" : ",\n";
  }
  Out += "  ],\n";

  Out += "  \"counters\": [\n";
  for (size_t I = 0; I != S.Counters.size(); ++I) {
    Out += "    {\"name\": " + quoted(S.Counters[I].Name) +
           ", \"value\": " + std::to_string(S.Counters[I].Value) + "}";
    Out += I + 1 == S.Counters.size() ? "\n" : ",\n";
  }
  Out += "  ]\n}\n";
  return Out;
}
