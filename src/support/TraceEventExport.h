//===- support/TraceEventExport.h - Telemetry exporters ---------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exporters for telemetry snapshots: human-readable summary tables via
/// TableFormatter, a machine-readable JSON stats document, and Chrome
/// trace-event JSON loadable by chrome://tracing and Perfetto.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_SUPPORT_TRACEEVENTEXPORT_H
#define LIMA_SUPPORT_TRACEEVENTEXPORT_H

#include "support/TableFormatter.h"
#include "support/Telemetry.h"
#include <string>

namespace lima {
namespace telemetry {

/// Per-span-name statistics: count, total/min/max/mean wall ms, ordered
/// by descending total.
TextTable makeSpanSummaryTable(const Snapshot &S);

/// Per-stage, per-worker busy/queue-wait/idle milliseconds — the table
/// the self-profile cube is built from.
TextTable makeStageBreakdownTable(const Snapshot &S);

/// Final counter readings.
TextTable makeCounterTable(const Snapshot &S);

/// Chrome trace-event JSON (the "JSON Array Format" wrapped in an object
/// with displayTimeUnit).  Spans and stages become complete ("X") events
/// on their worker's track, in non-decreasing timestamp order; counters
/// become one "C" sample at the session end.
std::string exportChromeTrace(const Snapshot &S);

/// Machine-readable stats document: stages with per-worker breakdowns,
/// span aggregates and counters, the process's CPU, faults, context
/// switches and peak RSS at collect(), plus the build version.
std::string exportSelfProfileJson(const Snapshot &S);

/// Chrome trace-event JSON of a flight-recorder snapshot (the
/// /debug/spans payload): the same "X"-event shape as
/// exportChromeTrace, in non-decreasing timestamp order, plus
/// "total_recorded"/"retained" metadata so consumers can tell how much
/// history the bounded ring has dropped.
std::string exportChromeTrace(const FlightSnapshot &S);

} // namespace telemetry
} // namespace lima

#endif // LIMA_SUPPORT_TRACEEVENTEXPORT_H
