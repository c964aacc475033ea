//===- examples/lima_analyze.cpp - trace-file analysis tool ---------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The command-line front end: reads a LIMATRACE text file (produced by
// the simulator, or by any external profiling layer that emits the
// format) and prints the full load-imbalance analysis.  This is the
// "performance tool" shape the paper's conclusions call for.
//
//   lima_analyze mytrace.trace
//   lima_analyze --csv --index mad mytrace.trace
//
//===----------------------------------------------------------------------===//

#include "core/CountingReduction.h"
#include "core/Dashboard.h"
#include "core/Diagnosis.h"
#include "core/HtmlReport.h"
#include "core/PhaseAnalysis.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/SelfProfile.h"
#include "core/TraceReduction.h"
#include "core/WaitStates.h"
#include "core/WindowHistory.h"
#include "core/WindowedAnalysis.h"
#include "stats/Dispersion.h"
#include "support/CommandLine.h"
#include "support/CrashDump.h"
#include "support/Format.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/MetricsExport.h"
#include "support/ProcessMetrics.h"
#include "support/StatusServer.h"
#include "support/raw_ostream.h"
#include "support/FileUtils.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/TraceEventExport.h"
#include "support/Version.h"
#include "trace/BinaryIO.h"
#include "trace/Filter.h"
#include "trace/Timeline.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

using namespace lima;

static Expected<stats::DispersionKind> parseKind(const std::string &Name) {
  for (stats::DispersionKind Kind : stats::AllDispersionKinds)
    if (stats::dispersionKindName(Kind) == Name)
      return Kind;
  return makeStringError("unknown dispersion index '%s'", Name.c_str());
}

int main(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_analyze: ");

  // --version short-circuits before the parser runs (the trace positional
  // is otherwise required).
  for (int I = 1; I != Argc; ++I)
    if (std::strcmp(Argv[I], "--version") == 0) {
      outs() << "lima_analyze " << versionString() << '\n';
      outs().flush();
      return 0;
    }

  ArgParser Parser("lima_analyze",
                   "analyzes the load imbalance recorded in a LIMATRACE "
                   "file");
  Parser.addPositional("trace", "path to the trace file");
  Parser.addOption("index",
                   "dispersion index: euclidean, variance, cv, mad, max, "
                   "range, gini",
                   "euclidean");
  Parser.addOption("clusters", "number of region clusters (0 = skip)", "2");
  Parser.addOption("threads",
                   "worker threads for trace ingestion, validation, "
                   "reduction and analysis (0 = all hardware threads, "
                   "1 = serial)",
                   "0");
  Parser.addFlag("csv", "emit tables as CSV instead of aligned text");
  Parser.addFlag("patterns", "also print the pattern diagrams");
  Parser.addFlag("diagnose", "run the rule-based diagnosis");
  Parser.addFlag("timeline", "print a per-processor ASCII timeline");
  Parser.addFlag("phases", "per-instance (temporal) indices per region");
  Parser.addFlag("counting", "also analyze message-count imbalance");
  Parser.addFlag("waitstates", "late-sender wait-state analysis");
  Parser.addFlag("traffic", "print the communication matrix");
  Parser.addOption("regions", "comma-separated region names to keep", "");
  Parser.addOption("window", "time window 'begin:end' in seconds", "");
  Parser.addOption("html", "also write a self-contained HTML report here",
                   "");
  Parser.addFlag("version", "print the version and exit");
  Parser.addFlag("strict",
                 "abort on the first malformed trace record (default)");
  Parser.addFlag("lenient",
                 "skip malformed trace records and report what was "
                 "dropped instead of aborting");
  Parser.addFlag("quiet", "suppress the standard analysis report (file "
                          "outputs like --html still happen)");
  Parser.addFlag("self-profile",
                 "dogfood: run LIMA's own telemetry through the imbalance "
                 "analysis and print the result");
  Parser.addOption("self-profile-json",
                   "write machine-readable self-profile stats JSON here",
                   "");
  Parser.addOption("self-trace",
                   "write a Chrome trace-event JSON of this run here "
                   "(chrome://tracing, Perfetto)",
                   "");
  Parser.addOption("metrics-out",
                   "record pipeline metrics and write them here in "
                   "Prometheus text exposition format",
                   "");
  Parser.addOption("http",
                   "serve /metrics, /healthz, /readyz, /varz, /debug/spans, "
                   "/api/windows and /dashboard on this address while the "
                   "analysis runs (host:port; port 0 picks an ephemeral "
                   "one)",
                   "");
  Parser.addOption("windowed",
                   "with --http: also run a windowed analysis at this "
                   "width in seconds and serve the per-window history on "
                   "/api/windows and /dashboard (0 = skip)",
                   "0");
  Parser.addOption("history",
                   "retain at most N window summaries from --windowed",
                   "512");
  Parser.addOption("linger-ms",
                   "with --http: keep serving this long after the "
                   "analysis completes, so the dashboard and history can "
                   "be inspected (0 = stop immediately)",
                   "0");
  Parser.addOption("flight-recorder",
                   "keep the most recent N spans in a lock-free ring for "
                   "/debug/spans and crash dumps (0 disables)",
                   "4096");
  Parser.addOption("crash-dump",
                   "on SIGSEGV/SIGBUS/SIGABRT, write the flight recorder "
                   "and recent log records to this file before dying",
                   "");
  logging::addFlags(Parser);
  ExitOnErr(Parser.parse(Argc, Argv));

  ExitOnErr(logging::configureFromFlags(Parser, Parser.getFlag("quiet")));
  bool Http = !Parser.getString("http").empty();
  if (!Parser.getString("metrics-out").empty() || Http)
    metrics::setEnabled(true);

  if (!Parser.getString("crash-dump").empty())
    ExitOnErr(crashdump::install(Parser.getString("crash-dump")));

  bool SelfProfile = Parser.getFlag("self-profile") ||
                     !Parser.getString("self-profile-json").empty() ||
                     !Parser.getString("self-trace").empty();
  if (SelfProfile) {
    telemetry::reset();
    telemetry::setEnabled(true);
  }

  // The flight recorder needs a consumer (/debug/spans or a crash
  // dump).  Ring-only unless --self-profile also wants the collect()
  // buffers: with no one draining them they would only grow.
  uint64_t FlightCapacity = Parser.getUnsigned("flight-recorder");
  if (FlightCapacity != 0 &&
      (Http || !Parser.getString("crash-dump").empty())) {
    telemetry::enableFlightRecorder(FlightCapacity);
    telemetry::setRingOnly(!SelfProfile);
    telemetry::setEnabled(true);
  }

  // The status server runs for the whole analysis: a long reduction can
  // be scraped and probed while it works.  AnalysisDone drives /readyz.
  std::atomic<bool> AnalysisDone{false};
  status::StatusServer Status;
  std::shared_ptr<core::WindowHistory> History;
  std::shared_ptr<http::StreamHub> EventsHub;
  if (Http) {
    uint64_t HistoryCap = Parser.getUnsigned("history");
    if (HistoryCap == 0)
      ExitOnErr(makeStringError("--history must be positive"));
    History = std::make_shared<core::WindowHistory>(
        static_cast<size_t>(HistoryCap));
    EventsHub = std::make_shared<http::StreamHub>();
    Status.addVar("history_windows", [History] {
      return std::to_string(History->size());
    });
    core::dash::DashboardOptions DashOpts;
    DashOpts.Title = "LIMA analysis dashboard";
    core::dash::mountDashboard(Status, History, EventsHub, DashOpts);
    Status.addHealthProbe("analyze", [] {
      return status::ProbeResult{true, "running"};
    });
    Status.addReadyProbe("analysis", [&AnalysisDone] {
      bool Done = AnalysisDone.load(std::memory_order_relaxed);
      return status::ProbeResult{Done, Done ? "complete" : "in progress"};
    });
    Status.addVar("analysis_done", [&AnalysisDone] {
      return AnalysisDone.load(std::memory_order_relaxed)
                 ? std::string("true")
                 : std::string("false");
    });
    ExitOnErr(Status.start(Parser.getString("http")));
    logging::info("status server listening",
                  {logging::field("address", Status.address())});
  }

  if (Parser.getFlag("strict") && Parser.getFlag("lenient"))
    ExitOnErr(makeStringError("--strict and --lenient are mutually "
                              "exclusive"));
  bool Lenient = Parser.getFlag("lenient");
  ParseReport Report;
  ParseOptions Parse;
  Parse.Mode = Lenient ? ParseMode::Lenient : ParseMode::Strict;
  Parse.Report = Lenient ? &Report : nullptr;

  // --threads drives ingestion too: text traces parse sharded (and
  // bit-identical to the sequential parser) on the same setting the
  // analysis stages use.
  unsigned Threads = static_cast<unsigned>(Parser.getUnsigned("threads"));
  trace::Trace Trace = ExitOnErr(
      trace::loadTraceAuto(Parser.getPositionals()[0], Parse, Threads));

  if (!Parser.getString("regions").empty() ||
      !Parser.getString("window").empty()) {
    trace::FilterOptions Filter;
    for (std::string_view Name :
         splitString(Parser.getString("regions"), ','))
      if (!Name.empty())
        Filter.Regions.emplace_back(Name);
    if (!Parser.getString("window").empty()) {
      auto Parts = splitString(Parser.getString("window"), ':');
      if (Parts.size() != 2)
        ExitOnErr(makeStringError("--window expects 'begin:end'"));
      Filter.TimeBegin = ExitOnErr(parseDouble(Parts[0]));
      Filter.TimeEnd = ExitOnErr(parseDouble(Parts[1]));
    }
    Trace = ExitOnErr(
        trace::filterTrace(Trace, Filter, Parse.Mode, Parse.Report));
  }

  // Batch windowed history: the whole (already filtered) trace goes
  // through the windowed analyzer once and every window's summary is
  // retained for /api/windows and /dashboard — the post-mortem
  // counterpart of lima_monitor's live drain.  Frames are published
  // too, so an SSE client attached early sees the run play out.
  double WindowedSeconds = Parser.getDouble("windowed");
  if (History && WindowedSeconds > 0.0) {
    core::WindowedOptions WOpts;
    WOpts.WindowSeconds = WindowedSeconds;
    WOpts.Views.Kind = ExitOnErr(parseKind(Parser.getString("index")));
    WOpts.Mode = Parse.Mode;
    core::WindowedAnalyzer Analyzer(Trace.regionNames(),
                                    Trace.activityNames(), Trace.numProcs(),
                                    WOpts);
    ExitOnErr(Analyzer.addTrace(Trace));
    History->setNames(Trace.regionNames(), Trace.activityNames());
    for (const core::WindowResult &W : Analyzer.finish()) {
      core::WindowSummary S = core::WindowHistory::summarize(W);
      History->append(S);
      EventsHub->publish(core::dash::sseWindowFrame(S, Trace.regionNames(),
                                                    Trace.activityNames()));
    }
    logging::info("windowed history populated",
                  {logging::field("windows", History->size()),
                   logging::field("window_seconds", WindowedSeconds)});
  }

  // The fold inspects only the events the parser kept, each already in
  // the parser's total: its report adds drops, not records.
  ParseReport FoldReport;
  core::ReductionOptions Reduction;
  Reduction.Threads = Threads;
  Reduction.Mode = Parse.Mode;
  Reduction.Report = Lenient ? &FoldReport : nullptr;
  core::MeasurementCube Cube = ExitOnErr(core::reduceTrace(Trace, Reduction));
  FoldReport.TotalRecords = 0;
  Report.merge(FoldReport);

  // The lenient receipt goes through the log layer (stderr by default),
  // so piped table output stays clean and --quiet / --log-json apply.
  if (Lenient) {
    std::vector<logging::Field> Fields = {
        logging::field("total", Report.TotalRecords),
        logging::field("dropped", Report.DroppedRecords)};
    if (Report.anyDropped()) {
      Fields.push_back(logging::field("detail", Report.summary()));
      logging::warn("parse report", std::move(Fields));
    } else {
      logging::info("parse report", std::move(Fields));
    }
  }

  core::AnalysisOptions Options;
  Options.Views.Kind = ExitOnErr(parseKind(Parser.getString("index")));
  Options.Clusters = Parser.getUnsigned("clusters");
  Options.Threads = Threads;
  core::AnalysisResult Result = ExitOnErr(core::analyze(Cube, Options));

  raw_ostream &OS = outs();
  bool CSV = Parser.getFlag("csv");
  bool Quiet = Parser.getFlag("quiet");
  auto emit = [&](const TextTable &Table) {
    if (CSV)
      OS << Table.toCSV() << '\n';
    else {
      Table.print(OS);
      OS << '\n';
    }
  };
  if (!Quiet) {
    emit(core::makeRegionBreakdownTable(Cube, Result.Profile));
    emit(core::makeDissimilarityTable(Cube, Result.Activities));
    emit(core::makeActivityViewTable(Cube, Result.Activities));
    emit(core::makeRegionViewTable(Cube, Result.Regions));
    emit(core::makeProcessorViewTable(Cube, Result.Processors));
  }

  if (Parser.getFlag("patterns"))
    for (const core::PatternDiagram &Diagram : Result.Patterns)
      OS << core::renderPatternASCII(Diagram, Cube) << '\n';

  if (Parser.getFlag("timeline"))
    OS << ExitOnErr(trace::renderTimeline(Trace, {}, Parse.Mode)) << '\n';

  if (Parser.getFlag("traffic"))
    OS << trace::renderCommunicationMatrix(ExitOnErr(
              trace::computeTraceStats(Trace, Threads, Parse.Mode)))
       << '\n';

  if (Parser.getFlag("phases")) {
    core::PhaseResult Phases =
        ExitOnErr(core::analyzePhases(Trace, {}, Parse.Mode));
    OS << "per-instance dissimilarity (one sparkline per region):\n";
    for (const core::PhaseSeries &Series : Phases.Series) {
      if (Series.InstanceIndex.empty())
        continue;
      core::Trend T = core::linearTrend(Series.InstanceIndex);
      OS << "  " << leftJustify(Cube.regionName(Series.Region), 16) << ' '
         << core::renderSparkline(Series.InstanceIndex) << "  trend "
         << formatFixed(T.RelativeSlope * 100.0, 1)
         << "%/instance\n";
    }
    OS << '\n';
  }

  if (Parser.getFlag("counting")) {
    auto Counts = ExitOnErr(core::reduceTraceCounts(
        Trace, core::CountingMetric::MessagesSent, Parse.Mode));
    core::RegionView CountView = core::computeRegionView(Counts);
    OS << "message-count imbalance per region (ID_C on counts):\n";
    for (size_t I = 0; I != Counts.numRegions(); ++I)
      OS << "  " << leftJustify(Counts.regionName(I), 16) << ' '
         << formatFixed(CountView.Index[I], 5) << '\n';
    OS << '\n';
  }

  if (Parser.getFlag("waitstates")) {
    core::WaitStateReport Waits =
        ExitOnErr(core::analyzeWaitStates(Trace, Parse.Mode));
    OS << "late-sender wait states: " << formatFixed(Waits.TotalLateSender,
                                                     3)
       << " s across " << Waits.LateReceives << " of "
       << Waits.TotalReceives << " receives\n";
    unsigned Shown = 0;
    for (const core::ChannelWait &Channel : Waits.Channels) {
      if (++Shown > 5)
        break;
      OS << "  p" << Channel.From + 1 << " -> p" << Channel.To + 1 << ": "
         << formatFixed(Channel.Seconds, 3) << " s over "
         << Channel.Messages << " messages\n";
    }
    OS << '\n';
  }

  if (!Quiet) {
    if (Result.HasClusters)
      OS << core::describeClusters(Cube, Result.Clusters) << '\n';
    OS << core::summarizeFindings(Cube, Result.Profile, Result.Activities,
                                  Result.Regions, Result.Processors);
  }

  if (Parser.getFlag("diagnose")) {
    OS << "\nautomatic diagnosis:\n"
       << core::renderDiagnoses(Cube, core::diagnose(Cube, Result));
  }

  if (!Parser.getString("html").empty()) {
    ExitOnErr(writeFile(Parser.getString("html"),
                        core::renderHtmlReport(Cube, Result)));
    if (!Quiet)
      OS << "\nHTML report written to " << Parser.getString("html") << '\n';
  }

  if (SelfProfile) {
    telemetry::setEnabled(false);
    telemetry::Snapshot Snap = telemetry::collect();

    if (!Parser.getString("self-trace").empty())
      ExitOnErr(writeFile(Parser.getString("self-trace"),
                          telemetry::exportChromeTrace(Snap)));
    if (!Parser.getString("self-profile-json").empty())
      ExitOnErr(writeFile(Parser.getString("self-profile-json"),
                          telemetry::exportSelfProfileJson(Snap)));

    if (Parser.getFlag("self-profile") && Snap.Stages.empty()) {
      // Telemetry compiled out (LIMA_TELEMETRY=0): nothing recorded.
      OS << "self-profile: no telemetry recorded (built with "
            "LIMA_TELEMETRY=0?)\n";
    } else if (Parser.getFlag("self-profile")) {
      OS << "== self-profile: LIMA analyzed by LIMA ("
         << Snap.NumWorkers << " worker"
         << (Snap.NumWorkers == 1 ? "" : "s") << ", "
         << formatFixed(Snap.SessionWallMs, 2) << " ms session) ==\n\n";
      emit(telemetry::makeSpanSummaryTable(Snap));
      emit(telemetry::makeStageBreakdownTable(Snap));
      if (!Snap.Counters.empty())
        emit(telemetry::makeCounterTable(Snap));

      // The dogfood step: the pipeline's own per-stage, per-worker time
      // becomes a measurement cube and goes through the same analysis
      // the tool applies to foreign traces.
      core::MeasurementCube SelfCube =
          ExitOnErr(core::buildSelfProfileCube(Snap));
      core::AnalysisOptions SelfOptions;
      SelfOptions.Views.Kind = Options.Views.Kind;
      SelfOptions.Clusters = 0;
      SelfOptions.Threads = 1;
      core::AnalysisResult SelfResult =
          ExitOnErr(core::analyze(SelfCube, SelfOptions));
      emit(core::makeRegionBreakdownTable(SelfCube, SelfResult.Profile));
      emit(core::makeRegionViewTable(SelfCube, SelfResult.Regions));
      emit(core::makeProcessorViewTable(SelfCube, SelfResult.Processors));
      OS << core::summarizeFindings(SelfCube, SelfResult.Profile,
                                    SelfResult.Activities, SelfResult.Regions,
                                    SelfResult.Processors);
    }
    if (!Quiet) {
      if (!Parser.getString("self-trace").empty())
        OS << "self-trace written to " << Parser.getString("self-trace")
           << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
      if (!Parser.getString("self-profile-json").empty())
        OS << "self-profile stats written to "
           << Parser.getString("self-profile-json") << '\n';
    }
  }
  AnalysisDone.store(true, std::memory_order_relaxed);

  if (!Parser.getString("metrics-out").empty()) {
    metrics::sampleProcessMetrics();
    ExitOnErr(metrics::writeMetricsFile(Parser.getString("metrics-out")));
    if (!Quiet)
      OS << "metrics written to " << Parser.getString("metrics-out") << '\n';
  }

  OS.flush();
  uint64_t LingerMs = Parser.getUnsigned("linger-ms");
  if (Http && LingerMs != 0) {
    logging::info("lingering for inspection",
                  {logging::field("address", Status.address()),
                   logging::field("linger_ms", LingerMs)});
    std::this_thread::sleep_for(std::chrono::milliseconds(LingerMs));
  }
  Status.stop();
  return 0;
}
