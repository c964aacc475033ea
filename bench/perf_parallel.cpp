//===- bench/perf_parallel.cpp - serial vs parallel analysis paths --------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Times the hot analysis paths serial (threads=1) against the thread
// pool on a synthetic ~1M-event trace over 64 simulated processors, and
// emits machine-readable JSON to seed the perf trajectory:
//
//   perf_parallel [--threads 8] [--procs 64] [--rounds 2000]
//                 [--out BENCH_parallel.json]
//
// The JSON uses the shared bench envelope (BenchJson.h): version, git
// revision, hardware-thread count and timestamp wrap a records array of
// [{"name": ..., "threads": N, "events": E, "wall_ms": W,
//   "speedup": S}, ...] where speedup is wall_serial / wall at the same
// workload (1.0 for serial entries), plus a "telemetry" object with the
// runtime-enabled overhead of the self-instrumentation layer, a
// "metrics" object with the enabled-vs-disabled cost of the metrics
// registry (pipeline wall time plus per-count nanoseconds), and a
// "parse" object comparing strict against lenient trace parsing (the
// input-hardening rent, text and binary), a "binary_ingest" object
// comparing the v1 sequential binary reader against the v2
// block-indexed reader at one thread and at the hardware thread count
// (events/s, MB/s, and the on-disk index overhead, which must stay
// under 2% of the file), a "streaming_write" object comparing the
// buffered serialize-then-save path against the crash-consistent
// streaming writer (wall time, events/s, and the writer's peak
// buffered bytes, which must stay a small fraction of the file — the
// O(one block) memory claim), and an "http" object costing
// the status server's /metrics exposition (render wall time over ~200
// labeled series plus loopback scrape latency under writer load).
// Every parallel result is checked bit-identical to its serial twin
// before a line is emitted.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "TextParserReference.h"
#include "cluster/KMeans.h"
#include "core/Dashboard.h"
#include "core/Pipeline.h"
#include "core/TraceReduction.h"
#include "core/WindowHistory.h"
#include "stats/Bootstrap.h"
#include "stats/Descriptive.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/HttpServer.h"
#include "support/Metrics.h"
#include "support/MetricsExport.h"
#include "support/Parallel.h"
#include "support/RNG.h"
#include "support/ParseLimits.h"
#include "support/Telemetry.h"
#include "support/raw_ostream.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "trace/ParallelParse.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lima;

namespace {

/// One emitted measurement.
struct BenchRecord {
  std::string Name;
  unsigned Threads;
  size_t Events;
  double WallMs;
  double Speedup;
};

/// Synthetic trace: \p Rounds nested-region rounds per processor, eight
/// events per round, with per-processor skew and matched ring traffic.
trace::Trace makeTrace(unsigned Procs, unsigned Rounds) {
  trace::Trace T(Procs);
  uint32_t Outer = T.addRegion("solve");
  uint32_t Inner = T.addRegion("exchange");
  uint32_t Comp = T.addActivity("computation");
  uint32_t P2P = T.addActivity("point-to-point");

  double MaxClock = 0.0;
  for (unsigned P = 0; P != Procs; ++P) {
    double Clock = 0.0001 * P;
    for (unsigned R = 0; R != Rounds; ++R) {
      double Work = 0.001 + 0.0001 * ((P * 13 + R) % 29);
      T.append({Clock, P, trace::EventKind::RegionEnter, Outer, 0});
      T.append({Clock, P, trace::EventKind::ActivityBegin, Comp, 0});
      Clock += Work;
      T.append({Clock, P, trace::EventKind::ActivityEnd, Comp, 0});
      T.append({Clock, P, trace::EventKind::RegionEnter, Inner, 0});
      T.append({Clock, P, trace::EventKind::ActivityBegin, P2P, 0});
      Clock += Work * 0.25;
      T.append({Clock, P, trace::EventKind::ActivityEnd, P2P, 0});
      T.append({Clock, P, trace::EventKind::RegionExit, Inner, 0});
      T.append({Clock, P, trace::EventKind::RegionExit, Outer, 0});
    }
    MaxClock = std::max(MaxClock, Clock);
  }
  for (unsigned P = 0; P != Procs; ++P)
    T.append({MaxClock + 1.0, P, trace::EventKind::MessageSend,
              (P + 1) % Procs, 4096});
  for (unsigned P = 0; P != Procs; ++P)
    T.append({MaxClock + 2.0, P, trace::EventKind::MessageRecv,
              (P + Procs - 1) % Procs, 4096});
  return T;
}

/// \p T as LIMATRACE text with every time printed "%.17g" instead of
/// the writers' "%.9f": the same events, but about nine lines in ten
/// run most of the canonical fast path and are then declined to the
/// generic path, with more than 19 digits or a mantissa above 2^53 (the
/// rest are times "%.17g" prints short).
std::string writeTraceTextLongTimes(const trace::Trace &T) {
  trace::Trace Header(T.numProcs());
  for (const std::string &Name : T.regionNames())
    Header.addRegion(Name);
  for (const std::string &Name : T.activityNames())
    Header.addActivity(Name);
  std::string Text = trace::writeTraceText(Header);
  char Buf[128];
  for (unsigned P = 0; P != T.numProcs(); ++P)
    for (const trace::Event &E : T.events(P)) {
      bool Message = E.Kind == trace::EventKind::MessageSend ||
                     E.Kind == trace::EventKind::MessageRecv;
      int Len = std::snprintf(Buf, sizeof(Buf),
                              Message ? "%.*s %u %.17g %u %llu\n"
                                      : "%.*s %u %.17g %u\n",
                              2, trace::eventKindMnemonic(E.Kind).data(), P,
                              E.Time, E.Id,
                              static_cast<unsigned long long>(E.Bytes));
      Text.append(Buf, static_cast<size_t>(Len));
    }
  return Text;
}

/// Milliseconds of the best of \p Reps runs of \p Fn.
template <typename Fn> double timeMs(unsigned Reps, Fn &&Body) {
  double Best = 0.0;
  for (unsigned R = 0; R != Reps; ++R) {
    auto Start = std::chrono::steady_clock::now();
    Body();
    auto End = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration<double, std::milli>(End - Start).count();
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

std::string toJSON(const std::vector<BenchRecord> &Records) {
  std::string Out = "[\n";
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    Out += "  {\"name\": \"" + R.Name +
           "\", \"threads\": " + std::to_string(R.Threads) +
           ", \"events\": " + std::to_string(R.Events) +
           ", \"wall_ms\": " + formatFixed(R.WallMs, 3) +
           ", \"speedup\": " + formatFixed(R.Speedup, 3) + "}";
    Out += I + 1 == Records.size() ? "\n" : ",\n";
  }
  Out += "]";
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  ExitOnError ExitOnErr("perf_parallel: ");
  ArgParser Parser("perf_parallel",
                   "times serial vs thread-pool analysis paths on a "
                   "synthetic 1M-event trace and writes "
                   "BENCH_parallel.json");
  Parser.addOption("threads", "parallel thread count to benchmark", "8");
  Parser.addOption("procs", "simulated processors", "64");
  Parser.addOption("rounds", "instrumented rounds per processor", "2000");
  Parser.addOption("reps", "timing repetitions (best-of)", "3");
  Parser.addOption("out", "JSON output path", "BENCH_parallel.json");
  ExitOnErr(Parser.parse(Argc, Argv));

  unsigned Threads = static_cast<unsigned>(Parser.getUnsigned("threads"));
  unsigned Procs = static_cast<unsigned>(Parser.getUnsigned("procs"));
  unsigned Rounds = static_cast<unsigned>(Parser.getUnsigned("rounds"));
  unsigned Reps = static_cast<unsigned>(Parser.getUnsigned("reps"));

  raw_ostream &OS = outs();
  trace::Trace T = makeTrace(Procs, Rounds);
  size_t Events = T.numEvents();
  OS << "synthetic trace: " << Procs << " procs, " << Events
     << " events; hardware threads: " << hardwareThreads() << "\n\n";

  std::vector<BenchRecord> Records;
  auto record = [&](const std::string &Name, size_t N, double SerialMs,
                    double ParallelMs) {
    Records.push_back({Name, 1, N, SerialMs, 1.0});
    Records.push_back({Name, Threads, N, ParallelMs,
                       ParallelMs > 0.0 ? SerialMs / ParallelMs : 0.0});
    OS << leftJustify(Name, 12) << " serial " << formatFixed(SerialMs, 2)
       << " ms, " << Threads << " threads " << formatFixed(ParallelMs, 2)
       << " ms, speedup " << formatFixed(SerialMs / ParallelMs, 2) << "x\n";
  };

  // --- Trace reduction -------------------------------------------------
  core::ReductionOptions Serial;
  Serial.Threads = 1;
  core::ReductionOptions Parallel;
  Parallel.Threads = Threads;
  core::MeasurementCube SerialCube = ExitOnErr(core::reduceTrace(T, Serial));
  core::MeasurementCube ParallelCube =
      ExitOnErr(core::reduceTrace(T, Parallel));
  for (size_t I = 0; I != SerialCube.numRegions(); ++I)
    for (size_t J = 0; J != SerialCube.numActivities(); ++J)
      for (unsigned P = 0; P != SerialCube.numProcs(); ++P)
        if (SerialCube.time(I, J, P) != ParallelCube.time(I, J, P))
          ExitOnErr(makeStringError("parallel reduction diverged at "
                                    "(%zu, %zu, %u)",
                                    I, J, P));
  record("reduce", Events,
         timeMs(Reps, [&] { (void)cantFail(core::reduceTrace(T, Serial)); }),
         timeMs(Reps,
                [&] { (void)cantFail(core::reduceTrace(T, Parallel)); }));

  // --- Trace statistics ------------------------------------------------
  trace::TraceStats SerialStats = ExitOnErr(trace::computeTraceStats(T, 1));
  trace::TraceStats ParallelStats =
      ExitOnErr(trace::computeTraceStats(T, Threads));
  for (unsigned From = 0; From != T.numProcs(); ++From)
    for (unsigned To = 0; To != T.numProcs(); ++To)
      if (SerialStats.traffic(From, To).Messages !=
              ParallelStats.traffic(From, To).Messages ||
          SerialStats.traffic(From, To).Bytes !=
              ParallelStats.traffic(From, To).Bytes)
        ExitOnErr(makeStringError("parallel trace stats diverged at "
                                  "(%u, %u)",
                                  From, To));
  record("stats", Events,
         timeMs(Reps,
                [&] { (void)cantFail(trace::computeTraceStats(T, 1)); }),
         timeMs(Reps, [&] {
           (void)cantFail(trace::computeTraceStats(T, Threads));
         }));

  // --- Bootstrap -------------------------------------------------------
  RNG Rng(3);
  std::vector<double> Sample;
  for (int I = 0; I != 4096; ++I)
    Sample.push_back(Rng.uniformIn(0.5, 2.0));
  stats::BootstrapOptions BootSerial;
  BootSerial.Resamples = 4000;
  BootSerial.Threads = 1;
  stats::BootstrapOptions BootParallel = BootSerial;
  BootParallel.Threads = Threads;
  stats::BootstrapInterval SerialCI =
      stats::bootstrapImbalanceCI(Sample, BootSerial);
  stats::BootstrapInterval ParallelCI =
      stats::bootstrapImbalanceCI(Sample, BootParallel);
  if (SerialCI.Lower != ParallelCI.Lower ||
      SerialCI.Upper != ParallelCI.Upper)
    ExitOnErr(makeStringError("parallel bootstrap diverged"));
  record("bootstrap", Sample.size() * BootSerial.Resamples,
         timeMs(Reps,
                [&] { (void)stats::bootstrapImbalanceCI(Sample, BootSerial); }),
         timeMs(Reps, [&] {
           (void)stats::bootstrapImbalanceCI(Sample, BootParallel);
         }));

  // --- k-means ---------------------------------------------------------
  RNG PointRng(5);
  std::vector<std::vector<double>> Points;
  for (int I = 0; I != 10000; ++I) {
    double Center = static_cast<double>(I % 6) * 8.0;
    std::vector<double> Point(8);
    for (double &D : Point)
      D = Center + PointRng.normal();
    Points.push_back(std::move(Point));
  }
  cluster::KMeansOptions KSerial;
  KSerial.K = 6;
  KSerial.Restarts = 2;
  KSerial.Threads = 1;
  cluster::KMeansOptions KParallel = KSerial;
  KParallel.Threads = Threads;
  cluster::KMeansResult SerialKM = cantFail(cluster::kMeans(Points, KSerial));
  cluster::KMeansResult ParallelKM =
      cantFail(cluster::kMeans(Points, KParallel));
  if (SerialKM.Assignments != ParallelKM.Assignments ||
      SerialKM.Inertia != ParallelKM.Inertia)
    ExitOnErr(makeStringError("parallel k-means diverged"));
  record("kmeans", Points.size(),
         timeMs(Reps, [&] { (void)cantFail(cluster::kMeans(Points, KSerial)); }),
         timeMs(Reps,
                [&] { (void)cantFail(cluster::kMeans(Points, KParallel)); }));

  // --- Full pipeline ---------------------------------------------------
  core::AnalysisOptions ASerial;
  ASerial.Threads = 1;
  core::AnalysisOptions AParallel;
  AParallel.Threads = Threads;
  core::AnalysisResult SerialAn = cantFail(core::analyze(SerialCube, ASerial));
  core::AnalysisResult ParallelAn =
      cantFail(core::analyze(SerialCube, AParallel));
  if (SerialAn.Regions.ScaledIndex != ParallelAn.Regions.ScaledIndex)
    ExitOnErr(makeStringError("parallel analysis diverged"));
  record("analyze", Events,
         timeMs(Reps, [&] { (void)cantFail(core::analyze(SerialCube, ASerial)); }),
         timeMs(Reps, [&] {
           (void)cantFail(core::analyze(SerialCube, AParallel));
         }));

  // --- Telemetry overhead ----------------------------------------------
  // The analysis paths above all ran with recording disabled (the
  // shipping default); re-time the full pipeline with recording enabled
  // to put a number on the instrumentation cost.  With telemetry
  // compiled out both modes are identical by construction.
  // Interleave the two modes (best-of per mode) so drift on a shared
  // machine hits both sides instead of biasing whichever ran second.
  auto pipelineOnce = [&] {
    (void)cantFail(core::reduceTrace(T, Parallel));
    (void)cantFail(core::analyze(SerialCube, AParallel));
  };
  double TelemetryOffMs = 0.0, TelemetryOnMs = 0.0;
  telemetry::reset();
  for (unsigned R = 0; R != Reps; ++R) {
    double OffMs = timeMs(1, pipelineOnce);
    telemetry::setEnabled(true);
    double OnMs = timeMs(1, pipelineOnce);
    telemetry::setEnabled(false);
    if (R == 0 || OffMs < TelemetryOffMs)
      TelemetryOffMs = OffMs;
    if (R == 0 || OnMs < TelemetryOnMs)
      TelemetryOnMs = OnMs;
  }
  size_t TelemetryEvents = telemetry::collect().Events.size();
  double OverheadPct = TelemetryOffMs > 0.0
                           ? (TelemetryOnMs - TelemetryOffMs) /
                                 TelemetryOffMs * 100.0
                           : 0.0;
  OS << "\ntelemetry: off " << formatFixed(TelemetryOffMs, 2) << " ms, on "
     << formatFixed(TelemetryOnMs, 2) << " ms (" << TelemetryEvents
     << " events, " << formatFixed(OverheadPct, 1) << "% overhead)\n";

  // --- Metrics overhead ------------------------------------------------
  // Same interleaved protocol for the metrics registry: the pipeline is
  // instrumented with LIMA_METRIC_COUNT/GAUGE sites that check one
  // relaxed atomic when disabled and touch a sharded counter when
  // enabled.  Target: under 2% enabled, unmeasurable disabled.
  metrics::resetAll();
  double MetricsOffMs = 0.0, MetricsOnMs = 0.0;
  for (unsigned R = 0; R != Reps; ++R) {
    double OffMs = timeMs(1, pipelineOnce);
    metrics::setEnabled(true);
    double OnMs = timeMs(1, pipelineOnce);
    metrics::setEnabled(false);
    if (R == 0 || OffMs < MetricsOffMs)
      MetricsOffMs = OffMs;
    if (R == 0 || OnMs < MetricsOnMs)
      MetricsOnMs = OnMs;
  }
  double MetricsOverheadPct =
      MetricsOffMs > 0.0
          ? (MetricsOnMs - MetricsOffMs) / MetricsOffMs * 100.0
          : 0.0;

  // Microbenchmark the per-site cost in both states.
  constexpr uint64_t MicroIters = 2000000;
  auto microNs = [&] {
    double Ms = timeMs(Reps, [&] {
      for (uint64_t I = 0; I != MicroIters; ++I)
        LIMA_METRIC_COUNT("bench.metrics.micro", 1);
    });
    return Ms * 1e6 / static_cast<double>(MicroIters);
  };
  double CountNsDisabled = microNs();
  metrics::setEnabled(true);
  double CountNsEnabled = microNs();
  metrics::setEnabled(false);
  metrics::resetAll();
  OS << "metrics:   off " << formatFixed(MetricsOffMs, 2) << " ms, on "
     << formatFixed(MetricsOnMs, 2) << " ms ("
     << formatFixed(MetricsOverheadPct, 1) << "% overhead); per count "
     << formatFixed(CountNsDisabled, 1) << " ns disabled, "
     << formatFixed(CountNsEnabled, 1) << " ns enabled\n";

  // --- Status-server exposition ----------------------------------------
  // The /metrics handler runs on the status server's single thread, so
  // render time is time the server cannot accept other requests.  Cost
  // it against a realistically wide registry (~200 labeled series) and
  // measure end-to-end loopback scrape latency while a writer thread
  // keeps the counters hot.  Target: render under 10 ms.
  constexpr unsigned HttpSeries = 200;
  for (unsigned I = 0; I != HttpSeries; ++I) {
    std::string Name =
        "bench.http.series{idx=\"" + std::to_string(I) + "\"}";
    if (I % 2 == 0)
      metrics::counter(Name).add(I);
    else
      metrics::gauge(Name).set(static_cast<double>(I));
  }
  double RenderMs = timeMs(Reps, [] { (void)metrics::writePrometheusText(); });
  constexpr double RenderTargetMs = 10.0;
  bool RenderOk = RenderMs <= RenderTargetMs;

  http::HttpServer Scraped;
  Scraped.handle("/metrics", [](const http::Request &) {
    http::Response R;
    R.ContentType = "text/plain; version=0.0.4; charset=utf-8";
    R.Body = metrics::writePrometheusText();
    return R;
  });
  ExitOnErr(Scraped.start("127.0.0.1:0"));
  std::atomic<bool> WriterStop{false};
  std::thread Writer([&] {
    metrics::Counter &Hot = metrics::counter("bench.http.hot");
    while (!WriterStop.load(std::memory_order_relaxed))
      Hot.add(1);
  });
  constexpr unsigned ScrapeRequests = 50;
  std::vector<double> ScrapeMs;
  ScrapeMs.reserve(ScrapeRequests);
  for (unsigned I = 0; I != ScrapeRequests; ++I) {
    auto Begin = std::chrono::steady_clock::now();
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      break;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Scraped.port());
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool Ok = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)) == 0;
    const char Req[] = "GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                       "Connection: close\r\n\r\n";
    Ok = Ok && ::send(Fd, Req, sizeof(Req) - 1, 0) ==
                   static_cast<ssize_t>(sizeof(Req) - 1);
    char Buf[4096];
    while (Ok) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N < 0)
        Ok = false;
      if (N <= 0)
        break;
    }
    ::close(Fd);
    if (Ok)
      ScrapeMs.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - Begin)
                             .count());
  }
  WriterStop.store(true, std::memory_order_relaxed);
  Writer.join();
  Scraped.stop();
  metrics::resetAll();
  std::sort(ScrapeMs.begin(), ScrapeMs.end());
  auto percentile = [&](double P) {
    if (ScrapeMs.empty())
      return 0.0;
    size_t Idx = static_cast<size_t>(P * (ScrapeMs.size() - 1));
    return ScrapeMs[Idx];
  };
  double ScrapeP50Ms = percentile(0.50);
  double ScrapeP99Ms = percentile(0.99);
  OS << "http:      render " << formatFixed(RenderMs, 2) << " ms over "
     << HttpSeries << " series (target <= " << formatFixed(RenderTargetMs, 1)
     << " ms: " << (RenderOk ? "PASS" : "FAIL") << "); scrape p50 "
     << formatFixed(ScrapeP50Ms, 2) << " ms, p99 "
     << formatFixed(ScrapeP99Ms, 2) << " ms over " << ScrapeMs.size()
     << " requests under writer load\n";

  // --- Live stream fan-out and history render --------------------------
  // The SSE hub pushes every published frame to every subscriber from
  // the server's poll loop, so fan-out throughput bounds how fast
  // windows can drain before live dashboards lag.  The history render
  // is the /api/windows JSON for a full 512-window ring; like
  // /metrics, it runs on the server thread and its wall time is time
  // the server answers nothing else.
  constexpr unsigned SseSubscribers = 8;
  constexpr unsigned SseFrames = 1000;
  auto Hub = std::make_shared<http::StreamHub>();
  http::HttpServer SseServer;
  SseServer.handle("/events", [&Hub](const http::Request &) {
    return http::Response::stream("text/event-stream", Hub);
  });
  ExitOnErr(SseServer.start("127.0.0.1:0"));
  std::vector<std::thread> Readers;
  std::vector<double> ReaderMs(SseSubscribers, 0.0);
  std::atomic<unsigned> ReadersDone{0};
  auto SseBegin = std::chrono::steady_clock::now();
  for (unsigned S = 0; S != SseSubscribers; ++S)
    Readers.emplace_back([&, S] {
      int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (Fd < 0)
        return;
      sockaddr_in Addr{};
      Addr.sin_family = AF_INET;
      Addr.sin_port = htons(SseServer.port());
      Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) == 0) {
        const char Req[] = "GET /events HTTP/1.1\r\nHost: bench\r\n\r\n";
        if (::send(Fd, Req, sizeof(Req) - 1, 0) ==
            static_cast<ssize_t>(sizeof(Req) - 1)) {
          // Accumulate the chunked stream until the publisher's final
          // sentinel frame arrives, then stamp this reader's wall
          // clock.
          std::string Got;
          char Buf[8192];
          ssize_t N;
          while (Got.find("event: done") == std::string::npos &&
                 (N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
            Got.append(Buf, static_cast<size_t>(N));
          ReaderMs[S] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - SseBegin)
                            .count();
        }
      }
      ::close(Fd);
      ReadersDone.fetch_add(1, std::memory_order_relaxed);
    });
  // Publish once every subscriber is attached, so each frame fans out
  // SseSubscribers ways.
  while (Hub->subscribers() != SseSubscribers &&
         ReadersDone.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  const std::string FramePayload(180, 'w');
  for (unsigned F = 0; F != SseFrames; ++F)
    Hub->publish("event: window\ndata: {\"id\":" + std::to_string(F) +
                 ",\"pad\":\"" + FramePayload + "\"}\n\n");
  Hub->publish("event: done\ndata: {}\n\n");
  for (std::thread &R : Readers)
    R.join();
  SseServer.stop();
  double SseWallMs = *std::max_element(ReaderMs.begin(), ReaderMs.end());
  double SseFanoutPerS =
      SseWallMs > 0.0 ? double(SseFrames) * SseSubscribers / SseWallMs * 1e3
                      : 0.0;

  constexpr size_t HistoryWindows = 512;
  core::WindowHistory History(HistoryWindows);
  {
    std::vector<std::string> RegionNames, ActivityNames;
    for (unsigned I = 0; I != 12; ++I)
      RegionNames.push_back("region" + std::to_string(I));
    for (unsigned J = 0; J != 4; ++J)
      ActivityNames.push_back("activity" + std::to_string(J));
    History.setNames(std::move(RegionNames), std::move(ActivityNames));
  }
  for (size_t W = 0; W != HistoryWindows; ++W) {
    core::WindowSummary S;
    S.Index = W;
    S.StartTime = double(W);
    S.EndTime = double(W + 1);
    S.Events = 1000 + W;
    S.ProcLoad.assign(8, 0.125 * double(W % 7));
    S.RegionIdC.assign(12, 0.3);
    S.RegionSidC.assign(12, 0.05 * double(W % 11));
    S.ActivityIdA.assign(4, 0.2);
    S.ActivitySidA.assign(4, 0.1);
    S.MaxSidC = 0.05 * double(W % 11);
    History.append(std::move(S));
  }
  double HistoryRenderMs =
      timeMs(Reps, [&] { (void)core::dash::windowsJson(History); });
  OS << "dashboard: SSE fan-out " << formatFixed(SseFanoutPerS / 1e3, 1)
     << "k frames/s to " << SseSubscribers << " subscribers ("
     << SseFrames << " frames in " << formatFixed(SseWallMs, 2)
     << " ms); /api/windows render " << formatFixed(HistoryRenderMs, 2)
     << " ms over " << HistoryWindows << " windows\n";

  // --- Parse overhead: strict vs lenient -------------------------------
  // Lenient parsing pays per-record bookkeeping (the drop check and the
  // report counters) even on clean inputs; keep that rent visible for
  // both trace formats.  Target: under 2% on the ~1M-event trace.
  std::string TraceText = trace::writeTraceText(T);
  std::string TraceBinary = trace::writeTraceBinary(T);
  ParseOptions StrictParse;
  ParseReport LenientReport;
  ParseOptions LenientParse;
  LenientParse.Mode = ParseMode::Lenient;
  LenientParse.Report = &LenientReport;
  double TextLenientPct = 0.0;
  // Strict and lenient parses run in pairs, at least 7 whatever --reps
  // says, and the pairs alternate which mode goes first, so neither
  // mode always finds the caches the other left.  The overhead is the
  // median of the pairs' differences; the walls are medians too.
  constexpr unsigned MinParsePairs = 7;
  auto parseOverhead = [&](const char *Name, auto &&Parse,
                           double *PctOut = nullptr) {
    unsigned Pairs = std::max(Reps, MinParsePairs);
    std::vector<double> StrictRuns, LenientRuns, PairPcts;
    for (unsigned Pair = 0; Pair != Pairs; ++Pair) {
      double StrictRun = 0.0, LenientRun = 0.0;
      auto strict = [&] {
        StrictRun = timeMs(1, [&] { (void)cantFail(Parse(StrictParse)); });
      };
      auto lenient = [&] {
        LenientRun = timeMs(1, [&] { (void)cantFail(Parse(LenientParse)); });
      };
      if (Pair % 2 == 0) {
        strict();
        lenient();
      } else {
        lenient();
        strict();
      }
      StrictRuns.push_back(StrictRun);
      LenientRuns.push_back(LenientRun);
      PairPcts.push_back(StrictRun > 0.0
                             ? (LenientRun - StrictRun) / StrictRun * 100.0
                             : 0.0);
    }
    double StrictMs = stats::median(StrictRuns);
    double LenientMs = stats::median(LenientRuns);
    double Pct = stats::median(PairPcts);
    if (PctOut)
      *PctOut = Pct;
    OS << "parse " << leftJustify(Name, 6) << " strict "
       << formatFixed(StrictMs, 2) << " ms, lenient "
       << formatFixed(LenientMs, 2) << " ms ("
       << formatFixed(Pct, 1) << "% overhead, median of " << Pairs
       << " alternating pairs)\n";
    return "{\"strict_wall_ms\": " + formatFixed(StrictMs, 3) +
           ", \"lenient_wall_ms\": " + formatFixed(LenientMs, 3) +
           ", \"overhead_pct\": " + formatFixed(Pct, 2) + "}";
  };
  OS << '\n';
  std::string TextParseJson = parseOverhead(
      "text",
      [&](const ParseOptions &O) {
        return trace::parseTraceText(TraceText, O);
      },
      &TextLenientPct);
  std::string BinaryParseJson =
      parseOverhead("binary", [&](const ParseOptions &O) {
        return trace::parseTraceBinary(TraceBinary, O);
      });
  // The lenient rent on clean input must stay under 2%; the fast path
  // made strict parsing much cheaper, so the per-record bookkeeping has
  // to be cheap in *relative* terms too.
  constexpr double LenientTargetPct = 2.0;
  bool LenientTargetOk = TextLenientPct <= LenientTargetPct;
  OS << "parse text lenient overhead target <= "
     << formatFixed(LenientTargetPct, 1) << "%: "
     << (LenientTargetOk ? "PASS" : "FAIL") << '\n';

  // --- Ingestion fast path ---------------------------------------------
  // Old parser vs the single-pass scanner vs the sharded parallel
  // parser, as events/s and MB/s over the same in-memory bytes (the
  // file-level mmap savings come on top of these).  The scanner_fallback
  // leg prices input the canonical fast path declines: the scanner on
  // the same events with "%.17g" times, where the miss rule soon stops
  // trying the fast path.
  unsigned HwThreads = hardwareThreads();
  std::string FallbackText = writeTraceTextLongTimes(T);
  auto ingestLeg = [&](const char *Name, double WallMs, double BaseMs,
                       const std::string &Bytes) {
    double EventsPerS = WallMs > 0.0 ? Events / (WallMs / 1e3) : 0.0;
    double MbPerS =
        WallMs > 0.0 ? Bytes.size() / 1e6 / (WallMs / 1e3) : 0.0;
    double Speedup = WallMs > 0.0 ? BaseMs / WallMs : 0.0;
    OS << "ingest " << leftJustify(Name, 12) << formatFixed(WallMs, 2)
       << " ms, " << formatFixed(EventsPerS / 1e6, 2) << " Mevents/s, "
       << formatFixed(MbPerS, 1) << " MB/s, " << formatFixed(Speedup, 2)
       << "x vs legacy\n";
    return "{\"wall_ms\": " + formatFixed(WallMs, 3) +
           ", \"events_per_s\": " + formatFixed(EventsPerS, 0) +
           ", \"mb_per_s\": " + formatFixed(MbPerS, 2) +
           ", \"speedup_vs_legacy\": " + formatFixed(Speedup, 3) + "}";
  };
  OS << '\n';
  double LegacyMs = timeMs(Reps, [&] {
    (void)cantFail(testutil::parseTraceTextLegacy(TraceText, StrictParse));
  });
  double ScannerMs = timeMs(
      Reps,
      [&] { (void)cantFail(trace::parseTraceText(TraceText, StrictParse)); });
  double FallbackMs = timeMs(Reps, [&] {
    (void)cantFail(trace::parseTraceText(FallbackText, StrictParse));
  });
  double Par1Ms = timeMs(Reps, [&] {
    (void)cantFail(trace::parseTraceTextParallel(TraceText, StrictParse, 1));
  });
  double ParHwMs = timeMs(Reps, [&] {
    (void)cantFail(
        trace::parseTraceTextParallel(TraceText, StrictParse, HwThreads));
  });
  std::string LegacyJson =
      ingestLeg("legacy", LegacyMs, LegacyMs, TraceText);
  std::string ScannerJson =
      ingestLeg("scanner", ScannerMs, LegacyMs, TraceText);
  std::string FallbackJson =
      ingestLeg("fallback", FallbackMs, LegacyMs, FallbackText);
  std::string Par1Json = ingestLeg("sharded@1", Par1Ms, LegacyMs, TraceText);
  std::string ParHwJson =
      ingestLeg(("sharded@" + std::to_string(HwThreads)).c_str(), ParHwMs,
                LegacyMs, TraceText);
  std::string IngestJson =
      "{\"events\": " + std::to_string(Events) +
      ", \"bytes\": " + std::to_string(TraceText.size()) +
      ", \"hardware_threads\": " + std::to_string(HwThreads) +
      ", \"legacy\": " + LegacyJson + ", \"scanner\": " + ScannerJson +
      ", \"scanner_fallback\": " + FallbackJson +
      ", \"fallback_bytes\": " + std::to_string(FallbackText.size()) +
      ", \"sharded_1\": " + Par1Json + ", \"sharded_hw\": " + ParHwJson +
      ", \"lenient_overhead_pct\": " + formatFixed(TextLenientPct, 2) +
      ", \"lenient_overhead_target_pct\": " +
      formatFixed(LenientTargetPct, 1) +
      ", \"lenient_overhead_ok\": " +
      (LenientTargetOk ? "true" : "false") + "}";

  // --- Binary ingestion ------------------------------------------------
  // v1 sequential reader vs the v2 block-indexed reader at one thread
  // and at the hardware thread count, over the same logical trace.  The
  // v2 numbers include index validation and the SoA block decode.  The
  // block index must stay cheap on disk: overhead vs v1 under 2%.
  std::string BinaryV1 = trace::writeTraceBinaryV1(T);
  auto binaryLeg = [&](const char *Name, const std::string &Bytes,
                       double WallMs, double BaseMs) {
    double EventsPerS = WallMs > 0.0 ? Events / (WallMs / 1e3) : 0.0;
    double MbPerS =
        WallMs > 0.0 ? Bytes.size() / 1e6 / (WallMs / 1e3) : 0.0;
    double Speedup = WallMs > 0.0 ? BaseMs / WallMs : 0.0;
    OS << "binary " << leftJustify(Name, 12) << formatFixed(WallMs, 2)
       << " ms, " << formatFixed(EventsPerS / 1e6, 2) << " Mevents/s, "
       << formatFixed(MbPerS, 1) << " MB/s, " << formatFixed(Speedup, 2)
       << "x vs v1\n";
    return "{\"wall_ms\": " + formatFixed(WallMs, 3) +
           ", \"events_per_s\": " + formatFixed(EventsPerS, 0) +
           ", \"mb_per_s\": " + formatFixed(MbPerS, 2) +
           ", \"speedup_vs_v1\": " + formatFixed(Speedup, 3) + "}";
  };
  OS << '\n';
  double BinV1Ms = timeMs(Reps, [&] {
    (void)cantFail(trace::parseTraceBinary(BinaryV1, StrictParse));
  });
  double BinV2SeqMs = timeMs(Reps, [&] {
    (void)cantFail(
        trace::parseTraceBinaryParallel(TraceBinary, StrictParse, 1));
  });
  double BinV2ParMs = timeMs(Reps, [&] {
    (void)cantFail(trace::parseTraceBinaryParallel(TraceBinary, StrictParse,
                                                   HwThreads));
  });
  std::string BinV1Json = binaryLeg("v1", BinaryV1, BinV1Ms, BinV1Ms);
  std::string BinV2SeqJson =
      binaryLeg("v2@1", TraceBinary, BinV2SeqMs, BinV1Ms);
  std::string BinV2ParJson =
      binaryLeg(("v2@" + std::to_string(HwThreads)).c_str(), TraceBinary,
                BinV2ParMs, BinV1Ms);
  double IndexOverheadPct =
      TraceBinary.size() > BinaryV1.size()
          ? 100.0 * static_cast<double>(TraceBinary.size() - BinaryV1.size()) /
                static_cast<double>(TraceBinary.size())
          : 0.0;
  constexpr double IndexOverheadTargetPct = 2.0;
  bool IndexOverheadOk = IndexOverheadPct <= IndexOverheadTargetPct;
  OS << "binary index overhead " << formatFixed(IndexOverheadPct, 2)
     << "% of file (target <= " << formatFixed(IndexOverheadTargetPct, 1)
     << "%: " << (IndexOverheadOk ? "PASS" : "FAIL") << ")\n";
  std::string BinaryIngestJson =
      "{\"events\": " + std::to_string(Events) +
      ", \"v1_bytes\": " + std::to_string(BinaryV1.size()) +
      ", \"v2_bytes\": " + std::to_string(TraceBinary.size()) +
      ", \"hardware_threads\": " + std::to_string(HwThreads) +
      ", \"v1\": " + BinV1Json + ", \"v2_seq\": " + BinV2SeqJson +
      ", \"v2_sharded\": " + BinV2ParJson +
      ", \"index_overhead_pct\": " + formatFixed(IndexOverheadPct, 2) +
      ", \"index_overhead_target_pct\": " +
      formatFixed(IndexOverheadTargetPct, 1) +
      ", \"index_overhead_ok\": " + (IndexOverheadOk ? "true" : "false") +
      "}";

  // --- Streaming write -------------------------------------------------
  // The crash-consistent streaming writer against the buffered
  // serialize-then-save path, same trace, same destination file.  The
  // streamed file costs one pwrite per block plus a header patch; in
  // exchange its memory stays bounded by one open block, where the
  // buffered path materializes the whole serialized file.  The memory
  // target is structural, not relative to the trace: peak buffered
  // bytes must stay under one block's worst-case encoding (24 bytes per
  // event — f64 time, kind byte, max varint id and bytes), whatever the
  // trace size.
  std::string StreamPath = Parser.getString("out") + ".stream.limb";
  double BufferedWriteMs =
      timeMs(Reps, [&] { ExitOnErr(trace::saveTraceBinary(T, StreamPath)); });
  double StreamedWriteMs = timeMs(Reps, [&] {
    ExitOnErr(trace::StreamingBinaryWriter::writeTrace(T, StreamPath));
  });
  size_t StreamBytes = 0;
  size_t PeakBuffered = 0;
  {
    trace::StreamingBinaryWriter W;
    ExitOnErr(W.open(StreamPath, T.regionNames(), T.activityNames(),
                     static_cast<uint32_t>(T.numProcs())));
    for (unsigned P = 0; P != T.numProcs(); ++P)
      for (const trace::Event &E : T.events(P)) {
        ExitOnErr(W.append(E));
        PeakBuffered = std::max(PeakBuffered, W.bufferedBytes());
      }
    ExitOnErr(W.close());
    StreamBytes = cantFail(readFile(StreamPath)).size();
  }
  std::remove(StreamPath.c_str());
  auto writeLeg = [&](const char *Name, double WallMs, double BaseMs) {
    double EventsPerS = WallMs > 0.0 ? Events / (WallMs / 1e3) : 0.0;
    double MbPerS =
        WallMs > 0.0 ? StreamBytes / 1e6 / (WallMs / 1e3) : 0.0;
    double Relative = BaseMs > 0.0 ? WallMs / BaseMs : 0.0;
    OS << "write " << leftJustify(Name, 10) << formatFixed(WallMs, 2)
       << " ms, " << formatFixed(EventsPerS / 1e6, 2) << " Mevents/s, "
       << formatFixed(MbPerS, 1) << " MB/s, " << formatFixed(Relative, 2)
       << "x buffered wall\n";
    return "{\"wall_ms\": " + formatFixed(WallMs, 3) +
           ", \"events_per_s\": " + formatFixed(EventsPerS, 0) +
           ", \"mb_per_s\": " + formatFixed(MbPerS, 2) +
           ", \"vs_buffered\": " + formatFixed(Relative, 3) + "}";
  };
  OS << '\n';
  std::string BufferedWriteJson =
      writeLeg("buffered", BufferedWriteMs, BufferedWriteMs);
  std::string StreamedWriteJson =
      writeLeg("streamed", StreamedWriteMs, BufferedWriteMs);
  constexpr size_t MaxEventEncodedBytes = 24;
  size_t BlockBoundBytes =
      trace::BinaryWriteOptions{}.BlockEvents * MaxEventEncodedBytes;
  bool PeakBufferedOk = PeakBuffered <= BlockBoundBytes;
  OS << "write peak buffered " << PeakBuffered
     << " bytes (one-block bound " << BlockBoundBytes
     << ": " << (PeakBufferedOk ? "PASS" : "FAIL") << ")\n";
  std::string StreamingWriteJson =
      "{\"events\": " + std::to_string(Events) +
      ", \"bytes\": " + std::to_string(StreamBytes) +
      ", \"buffered\": " + BufferedWriteJson +
      ", \"streamed\": " + StreamedWriteJson +
      ", \"peak_buffered_bytes\": " + std::to_string(PeakBuffered) +
      ", \"block_bound_bytes\": " + std::to_string(BlockBoundBytes) +
      ", \"peak_buffered_ok\": " + (PeakBufferedOk ? "true" : "false") +
      "}";

  bench::JsonFields Extra = {
      {"parse", "{\"events\": " + std::to_string(Events) +
                    ", \"text\": " + TextParseJson +
                    ", \"binary\": " + BinaryParseJson + "}"},
      {"ingest", IngestJson},
      {"binary_ingest", BinaryIngestJson},
      {"streaming_write", StreamingWriteJson},
      {"telemetry",
       std::string("{\"compiled\": ") +
           (LIMA_TELEMETRY ? "true" : "false") +
           ", \"disabled_wall_ms\": " + formatFixed(TelemetryOffMs, 3) +
           ", \"enabled_wall_ms\": " + formatFixed(TelemetryOnMs, 3) +
           ", \"events\": " + std::to_string(TelemetryEvents) +
           ", \"overhead_pct\": " + formatFixed(OverheadPct, 2) + "}"},
      {"metrics",
       std::string("{\"compiled\": ") +
           (LIMA_TELEMETRY ? "true" : "false") +
           ", \"disabled_wall_ms\": " + formatFixed(MetricsOffMs, 3) +
           ", \"enabled_wall_ms\": " + formatFixed(MetricsOnMs, 3) +
           ", \"overhead_pct\": " + formatFixed(MetricsOverheadPct, 2) +
           ", \"count_ns_disabled\": " + formatFixed(CountNsDisabled, 2) +
           ", \"count_ns_enabled\": " + formatFixed(CountNsEnabled, 2) +
           "}"},
      {"http",
       "{\"series\": " + std::to_string(HttpSeries) +
           ", \"render_wall_ms\": " + formatFixed(RenderMs, 3) +
           ", \"render_target_ms\": " + formatFixed(RenderTargetMs, 1) +
           ", \"render_ok\": " + (RenderOk ? "true" : "false") +
           ", \"scrape_requests\": " + std::to_string(ScrapeMs.size()) +
           ", \"scrape_p50_ms\": " + formatFixed(ScrapeP50Ms, 3) +
           ", \"scrape_p99_ms\": " + formatFixed(ScrapeP99Ms, 3) +
           ", \"sse_subscribers\": " + std::to_string(SseSubscribers) +
           ", \"sse_frames\": " + std::to_string(SseFrames) +
           ", \"sse_wall_ms\": " + formatFixed(SseWallMs, 3) +
           ", \"sse_fanout_frames_per_s\": " + formatFixed(SseFanoutPerS, 1) +
           ", \"history_windows\": " + std::to_string(HistoryWindows) +
           ", \"history_render_wall_ms\": " + formatFixed(HistoryRenderMs, 3) +
           "}"}};

  std::string Path = Parser.getString("out");
  ExitOnErr(writeFile(
      Path, bench::makeEnvelope("parallel", Extra, toJSON(Records))));
  OS << "\nJSON written to " << Path << '\n';
  OS.flush();
  return 0;
}
