//===- perfbench/perfbench_tool.cpp - benchmark inputs and layer passes ---===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The compiled half of the end-to-end benchmark (perfbench/run.py).
//
//   perfbench_tool gen --workload W --seed S --events N --out F
//                      [--ref-out F] [--windows-out F] [--window SEC]
//                      [--serve]
//
// generates the paper-shaped trace from the seed and writes workload W's
// input with the library writers, timing both; then (untimed) renders
// the reference outputs the tools must reproduce: lima_analyze's default
// report and lima_monitor's per-window records, both computed from the
// trace as it reads back from its text form.  With --serve it then times
// one more set-up into F.again for every line read from stdin, until EOF.
//
//   perfbench_tool layers --workload W --input F --seconds T
//                         [--window SEC] [--chrome-out F] [--output-out F]
//
// calls each layer's public entry point in the order the tool for W
// calls it, on the input file, for T seconds: traced passes record one
// span per call (kept in memory, written as a Chrome trace at the end)
// and alternate with untraced passes of the same code, whose difference
// is the tracing overhead.  Prints per-layer medians as one JSON line.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/RegionClustering.h"
#include "core/Report.h"
#include "core/TraceReduction.h"
#include "core/WindowedAnalysis.h"
#include "support/Checksum.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/RNG.h"
#include "support/raw_ostream.h"
#include "trace/BinaryDetail.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "trace/ParallelParse.h"
#include "trace/StreamParser.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fcntl.h>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <unistd.h>
#include <vector>

using namespace lima;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

//===----------------------------------------------------------------------===//
// Workloads and the input generator.
//===----------------------------------------------------------------------===//

enum class Workload { TextGrouped, TextInterleaved, LimbV2, MonitorStream };

std::optional<Workload> parseWorkload(std::string_view Name) {
  if (Name == "text-grouped")
    return Workload::TextGrouped;
  if (Name == "text-interleaved")
    return Workload::TextInterleaved;
  if (Name == "limb-v2")
    return Workload::LimbV2;
  if (Name == "monitor-stream")
    return Workload::MonitorStream;
  return std::nullopt;
}

constexpr unsigned NumProcs = 64;

enum Activity : uint32_t { Computation, PointToPoint, Collective, Sync };

/// The seven regions of the paper's example program, each with its mean
/// computation time per iteration and the activities it performs after
/// computing.  Every region ends in a collective or a barrier, so the
/// per-processor skew shows up as waiting time, as in the paper.
struct RegionShape {
  const char *Name;
  uint64_t ComputeNs;
  bool P2P, Coll, Barrier;
};
constexpr RegionShape Regions[] = {
    {"loop1", 420000, true, false, true},  {"loop2", 910000, true, true, true},
    {"loop3", 160000, false, true, false}, {"loop4", 330000, true, false, true},
    {"loop5", 720000, true, true, true},   {"loop6", 110000, false, false, true},
    {"loop7", 260000, true, true, false},
};

uint64_t eventsPerProcAndIteration() {
  uint64_t N = 0;
  for (const RegionShape &R : Regions)
    N += 4 + (R.P2P ? 4 : 0) + (R.Coll ? 2 : 0) + (R.Barrier ? 2 : 0);
  return N;
}

/// The benchmark trace: 7 regions x 4 activities over 64 processors,
/// iterated until at least \p TargetEvents events exist.  The seed
/// draws each processor's load factor, two overloaded processors per
/// region, per-interval noise and the message sizes; ring neighbours
/// exchange matched ms/mr pairs.  Times are whole nanoseconds.
trace::Trace makeTrace(uint64_t Seed, uint64_t TargetEvents) {
  trace::Trace T(NumProcs);
  for (const RegionShape &R : Regions)
    T.addRegion(R.Name);
  T.addActivity("computation");
  T.addActivity("point-to-point");
  T.addActivity("collective");
  T.addActivity("synchronization");

  RNG R(Seed);
  constexpr size_t NumRegions = std::size(Regions);
  std::vector<double> Skew(NumProcs);
  for (double &S : Skew)
    S = 1.0 + 0.3 * R.uniform();
  std::vector<std::vector<double>> Load(NumRegions, Skew);
  for (std::vector<double> &Row : Load)
    for (int Hot = 0; Hot != 2; ++Hot)
      Row[R.uniformInt(NumProcs)] *= 1.4 + 0.4 * R.uniform();

  uint64_t PerIteration = eventsPerProcAndIteration() * NumProcs;
  uint64_t Iterations =
      std::max<uint64_t>(1, (TargetEvents + PerIteration - 1) / PerIteration);

  std::vector<uint64_t> Now(NumProcs, 0), SentAt(NumProcs, 0);
  auto emit = [&](unsigned P, trace::EventKind Kind, uint32_t Id,
                  uint64_t Bytes = 0) {
    T.append({static_cast<double>(Now[P]) / 1e9, P, Kind, Id, Bytes});
  };
  auto latest = [&] { return *std::max_element(Now.begin(), Now.end()); };
  using K = trace::EventKind;

  for (uint64_t It = 0; It != Iterations; ++It) {
    for (size_t Reg = 0; Reg != NumRegions; ++Reg) {
      const RegionShape &Shape = Regions[Reg];
      uint32_t Id = static_cast<uint32_t>(Reg);
      uint64_t Bytes = 256 * (1 + R.uniformInt(64));
      for (unsigned P = 0; P != NumProcs; ++P) {
        emit(P, K::RegionEnter, Id);
        emit(P, K::ActivityBegin, Computation);
        double Noise = 0.95 + 0.1 * R.uniform();
        Now[P] += static_cast<uint64_t>(Shape.ComputeNs * Load[Reg][P] * Noise);
        emit(P, K::ActivityEnd, Computation);
      }
      if (Shape.P2P) {
        for (unsigned P = 0; P != NumProcs; ++P) {
          emit(P, K::ActivityBegin, PointToPoint);
          Now[P] += 2000;
          SentAt[P] = Now[P];
          emit(P, K::MessageSend, (P + 1) % NumProcs, Bytes);
        }
        for (unsigned P = 0; P != NumProcs; ++P) {
          unsigned From = (P + NumProcs - 1) % NumProcs;
          Now[P] = std::max(Now[P], SentAt[From] + 8000 + Bytes);
          emit(P, K::MessageRecv, From, Bytes);
          Now[P] += 1000;
          emit(P, K::ActivityEnd, PointToPoint);
        }
      }
      if (Shape.Coll) {
        for (unsigned P = 0; P != NumProcs; ++P)
          emit(P, K::ActivityBegin, Collective);
        uint64_t Done = latest() + 20000 + 4 * Bytes;
        for (unsigned P = 0; P != NumProcs; ++P) {
          Now[P] = Done;
          emit(P, K::ActivityEnd, Collective);
        }
      }
      if (Shape.Barrier) {
        for (unsigned P = 0; P != NumProcs; ++P)
          emit(P, K::ActivityBegin, Sync);
        uint64_t Done = latest() + 3000;
        for (unsigned P = 0; P != NumProcs; ++P) {
          Now[P] = Done;
          emit(P, K::ActivityEnd, Sync);
        }
      }
      for (unsigned P = 0; P != NumProcs; ++P)
        emit(P, K::RegionExit, Id);
    }
  }
  return T;
}

/// Reorders the event lines of \p Grouped (writeTraceText(T), processor
/// by processor) by time across processors, ties by processor: the
/// order a live tracer emits.  Lines are moved verbatim, so both files
/// hold byte-identical records.
std::string interleaveText(const trace::Trace &T, const std::string &Grouped) {
  size_t HeaderLines = 2 + T.numRegions() + T.numActivities();
  std::vector<size_t> LineStart;
  LineStart.reserve(HeaderLines + T.numEvents() + 1);
  for (size_t Pos = 0; Pos < Grouped.size();
       Pos = Grouped.find('\n', Pos) + 1)
    LineStart.push_back(Pos);
  LineStart.push_back(Grouped.size());

  std::vector<size_t> FirstLine(NumProcs);
  size_t Line = HeaderLines;
  for (unsigned P = 0; P != NumProcs; ++P) {
    FirstLine[P] = Line;
    Line += T.events(P).size();
  }

  std::string Out;
  Out.reserve(Grouped.size());
  Out.append(Grouped, 0, LineStart[HeaderLines]);
  using Head = std::pair<double, unsigned>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> Heads;
  std::vector<size_t> Cursor(NumProcs, 0);
  for (unsigned P = 0; P != NumProcs; ++P)
    if (!T.events(P).empty())
      Heads.push({T.events(P).times()[0], P});
  while (!Heads.empty()) {
    unsigned P = Heads.top().second;
    Heads.pop();
    size_t L = FirstLine[P] + Cursor[P];
    Out.append(Grouped, LineStart[L], LineStart[L + 1] - LineStart[L]);
    if (++Cursor[P] != T.events(P).size())
      Heads.push({T.events(P).times()[Cursor[P]], P});
  }
  return Out;
}

/// Derived once from the generated trace, off the set-up clock: the
/// trace as every reader sees it, parsed back from its text form (the
/// LIMB file and the references are made from it, so all inputs carry
/// bit-identical events), and for the interleaved workloads the text
/// lines merged by time.
struct Prepared {
  trace::Trace Canon;
  std::string Interleaved;
};

Expected<Prepared> prepare(Workload W, const trace::Trace &T) {
  std::string Text = trace::writeTraceText(T);
  auto Canon = trace::parseTraceText(Text);
  if (!Canon)
    return Canon.takeError();
  Prepared P{std::move(*Canon), {}};
  if (W == Workload::TextInterleaved || W == Workload::MonitorStream)
    P.Interleaved = interleaveText(T, Text);
  return P;
}

/// One timed set-up: generates the trace from the seed and writes
/// workload \p W's input to \p Path with the library writer (saveTrace,
/// saveTraceBinary, or writeFileAtomic for the interleaved text).
/// Returns the seconds both took.
Expected<double> setUp(Workload W, uint64_t Seed, uint64_t Events,
                       const Prepared &P, const std::string &Path) {
  auto Start = Clock::now();
  trace::Trace T = makeTrace(Seed, Events);
  Error Err = W == Workload::TextGrouped ? trace::saveTrace(T, Path)
              : W == Workload::LimbV2   ? trace::saveTraceBinary(P.Canon, Path)
                                        : writeFileAtomic(Path, P.Interleaved);
  if (Err)
    return Err;
  return secondsSince(Start);
}

//===----------------------------------------------------------------------===//
// Reference outputs.
//===----------------------------------------------------------------------===//

/// lima_analyze's default stdout: the five tables, the cluster groups
/// and the findings paragraph.
std::string renderReport(const core::MeasurementCube &Cube,
                         const core::AnalysisResult &Result) {
  std::string Out;
  raw_string_ostream OS(Out);
  auto emit = [&](const TextTable &Table) {
    Table.print(OS);
    OS << '\n';
  };
  emit(core::makeRegionBreakdownTable(Cube, Result.Profile));
  emit(core::makeDissimilarityTable(Cube, Result.Activities));
  emit(core::makeActivityViewTable(Cube, Result.Activities));
  emit(core::makeRegionViewTable(Cube, Result.Regions));
  emit(core::makeProcessorViewTable(Cube, Result.Processors));
  if (Result.HasClusters)
    OS << core::describeClusters(Cube, Result.Clusters) << '\n';
  OS << core::summarizeFindings(Cube, Result.Profile, Result.Activities,
                                Result.Regions, Result.Processors);
  OS.flush();
  return Out;
}

/// The fields of lima_monitor's "window" log records that the benchmark
/// checks, one JSON object per line, doubles formatted as the log does.
void appendWindowRecords(const std::vector<core::WindowResult> &Windows,
                         std::string &Out) {
  for (const core::WindowResult &W : Windows) {
    if (W.Empty)
      continue;
    size_t Top = W.Regions.MostImbalancedScaled;
    Out += "{\"window\":" + std::to_string(W.Index) +
           ",\"events\":" + std::to_string(W.Events) + ",\"top_region\":\"" +
           W.Cube.regionName(Top) +
           "\",\"sid_c\":" + formatGeneral(W.Regions.ScaledIndex[Top]) + "}\n";
  }
}

core::WindowedOptions windowedOptions(double WindowSeconds) {
  core::WindowedOptions Options;
  Options.WindowSeconds = WindowSeconds;
  return Options;
}

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

/// In-memory span store: name, start, end, parent and pass id.
class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int Parent = -1;
    unsigned Pass = 0;
  };

  void beginPass() { ++Pass; }

  int begin(std::string Name) {
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({std::move(Name), now(), 0, Open.empty() ? -1 : Open.back(),
                     Pass});
    Open.push_back(Id);
    return Id;
  }
  void end(int Id) {
    Spans[static_cast<size_t>(Id)].EndNs = now();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, one track per pass.
  std::string chromeTrace() const {
    std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out += (I ? ",\n" : "");
      Out += "{\"name\":\"" + S.Name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
             std::to_string(S.Pass) +
             ",\"ts\":" + formatFixed(S.StartNs / 1e3, 3) +
             ",\"dur\":" + formatFixed((S.EndNs - S.StartNs) / 1e3, 3) +
             ",\"args\":{\"id\":" + std::to_string(I) +
             ",\"parent\":" + std::to_string(S.Parent) +
             ",\"pass\":" + std::to_string(S.Pass) + "}}";
    }
    return Out + "\n]}\n";
  }

private:
  uint64_t now() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Epoch)
            .count());
  }

  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
  unsigned Pass = 0;
};

/// A span around one scope, or nothing when \p T is null (the untraced
/// passes run the same code with recording off).
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, std::string Name)
      : T(T), Id(T ? T->begin(std::move(Name)) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Layer passes.
//===----------------------------------------------------------------------===//

/// The validated block index of the LIMB v2 file \p Data, read with the
/// library's own header and index readers.
Expected<trace::detail::BinaryIndex> readBlockIndex(std::string_view Data) {
  trace::detail::BinaryHeader Header;
  std::optional<trace::Trace> Names;
  uint64_t AllocBytes = 0;
  if (Error Err = trace::detail::parseBinaryHeader(Data, ParseOptions(), Header,
                                                   Names, AllocBytes))
    return Err;
  if (!(Header.Flags & trace::detail::BinaryFlagBlockCrc))
    return makeStringError("LIMB file carries no block CRCs");
  std::optional<trace::detail::BinaryIndex> Index =
      trace::detail::readBinaryIndex(Data, Header);
  if (!Index)
    return makeStringError("LIMB file has no valid v2 block index");
  return std::move(*Index);
}

/// Named per-pass layer times (ms) and counts.
using Sample = std::map<std::string, double>;

/// Keeps the page-touching loop from being optimized away.
volatile unsigned char TouchSink;

/// One lima_analyze pass at \p Threads: map, parse, reduce, analyze and
/// (at the default setting) the k-means share of analyze, the CRC share
/// of the binary decode, and the report render.
Expected<Sample> analyzePass(Workload W, const std::string &Input,
                             unsigned Threads, Tracer *T,
                             std::string *Report) {
  bool Serial = Threads == 1;
  std::string Suffix = Serial ? "_serial" : "";
  ScopedSpan Root(T, Serial ? "pass.serial" : "pass.default");
  Sample Counts;

  std::optional<MappedFile> File;
  {
    ScopedSpan S(T, "support.map_fault");
    auto FileOrErr = MappedFile::open(Input);
    if (!FileOrErr)
      return FileOrErr.takeError();
    File.emplace(std::move(*FileOrErr));
    std::string_view Bytes = File->view();
    unsigned char Touch = 0;
    for (size_t I = 0; I < Bytes.size(); I += 4096)
      Touch ^= static_cast<unsigned char>(Bytes[I]);
    TouchSink = Touch;
  }
  std::string_view Bytes = File->view();

  ParseReport Dropped;
  ParseOptions Parse;
  Parse.Report = &Dropped;
  std::optional<trace::Trace> Trace;
  {
    bool Binary = W == Workload::LimbV2;
    ScopedSpan S(T, (Binary ? "trace.binary_parse" : "trace.text_parse") +
                        Suffix);
    auto TraceOrErr = Binary
                          ? trace::parseTraceBinaryParallel(Bytes, Parse, Threads)
                          : trace::parseTraceTextParallel(Bytes, Parse, Threads);
    if (!TraceOrErr)
      return TraceOrErr.takeError();
    Trace.emplace(std::move(*TraceOrErr));
  }
  Counts["trace.events"] = static_cast<double>(Trace->numEvents());
  Counts["trace.bytes"] = static_cast<double>(Bytes.size());
  Counts["trace.dropped_records"] = static_cast<double>(Dropped.DroppedRecords);

  if (W == Workload::LimbV2 && !Serial) {
    auto Index = readBlockIndex(Bytes);
    if (!Index)
      return Index.takeError();
    uint32_t Bad = 0;
    {
      ScopedSpan S(T, "support.crc32");
      for (const trace::detail::BlockInfo &B : Index->Blocks)
        Bad += crc32(Bytes.substr(B.Offset, B.Bytes)) != B.Crc;
    }
    if (Bad)
      return makeStringError("%u LIMB blocks fail their CRC", Bad);
  }

  core::ReductionOptions Reduction;
  Reduction.Threads = Threads;
  std::optional<core::MeasurementCube> Cube;
  {
    ScopedSpan S(T, "core.reduce" + Suffix);
    auto CubeOrErr = core::reduceTrace(*Trace, Reduction);
    if (!CubeOrErr)
      return CubeOrErr.takeError();
    Cube.emplace(std::move(*CubeOrErr));
  }

  core::AnalysisOptions Options;
  Options.Threads = Threads;
  std::optional<core::AnalysisResult> Result;
  {
    ScopedSpan S(T, "core.analyze" + Suffix);
    auto ResultOrErr = core::analyze(*Cube, Options);
    if (!ResultOrErr)
      return ResultOrErr.takeError();
    Result.emplace(std::move(*ResultOrErr));
  }
  if (Serial)
    return Counts;

  {
    ScopedSpan S(T, "cluster.kmeans");
    core::RegionClusteringOptions Clustering;
    Clustering.K = 2;
    Clustering.KMeans.Threads = Threads;
    auto ClustersOrErr = core::clusterRegions(*Cube, Clustering);
    if (!ClustersOrErr)
      return ClustersOrErr.takeError();
  }
  {
    ScopedSpan S(T, "core.render");
    *Report = renderReport(*Cube, *Result);
  }
  return Counts;
}

/// One lima_monitor pass: read the file in the monitor's 64 KiB chunks,
/// feed each to the StreamParser, add its events to the
/// WindowedAnalyzer and drain the completed windows.
Expected<Sample> monitorPass(const std::string &Input, double WindowSeconds,
                             Tracer *T, std::string *Records) {
  ScopedSpan Root(T, "pass.monitor");
  int Fd = ::open(Input.c_str(), O_RDONLY);
  if (Fd < 0)
    return makeStringError("cannot open '%s'", Input.c_str());

  ParseReport Dropped;
  ParseOptions Parse;
  Parse.Report = &Dropped;
  trace::StreamParser Stream(Parse);
  std::optional<core::WindowedAnalyzer> Analyzer;
  std::vector<trace::Event> Events;
  std::vector<char> Buf(1 << 16);
  uint64_t Windows = 0, FileBytes = 0;

  auto consume = [&]() -> Error {
    {
      ScopedSpan S(T, "core.window_add");
      for (const trace::Event &E : Events) {
        if (!Analyzer)
          Analyzer.emplace(Stream.regionNames(), Stream.activityNames(),
                           Stream.numProcs(), windowedOptions(WindowSeconds));
        if (Error Err = Analyzer->addEvent(E))
          return Err;
      }
    }
    Events.clear();
    if (!Analyzer)
      return Error::success();
    std::vector<core::WindowResult> Done;
    {
      ScopedSpan S(T, "core.window_drain");
      Done = Analyzer->drainCompleted();
    }
    Windows += Done.size();
    appendWindowRecords(Done, *Records);
    return Error::success();
  };

  auto readAll = [&]() -> Error {
    for (;;) {
      ssize_t N;
      {
        ScopedSpan S(T, "support.read");
        N = ::read(Fd, Buf.data(), Buf.size());
      }
      if (N < 0)
        return makeStringError("read of '%s' failed", Input.c_str());
      if (N == 0)
        return Error::success();
      FileBytes += static_cast<uint64_t>(N);
      {
        ScopedSpan S(T, "trace.stream_feed");
        if (Error Err = Stream.feed(
                std::string_view(Buf.data(), static_cast<size_t>(N)), Events))
          return Err;
      }
      if (Error Err = consume())
        return Err;
    }
  };
  Error Failure = readAll();
  ::close(Fd);
  if (Failure)
    return Failure;

  {
    ScopedSpan S(T, "trace.stream_feed");
    if (Error Err = Stream.finish(Events))
      return Err;
  }
  if (Error Err = consume())
    return Err;
  if (!Analyzer)
    return makeStringError("'%s' holds no events", Input.c_str());
  std::vector<core::WindowResult> Done;
  {
    ScopedSpan S(T, "core.window_drain");
    Done = Analyzer->finish();
  }
  Windows += Done.size();
  appendWindowRecords(Done, *Records);

  Sample Counts;
  Counts["trace.events"] = static_cast<double>(Stream.eventsParsed());
  Counts["trace.bytes"] = static_cast<double>(FileBytes);
  Counts["trace.dropped_records"] = static_cast<double>(Dropped.DroppedRecords);
  Counts["core.windows"] = static_cast<double>(Windows);
  return Counts;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Subcommands.
//===----------------------------------------------------------------------===//

/// Writes lima_analyze's default report on \p T to \p RefOut and the
/// monitor's window records to \p WindowsOut (either may be empty).
Error writeReferences(const trace::Trace &T, const std::string &RefOut,
                      const std::string &WindowsOut, double WindowSeconds) {
  if (!RefOut.empty()) {
    core::ReductionOptions Reduction;
    Reduction.Threads = 1;
    auto Cube = core::reduceTrace(T, Reduction);
    if (!Cube)
      return Cube.takeError();
    core::AnalysisOptions Options;
    Options.Threads = 1;
    auto Result = core::analyze(*Cube, Options);
    if (!Result)
      return Result.takeError();
    if (Error Err = writeFile(RefOut, renderReport(*Cube, *Result)))
      return Err;
  }
  if (!WindowsOut.empty()) {
    core::WindowedAnalyzer Analyzer(T.regionNames(), T.activityNames(),
                                    T.numProcs(),
                                    windowedOptions(WindowSeconds));
    if (Error Err = Analyzer.addTrace(T))
      return Err;
    std::string Records;
    appendWindowRecords(Analyzer.finish(), Records);
    if (Error Err = writeFile(WindowsOut, Records))
      return Err;
  }
  return Error::success();
}

Error runGen(const ArgParser &Args, Workload W) {
  uint64_t Seed = Args.getUnsigned("seed");
  uint64_t Events = Args.getUnsigned("events");
  const std::string &Out = Args.getString("out");
  if (Out.empty())
    return makeStringError("gen needs --out");

  trace::Trace T = makeTrace(Seed, Events);
  auto P = prepare(W, T);
  if (!P)
    return P.takeError();
  auto Setup = setUp(W, Seed, Events, *P, Out);
  if (!Setup)
    return Setup.takeError();

  if (Error Err = writeReferences(P->Canon, Args.getString("ref-out"),
                                  Args.getString("windows-out"),
                                  Args.getDouble("window")))
    return Err;

  outs() << "{\"setup_s\":" << jsonNumber(*Setup)
         << ",\"events\":" << T.numEvents() << "}\n";
  outs().flush();
  if (!Args.getFlag("serve"))
    return Error::success();

  // One more timed set-up per request line, into a scratch file, so the
  // caller can sample set-up time at several moments of its run.
  std::string Again = Out + ".again";
  char Line[64];
  while (std::fgets(Line, sizeof(Line), stdin)) {
    auto Repeat = setUp(W, Seed, Events, *P, Again);
    if (!Repeat)
      return Repeat.takeError();
    std::remove(Again.c_str());
    outs() << "{\"setup_s\":" << jsonNumber(*Repeat) << "}\n";
    outs().flush();
  }
  return Error::success();
}

Error runLayers(const ArgParser &Args, Workload W) {
  const std::string &Input = Args.getString("input");
  double Budget = Args.getDouble("seconds");
  double WindowSeconds = Args.getDouble("window");
  bool Monitor = W == Workload::MonitorStream;

  Tracer T;
  std::vector<Sample> Traced;
  std::vector<double> TracedMs, UntracedMs;
  std::string FirstOutput;
  auto Start = Clock::now();
  auto onePass = [&](unsigned Threads, Tracer *Tr) -> Expected<Sample> {
    std::string Output;
    auto Counts = Monitor ? monitorPass(Input, WindowSeconds, Tr, &Output)
                          : analyzePass(W, Input, Threads, Tr, &Output);
    if (Counts && FirstOutput.empty())
      FirstOutput = std::move(Output);
    else if (Counts && !Output.empty() && Output != FirstOutput)
      return makeStringError("in-process passes disagree on their output");
    return Counts;
  };

  // One cycle: a traced pass at the default thread count, an untraced
  // one (same code, no spans) and, for lima_analyze, a traced serial
  // pass.  At least two cycles run, however short the budget.
  for (unsigned Cycle = 0; Cycle < 2 || secondsSince(Start) < Budget;
       ++Cycle) {
    T.beginPass();
    size_t FirstSpan = T.spans().size();
    auto Counts = onePass(0, &T);
    if (!Counts)
      return Counts.takeError();
    Sample Layers = std::move(*Counts);
    const Tracer::Span &Root = T.spans()[FirstSpan];
    TracedMs.push_back((Root.EndNs - Root.StartNs) / 1e6);

    if (!Monitor) {
      T.beginPass();
      if (auto Serial = onePass(1, &T); !Serial)
        return Serial.takeError();
    }
    // Self time per layer: each span's duration minus its children's,
    // summed by name over this cycle's passes.
    std::vector<double> Self;
    for (size_t I = FirstSpan; I != T.spans().size(); ++I) {
      const Tracer::Span &S = T.spans()[I];
      Self.push_back((S.EndNs - S.StartNs) / 1e6);
      if (S.Parent >= static_cast<int>(FirstSpan))
        Self[size_t(S.Parent) - FirstSpan] -= (S.EndNs - S.StartNs) / 1e6;
    }
    for (size_t I = FirstSpan; I != T.spans().size(); ++I)
      Layers[T.spans()[I].Name + "_ms"] += Self[I - FirstSpan];
    Traced.push_back(std::move(Layers));

    auto UntracedStart = Clock::now();
    if (auto Untraced = onePass(0, nullptr); !Untraced)
      return Untraced.takeError();
    UntracedMs.push_back(secondsSince(UntracedStart) * 1e3);
  }

  std::map<std::string, std::vector<double>> ByName;
  for (const Sample &S : Traced)
    for (const auto &[Name, Value] : S)
      ByName[Name].push_back(Value);
  std::string Json = "{\"cycles\":" + std::to_string(Traced.size()) +
                     ",\"traced_ms\":" + jsonNumber(median(TracedMs)) +
                     ",\"untraced_ms\":" + jsonNumber(median(UntracedMs)) +
                     ",\"layers\":{";
  bool First = true;
  for (const auto &[Name, Values] : ByName) {
    Json += (First ? "\"" : ",\"") + Name + "\":" + jsonNumber(median(Values));
    First = false;
  }
  Json += "}}\n";

  if (!Args.getString("chrome-out").empty())
    if (Error Err = writeFile(Args.getString("chrome-out"), T.chromeTrace()))
      return Err;
  if (!Args.getString("output-out").empty())
    if (Error Err = writeFile(Args.getString("output-out"), FirstOutput))
      return Err;
  outs() << Json;
  outs().flush();
  return Error::success();
}

} // namespace

int main(int Argc, char **Argv) {
  ExitOnError ExitOnErr("perfbench_tool: ");
  ArgParser Args("perfbench_tool",
                 "generates the end-to-end benchmark's inputs and runs its "
                 "traced in-process layer passes");
  Args.addPositional("command", "gen or layers");
  Args.addOption("workload",
                 "text-grouped, text-interleaved, limb-v2 or monitor-stream",
                 "text-grouped");
  Args.addOption("seed", "generator seed", "1");
  Args.addOption("events", "approximate event count of the trace", "4000000");
  Args.addOption("out", "gen: the workload's input file", "");
  Args.addOption("ref-out", "gen: write lima_analyze's expected report", "");
  Args.addOption("windows-out", "gen: write the expected window records", "");
  Args.addFlag("serve",
               "gen: time one more set-up per line read from stdin");
  Args.addOption("window", "monitor window width in seconds", "0.001");
  Args.addOption("input", "layers: the workload's input file", "");
  Args.addOption("seconds", "layers: measuring budget", "5");
  Args.addOption("chrome-out", "layers: write the spans as a Chrome trace",
                 "");
  Args.addOption("output-out",
                 "layers: write the report or window records the passes "
                 "rendered",
                 "");
  ExitOnErr(Args.parse(Argc, Argv));

  std::optional<Workload> W = parseWorkload(Args.getString("workload"));
  if (!W)
    ExitOnErr(makeStringError("unknown workload '%s'",
                              Args.getString("workload").c_str()));
  const std::string &Command = Args.getPositionals()[0];
  if (Command == "gen")
    ExitOnErr(runGen(Args, *W));
  else if (Command == "layers")
    ExitOnErr(runLayers(Args, *W));
  else
    ExitOnErr(makeStringError("unknown command '%s'", Command.c_str()));
  return 0;
}
