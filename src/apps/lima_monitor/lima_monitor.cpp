//===- apps/lima_monitor/lima_monitor.cpp - live imbalance monitor --------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Tails a LIMATRACE text stream — a file being appended to, or stdin —
// and turns the paper's post-mortem methodology into a rolling health
// signal: the event stream is cut into fixed-width time windows, each
// window's measurement cube is reduced incrementally, and the
// per-window dispersion indices (SID_C per region, SID_A per activity,
// ID_P per processor) are logged as they complete.  Regions whose
// scaled index crosses --alert-threshold raise warnings, and the whole
// run exports its metrics in Prometheus text exposition format
// (--metrics-out, or SIGUSR1 for an on-demand dump).
//
//   lima_monitor run.trace --window 0.5 --follow
//   cfd_sim | lima_monitor - --window 1 --log-json --metrics-out m.prom
//
// The monitor is built to outlive the trace file's lifecycle.  While
// following it detects rotation (new inode at the path) and in-place
// truncation (copytruncate), finishes the old segment's windows and
// keeps going on the new one; window numbering stays monotonic across
// segments.  --checkpoint persists that numbering durably so a
// restarted monitor replays the file without re-reporting windows it
// already emitted.  Transient I/O trouble — EINTR, ENOSPC on a metrics
// or checkpoint dump, a rotation race — degrades to a warning and a
// retry, never an exit.
//
// Two stages run on two threads.  The reading stage (StreamReader)
// reads, follows the file and parses; the fold stage, on the main
// thread, adds the events to the windowed analyzer and reports, dumps
// and checkpoints.  Everything the reader produces reaches the fold in
// stream order, so the output is what one thread doing both would
// write.
//
//===----------------------------------------------------------------------===//

#include "core/Dashboard.h"
#include "core/WindowHistory.h"
#include "core/WindowedAnalysis.h"
#include "stats/Dispersion.h"
#include "support/CommandLine.h"
#include "support/CrashDump.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/MetricsExport.h"
#include "support/ProcessMetrics.h"
#include "support/Retry.h"
#include "support/StatusServer.h"
#include "support/Telemetry.h"
#include "support/Version.h"
#include "support/raw_ostream.h"
#include "trace/StreamParser.h"
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <optional>
#include <poll.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <variant>

using namespace lima;

namespace {

// Set by handlers that run on the reading thread only, and read there.
volatile std::sig_atomic_t DumpRequested = 0;
volatile std::sig_atomic_t StopRequested = 0;

void onSigUsr1(int) { DumpRequested = 1; }
void onStopSignal(int) { StopRequested = 1; }

/// SIGUSR1 (metrics dump), SIGTERM and SIGINT (stop): the signals only
/// the reading thread takes.
sigset_t readerSignals() {
  sigset_t Set;
  sigemptyset(&Set);
  sigaddset(&Set, SIGUSR1);
  sigaddset(&Set, SIGTERM);
  sigaddset(&Set, SIGINT);
  return Set;
}

struct MonitorOptions {
  double AlertThreshold = 0.0; ///< 0 disables alerting.
  bool PerRegion = false;
  std::string MetricsOut;
  /// Non-null with --http: retained summaries for /api/windows and the
  /// SSE fan-out for /events.
  std::shared_ptr<core::WindowHistory> History;
  std::shared_ptr<http::StreamHub> Events;
};

/// The per-region SID_C and per-activity SID_A gauges of the current
/// file segment, looked up once on its first reported window (a new
/// segment may declare other names).
struct WindowGauges {
  std::vector<metrics::Gauge *> SidC;
  std::vector<metrics::Gauge *> SidA;
};

/// Emits one completed window: a structured log record, per-region
/// gauge updates, history retention, SSE fan-out and alert checks.
/// \p DroppedDelta is the lenient-mode drop count observed since the
/// previous drain, attributed to this window.
void reportWindow(const core::WindowResult &W, const MonitorOptions &Opts,
                  WindowGauges &Gauges, uint64_t DroppedDelta) {
  static metrics::Counter &WindowsTotal =
      metrics::counter("lima.monitor.windows_total");
  WindowsTotal.add(1);

  if (Opts.History) {
    core::WindowSummary S = core::WindowHistory::summarize(W, DroppedDelta);
    Opts.History->setNames(W.Cube.regionNames(), W.Cube.activityNames());
    Opts.History->append(S);
    if (Opts.Events)
      Opts.Events->publish(core::dash::sseWindowFrame(
          S, W.Cube.regionNames(), W.Cube.activityNames()));
  }

  if (W.Empty) {
    logging::debug("window empty", {logging::field("window", W.Index),
                                    logging::field("start", W.StartTime),
                                    logging::field("end", W.EndTime)});
    return;
  }

  size_t TopRegion = W.Regions.MostImbalancedScaled;
  size_t TopActivity = W.Activities.MostImbalancedScaled;
  logging::info(
      "window",
      {logging::field("window", W.Index),
       logging::field("start", W.StartTime),
       logging::field("end", W.EndTime),
       logging::field("events", W.Events),
       logging::field("top_region", W.Cube.regionName(TopRegion)),
       logging::field("sid_c", W.Regions.ScaledIndex[TopRegion]),
       logging::field("top_activity", W.Cube.activityName(TopActivity)),
       logging::field("sid_a", W.Activities.ScaledIndex[TopActivity]),
       logging::field("most_imbalanced_proc",
                      W.Processors.MostFrequentlyImbalanced)});

  if (Gauges.SidC.empty()) {
    for (const std::string &Region : W.Cube.regionNames())
      Gauges.SidC.push_back(&metrics::gauge(
          "lima.window.sid_c{region=\"" + metrics::escapeLabelValue(Region) +
          "\"}"));
    for (const std::string &Activity : W.Cube.activityNames())
      Gauges.SidA.push_back(&metrics::gauge(
          "lima.window.sid_a{activity=\"" +
          metrics::escapeLabelValue(Activity) + "\"}"));
  }
  for (size_t I = 0; I != W.Regions.ScaledIndex.size(); ++I) {
    double SidC = W.Regions.ScaledIndex[I];
    Gauges.SidC[I]->set(SidC);
    if (Opts.PerRegion)
      logging::info("region", {logging::field("window", W.Index),
                               logging::field("region", W.Cube.regionName(I)),
                               logging::field("id_c", W.Regions.Index[I]),
                               logging::field("sid_c", SidC)});
    if (Opts.AlertThreshold > 0.0 && SidC > Opts.AlertThreshold) {
      metrics::counter("lima.monitor.alerts_total").add(1);
      logging::warn("imbalance alert",
                    {logging::field("window", W.Index),
                     logging::field("region", W.Cube.regionName(I)),
                     logging::field("sid_c", SidC),
                     logging::field("threshold", Opts.AlertThreshold)});
      if (Opts.Events)
        Opts.Events->publish(core::dash::sseAlertFrame(
            W.Index, I, W.Cube.regionName(I), SidC, Opts.AlertThreshold));
    }
  }
  for (size_t J = 0; J != W.Activities.ScaledIndex.size(); ++J)
    Gauges.SidA[J]->set(W.Activities.ScaledIndex[J]);
}

/// Writes the Prometheus exposition to \p MetricsOut, or to stderr when
/// it is empty.
void dumpMetrics(const std::string &MetricsOut) {
  // Keep the process.* self-metrics as fresh in file dumps as the
  // /metrics endpoint keeps them per scrape.
  metrics::sampleProcessMetrics();
  if (MetricsOut.empty()) {
    errs() << metrics::writePrometheusText();
    errs().flush();
    return;
  }
  // A full disk (ENOSPC) is the classic way a long-lived monitor dies;
  // instead the dump backs off, retries, and on exhaustion logs and
  // carries on — the next dump gets another chance.
  Error Err = retry::withBackoff(
      retry::BackoffPolicy{}, "monitor.metrics_dump",
      [&] { return metrics::writeMetricsFile(MetricsOut); });
  if (Err)
    logging::error("metrics write failed",
                   {logging::field("path", MetricsOut),
                    logging::field("error", Err.message())});
}

//===----------------------------------------------------------------------===//
// The hand-off from the reading stage to the fold stage
//===----------------------------------------------------------------------===//

/// A segment's header tables, which size its WindowedAnalyzer.
struct SegmentHeader {
  std::vector<std::string> Regions;
  std::vector<std::string> Activities;
  unsigned Procs = 0;
};

/// The events of one StreamParser::feed or finish call.
struct Parsed {
  std::vector<trace::Event> Events;
  /// Lenient-mode lines the parser dropped so far, over all segments.
  uint64_t ParserDrops = 0;
  /// On the segment's first batch with events: the header as parsed by
  /// the end of that batch.
  std::optional<SegmentHeader> Header;
};

/// A record the reading stage logs.  The fold stage emits it, so that
/// it lands between the same window records as on one thread.
struct Notice {
  logging::Level Level;
  std::string Msg;
  std::vector<logging::Field> Fields;
};

/// The followed file was rotated ("rotate") or truncated ("truncate"):
/// the segment's windows are all due, and the next batch starts a new
/// segment with its own header and its own t = 0.
struct SegmentEnd {
  const char *Reason;
};

/// The last step: the stream ended (EOF, idle exit or a stop signal),
/// or the reading stage failed with Failure.
struct StreamEnd {
  std::optional<ParseError> Failure;
  /// The parser's lenient-mode report, over all segments.
  ParseReport Report;
  uint64_t EventsParsed = 0;
};

using Step = std::variant<Parsed, Notice, SegmentEnd, StreamEnd>;

/// Bytes per read() of the input.
constexpr size_t ChunkBytes = 1 << 16;
/// Events one chunk can hold: an event line takes at least 8 bytes, so
/// a batch's storage never regrows.  Pages are touched only as events
/// fill them.
constexpr size_t BatchCapacity = ChunkBytes / 8;

/// The input, how to follow it, and where SIGUSR1 dumps the metrics.
struct Source {
  std::string Path;
  int Fd = 0; ///< Open on Path, or stdin; the reader owns it.
  bool Stdin = false;
  bool Follow = false;
  uint64_t IntervalMs = 0;
  uint64_t IdleExitMs = 0;
  ParseMode Mode = ParseMode::Strict;
  std::string MetricsOut;
};

/// The reading stage.  Its thread owns the descriptor, the follow,
/// rotation and truncation loop and the StreamParser, and it is the
/// only thread that takes readerSignals(): it dumps the metrics and
/// stops the stream.  It hands its steps to the fold stage through a
/// slot that holds one waiting step, so the reader parses the next
/// 64 KiB while the fold works on the last.  That bounds the batches
/// in memory at three, about 100 KB each; a deeper queue would only add
/// resident batches.  Event storage comes back through recycle(), so
/// the stream allocates no batch after its first three.
class StreamReader {
public:
  explicit StreamReader(Source Src) : Src(std::move(Src)) {}
  ~StreamReader();
  StreamReader(const StreamReader &) = delete;
  StreamReader &operator=(const StreamReader &) = delete;

  /// Starts the reading thread.
  Error start();
  /// The next step in stream order; blocks until the reader has one.
  Step next();
  /// Returns a consumed batch's storage for the reader to refill.
  void recycle(std::vector<trace::Event> Events);
  /// Stops the reading thread wherever it waits, and joins it.
  void stop();

private:
  void run();
  void readLoop(int &Fd);
  ssize_t readInput(int Fd, char *Buf, size_t Size);
  bool push(Step S);
  std::vector<trace::Event> storage();
  void pause(uint64_t Ms);

  const Source Src;
  std::mutex M;
  std::condition_variable Changed;
  std::optional<Step> Waiting;                  ///< Guarded by M.
  std::vector<std::vector<trace::Event>> Spare; ///< Guarded by M.
  bool Cancelled = false;                       ///< Guarded by M.
  /// stop() writes to Wake[1] to end a poll() on the input.
  int Wake[2] = {-1, -1};
  std::thread Thread;
};

StreamReader::~StreamReader() {
  stop();
  for (int Fd : Wake)
    if (Fd >= 0)
      ::close(Fd);
}

Error StreamReader::start() {
  if (::pipe2(Wake, O_CLOEXEC) != 0)
    return makeStringError("cannot create a pipe: %s", std::strerror(errno));
  Thread = std::thread([this] { run(); });
  return Error::success();
}

/// Blocks on Changed until \p Ready holds, adding the microseconds it
/// waited, if any, to \p Waited.
template <typename Pred>
void waitCounted(std::condition_variable &Changed,
                 std::unique_lock<std::mutex> &Lock, metrics::Counter &Waited,
                 Pred Ready) {
  if (Ready())
    return;
  auto T0 = std::chrono::steady_clock::now();
  Changed.wait(Lock, Ready);
  Waited.add(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count()));
}

Step StreamReader::next() {
  // The fold stage idle: the reader is the slower stage, or the input
  // is.
  static metrics::Counter &FoldWaiting =
      metrics::counter("lima.monitor.fold_waiting_us_total");
  std::unique_lock<std::mutex> Lock(M);
  waitCounted(Changed, Lock, FoldWaiting,
              [&] { return Waiting.has_value(); });
  Step S = std::move(*Waiting);
  Waiting.reset();
  Changed.notify_all();
  return S;
}

void StreamReader::recycle(std::vector<trace::Event> Events) {
  Events.clear();
  std::lock_guard<std::mutex> Lock(M);
  Spare.push_back(std::move(Events));
}

void StreamReader::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Cancelled = true;
  }
  Changed.notify_all();
  char Byte = 0;
  if (Wake[1] >= 0 && ::write(Wake[1], &Byte, 1) < 0) {
    // The pipe already holds a wake-up.
  }
  if (Thread.joinable())
    Thread.join();
}

bool StreamReader::push(Step S) {
  // The reader blocked on a full slot: the fold is the slower stage.
  static metrics::Counter &ReaderBlocked =
      metrics::counter("lima.monitor.reader_blocked_us_total");
  std::unique_lock<std::mutex> Lock(M);
  waitCounted(Changed, Lock, ReaderBlocked,
              [&] { return !Waiting || Cancelled; });
  if (Cancelled)
    return false;
  Waiting.emplace(std::move(S));
  Changed.notify_all();
  return true;
}

std::vector<trace::Event> StreamReader::storage() {
  std::vector<trace::Event> Events;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Spare.empty()) {
      Events = std::move(Spare.back());
      Spare.pop_back();
      return Events;
    }
  }
  Events.reserve(BatchCapacity);
  return Events;
}

void StreamReader::pause(uint64_t Ms) {
  std::unique_lock<std::mutex> Lock(M);
  Changed.wait_for(Lock, std::chrono::milliseconds(Ms),
                   [&] { return Cancelled; });
}

/// One read of \p Fd.  The wait for input happens in poll(), which a
/// handled signal always interrupts (EINTR) and stop() ends through the
/// wake pipe (ECANCELED).
ssize_t StreamReader::readInput(int Fd, char *Buf, size_t Size) {
  pollfd Fds[2] = {{Fd, POLLIN, 0}, {Wake[0], POLLIN, 0}};
  if (::poll(Fds, 2, -1) < 0)
    return -1;
  if (Fds[1].revents != 0) {
    errno = ECANCELED;
    return -1;
  }
  return fault::read("monitor.read", Fd, Buf, Size);
}

void StreamReader::run() {
  sigset_t Signals = readerSignals();
  ::pthread_sigmask(SIG_UNBLOCK, &Signals, nullptr);
  int Fd = Src.Fd;
  readLoop(Fd);
  if (!Src.Stdin)
    ::close(Fd);
}

void StreamReader::readLoop(int &Fd) {
  // The parser's own report: the fold keeps another for its analyzer,
  // and the two meet only in the StreamEnd step.
  ParseReport Report;
  ParseOptions Parse;
  Parse.Mode = Src.Mode;
  Parse.Report = Src.Mode == ParseMode::Lenient ? &Report : nullptr;
  std::optional<trace::StreamParser> Stream;
  Stream.emplace(Parse);
  bool HeaderSent = false;
  // Events parsed by segments already finished (rotated away).
  uint64_t EventsParsedPrior = 0;

  dev_t OpenDev = 0;
  ino_t OpenIno = 0;
  struct stat St;
  if (!Src.Stdin && ::fstat(Fd, &St) == 0) {
    OpenDev = St.st_dev;
    OpenIno = St.st_ino;
  }
  uint64_t Consumed = 0; ///< Bytes read from the current descriptor.
  uint64_t IdleMs = 0;

  auto fail = [&](Error Err) { push(StreamEnd{Err.toParseError(), {}, 0}); };
  // Hands one feed() or finish() result to the fold: its events, or the
  // error that ends the stream.  False when the stream is over.
  auto parsed = [&](Error Err, std::vector<trace::Event> Events) {
    if (Err) {
      fail(std::move(Err));
      return false;
    }
    Parsed Batch{std::move(Events), Report.DroppedRecords, std::nullopt};
    if (!HeaderSent && !Batch.Events.empty()) {
      Batch.Header = SegmentHeader{Stream->regionNames(),
                                   Stream->activityNames(), Stream->numProcs()};
      HeaderSent = true;
    }
    return push(std::move(Batch));
  };
  auto finishSegment = [&] {
    std::vector<trace::Event> Events = storage();
    Error Err = Stream->finish(Events);
    return parsed(std::move(Err), std::move(Events));
  };
  // Retires the current segment (rotated away or truncated under us):
  // its trailing line, then the fold's flush; the next segment gets a
  // fresh parser.
  auto endSegment = [&](const char *Reason) {
    if (!finishSegment())
      return false;
    EventsParsedPrior += Stream->eventsParsed();
    Stream.emplace(Parse);
    HeaderSent = false;
    return push(SegmentEnd{Reason});
  };
  auto notice = [&](logging::Level Level, const char *Msg,
                    std::vector<logging::Field> Fields) {
    return push(Notice{Level, Msg, std::move(Fields)});
  };

  char Buf[ChunkBytes];
  for (;;) {
    if (DumpRequested) {
      DumpRequested = 0;
      dumpMetrics(Src.MetricsOut);
    }
    if (StopRequested)
      break;
    // EINTR retries in place — unless a signal flagged work above, in
    // which case the loop must come back around to service it.
    ssize_t N = retry::retryEintr(
        [&] { return readInput(Fd, Buf, sizeof(Buf)); },
        [] { return DumpRequested != 0 || StopRequested != 0; });
    if (N < 0) {
      if (errno == ECANCELED)
        return;
      if (errno == EINTR)
        continue;
      if (retry::isTransientErrno(errno)) {
        if (!notice(logging::Level::Warn, "transient read error, retrying",
                    {logging::field("error", std::strerror(errno))}))
          return;
        pause(Src.IntervalMs);
        continue;
      }
      return fail(makeStringError("read failed: %s", std::strerror(errno)));
    }
    if (N == 0) {
      // EOF.  A pipe's EOF is final; a followed file may grow, be
      // rotated to a new inode, or be truncated in place.
      if (!Src.Follow || Src.Stdin)
        break;
      if (Src.IdleExitMs != 0 && IdleMs >= Src.IdleExitMs)
        break;
      struct stat PathSt;
      if (::stat(Src.Path.c_str(), &PathSt) != 0) {
        // Mid-rotation gap: the path is briefly gone.  Keep polling —
        // the retired descriptor stays valid meanwhile.
        pause(Src.IntervalMs);
        IdleMs += Src.IntervalMs;
        continue;
      }
      if (PathSt.st_dev != OpenDev || PathSt.st_ino != OpenIno) {
        // Rotated: a different file sits at the path.  Open it first —
        // only a successful open retires the old segment, so transient
        // open failures (EMFILE, another rotation race) just retry on
        // the next poll with nothing lost.
        int NewFd;
        if (fault::Fault F = fault::check("monitor.open")) {
          errno = F.errnoValue() ? F.errnoValue() : EIO;
          NewFd = -1;
        } else {
          NewFd = ::open(Src.Path.c_str(), O_RDONLY);
        }
        if (NewFd < 0) {
          if (!notice(logging::Level::Warn,
                      "reopen after rotation failed, retrying",
                      {logging::field("path", Src.Path),
                       logging::field("error", std::strerror(errno))}))
            return;
          pause(Src.IntervalMs);
          IdleMs += Src.IntervalMs;
          continue;
        }
        ::close(Fd);
        Fd = NewFd;
        if (!endSegment("rotate"))
          return;
        struct stat NewSt;
        if (::fstat(Fd, &NewSt) == 0) {
          OpenDev = NewSt.st_dev;
          OpenIno = NewSt.st_ino;
        }
        Consumed = 0;
        IdleMs = 0;
        if (!notice(logging::Level::Info, "trace rotated, following new file",
                    {logging::field("path", Src.Path)}))
          return;
        continue;
      }
      if (static_cast<uint64_t>(PathSt.st_size) < Consumed) {
        // Truncated in place (copytruncate rotation): same inode,
        // fewer bytes than we consumed.  Start over from byte 0.
        if (!endSegment("truncate"))
          return;
        if (::lseek(Fd, 0, SEEK_SET) < 0)
          return fail(makeStringError("seek after truncation failed: %s",
                                      std::strerror(errno)));
        Consumed = 0;
        IdleMs = 0;
        if (!notice(logging::Level::Info,
                    "trace truncated, restarting from start",
                    {logging::field("path", Src.Path)}))
          return;
        continue;
      }
      pause(Src.IntervalMs);
      IdleMs += Src.IntervalMs;
      continue;
    }
    IdleMs = 0;
    Consumed += static_cast<uint64_t>(N);
    std::vector<trace::Event> Events = storage();
    Error Err = [&] {
      LIMA_SPAN("monitor.feed");
      return Stream->feed(std::string_view(Buf, static_cast<size_t>(N)),
                          Events);
    }();
    if (!parsed(std::move(Err), std::move(Events)))
      return;
  }

  if (finishSegment())
    push(StreamEnd{std::nullopt, std::move(Report),
                   EventsParsedPrior + Stream->eventsParsed()});
}

} // namespace

int main(int Argc, char **Argv) {
  ExitOnError ExitOnErr("lima_monitor: ");

  for (int I = 1; I != Argc; ++I)
    if (std::strcmp(Argv[I], "--version") == 0) {
      outs() << "lima_monitor " << versionString() << '\n';
      outs().flush();
      return 0;
    }

  ArgParser Parser("lima_monitor",
                   "tails a LIMATRACE stream and reports per-window "
                   "imbalance indices live");
  Parser.addPositional("trace", "path to the trace file, or '-' for stdin");
  Parser.addOption("window", "window width in seconds", "1.0");
  Parser.addOption("index",
                   "dispersion index: euclidean, variance, cv, mad, max, "
                   "range, gini",
                   "euclidean");
  Parser.addFlag("follow",
                 "keep tailing the file after EOF (stdin always streams)");
  Parser.addOption("interval-ms", "poll cadence while following", "200");
  Parser.addOption("idle-exit-ms",
                   "with --follow: finish after this long without new "
                   "data (0 = follow forever)",
                   "0");
  Parser.addOption("alert-threshold",
                   "warn when a region's per-window SID_C exceeds this "
                   "(0 = no alerting)",
                   "0");
  Parser.addFlag("per-region", "log every region's indices per window");
  Parser.addOption("metrics-out",
                   "write Prometheus text exposition here on exit (and on "
                   "SIGUSR1); without it SIGUSR1 dumps to stderr",
                   "");
  Parser.addOption("checkpoint",
                   "persist window progress here (atomically, fsynced) "
                   "after each report; on restart the trace is replayed "
                   "without re-reporting checkpointed windows",
                   "");
  Parser.addOption("min-windows",
                   "exit nonzero unless at least this many windows were "
                   "emitted (smoke tests)",
                   "0");
  Parser.addOption("http",
                   "serve /metrics, /healthz, /readyz, /varz, /debug/spans, "
                   "/api/windows, /events and /dashboard on this address "
                   "(host:port; port 0 picks an ephemeral one, logged at "
                   "startup)",
                   "");
  Parser.addOption("history",
                   "retain the most recent N window summaries for "
                   "/api/windows and /dashboard (evictions are counted in "
                   "lima_history_evictions_total)",
                   "512");
  Parser.addOption("flight-recorder",
                   "keep the most recent N spans in a lock-free ring for "
                   "/debug/spans and crash dumps (0 disables; on by "
                   "default when --http is set)",
                   "4096");
  Parser.addOption("crash-dump",
                   "on SIGSEGV/SIGBUS/SIGABRT, write the flight recorder "
                   "and recent log records to this file before dying",
                   "");
  Parser.addFlag("strict",
                 "abort on the first malformed trace record (default)");
  Parser.addFlag("lenient",
                 "skip malformed trace records and report what was dropped");
  Parser.addFlag("quiet", "only errors (same as --log-level error)");
  Parser.addFlag("version", "print the version and exit");
  logging::addFlags(Parser);
  ExitOnErr(Parser.parse(Argc, Argv));

  // Window reports go to stdout — they are the tool's product; the
  // default stderr sink stays for nothing (errors go through ExitOnErr).
  // Repeat suppression is off for the same reason: every window record
  // matters, even though the message text repeats.
  logging::setSink(&outs());
  logging::setRepeatWindowMs(0);
  ExitOnErr(logging::configureFromFlags(Parser, Parser.getFlag("quiet")));
  metrics::setEnabled(true);

  if (Parser.getFlag("strict") && Parser.getFlag("lenient"))
    ExitOnErr(makeStringError("--strict and --lenient are mutually "
                              "exclusive"));

  double WindowSeconds = Parser.getDouble("window");
  if (!(WindowSeconds > 0.0))
    ExitOnErr(makeStringError("--window must be positive"));

  stats::DispersionKind Kind = stats::DispersionKind::Euclidean;
  {
    bool Known = false;
    for (stats::DispersionKind K : stats::AllDispersionKinds)
      if (stats::dispersionKindName(K) == Parser.getString("index")) {
        Kind = K;
        Known = true;
      }
    if (!Known)
      ExitOnErr(makeStringError("unknown dispersion index '%s'",
                                Parser.getString("index").c_str()));
  }

  MonitorOptions Monitor;
  Monitor.AlertThreshold = Parser.getDouble("alert-threshold");
  Monitor.PerRegion = Parser.getFlag("per-region");
  Monitor.MetricsOut = Parser.getString("metrics-out");

  uint64_t MinWindows = Parser.getUnsigned("min-windows");
  bool Http = !Parser.getString("http").empty();
  uint64_t HistoryCap = Parser.getUnsigned("history");
  if (HistoryCap == 0)
    ExitOnErr(makeStringError("--history must be positive"));
  if (Http) {
    Monitor.History =
        std::make_shared<core::WindowHistory>(static_cast<size_t>(HistoryCap));
    Monitor.Events = std::make_shared<http::StreamHub>();
  }

  // Crash dumps come first: everything after this line runs covered.
  if (!Parser.getString("crash-dump").empty())
    ExitOnErr(crashdump::install(Parser.getString("crash-dump")));

  // The flight recorder only earns its keep when something can read it
  // (/debug/spans or a crash dump).  Ring-only mode: nothing ever
  // drains collect() in a long-lived monitor, so the per-thread
  // buffers must not accumulate.
  uint64_t FlightCapacity = Parser.getUnsigned("flight-recorder");
  if (FlightCapacity != 0 &&
      (Http || !Parser.getString("crash-dump").empty())) {
    telemetry::enableFlightRecorder(FlightCapacity);
    telemetry::setRingOnly(true);
    telemetry::setEnabled(true);
  }

  bool Lenient = Parser.getFlag("lenient");
  Source Src;
  Src.Path = Parser.getPositionals()[0];
  Src.Stdin = Src.Path == "-";
  Src.Follow = Parser.getFlag("follow") || Src.Stdin;
  Src.IntervalMs = Parser.getUnsigned("interval-ms");
  Src.IdleExitMs = Parser.getUnsigned("idle-exit-ms");
  Src.Mode = Lenient ? ParseMode::Lenient : ParseMode::Strict;
  Src.MetricsOut = Monitor.MetricsOut;
  if (!Src.Stdin) {
    Src.Fd = ::open(Src.Path.c_str(), O_RDONLY);
    if (Src.Fd < 0)
      ExitOnErr(makeStringError("cannot open '%s': %s", Src.Path.c_str(),
                                std::strerror(errno)));
  }
  // The reading thread alone takes these signals: every other thread
  // inherits this block, so a signal interrupts the reader's wait for
  // input (a poll(), which a handler always ends with EINTR) and the
  // reader services DumpRequested promptly even on a quiet stream.
  // No SA_RESTART: a signal should end a wait of the reader's, never
  // resume it.
  sigset_t Signals = readerSignals();
  ::pthread_sigmask(SIG_BLOCK, &Signals, nullptr);
  struct sigaction DumpAction;
  std::memset(&DumpAction, 0, sizeof(DumpAction));
  DumpAction.sa_handler = onSigUsr1;
  sigemptyset(&DumpAction.sa_mask);
  DumpAction.sa_flags = 0;
  ::sigaction(SIGUSR1, &DumpAction, nullptr);

  // SIGTERM/SIGINT request a graceful wind-down: finish the current
  // read, flush pending windows, dump metrics, stop the status server
  // and exit 0 — so `kill` on a supervised monitor is a clean stop,
  // not an abort.  Same no-SA_RESTART reasoning as above.
  struct sigaction StopAction;
  std::memset(&StopAction, 0, sizeof(StopAction));
  StopAction.sa_handler = onStopSignal;
  sigemptyset(&StopAction.sa_mask);
  StopAction.sa_flags = 0;
  ::sigaction(SIGTERM, &StopAction, nullptr);
  ::sigaction(SIGINT, &StopAction, nullptr);

  std::optional<core::WindowedAnalyzer> Analyzer;
  WindowGauges Gauges;
  // The analyzer's lenient-mode report; the parser's stays with the
  // reading stage until the stream ends.
  ParseReport FoldReport;
  core::WindowedOptions WOpts;
  WOpts.WindowSeconds = WindowSeconds;
  WOpts.Views.Kind = Kind;
  WOpts.Mode = Src.Mode;
  WOpts.Report = Lenient ? &FoldReport : nullptr;

  // Atomics: the status-server thread reads these while the main
  // thread folds.
  std::atomic<uint64_t> WindowsEmitted{0};
  std::atomic<uint64_t> DroppedRecords{0};
  // Lenient-mode drops: the parser's as of the last batch, plus the
  // analyzer's.  Those already attributed to a reported window are
  // AttributedDrops; the delta since the last drain rides on each
  // batch's first window.
  uint64_t ParserDrops = 0;
  uint64_t AttributedDrops = 0;
  auto droppedSoFar = [&] { return ParserDrops + FoldReport.DroppedRecords; };

  // Windows are numbered globally and monotonically across file
  // segments: each rotation/truncation restarts the analyzer (the new
  // segment has its own t = 0), and its window k becomes global window
  // WindowIndexBase + k.  LastReported is the newest global index ever
  // reported (-1 before the first); the checkpoint persists both so a
  // restarted monitor can replay the file — reconstructing its state
  // deterministically — while suppressing the re-report of windows a
  // previous run already emitted.
  const std::string CheckpointPath = Parser.getString("checkpoint");
  uint64_t WindowIndexBase = 0;
  int64_t LastReported = -1;
  {
    struct stat CkSt;
    if (!CheckpointPath.empty() && ::stat(CheckpointPath.c_str(), &CkSt) == 0) {
      std::string Body = ExitOnErr(readFile(CheckpointPath));
      unsigned long long Base = 0, Emitted = 0;
      long long Last = 0;
      if (std::sscanf(Body.c_str(),
                      "LIMACKPT 1\nbase %llu\nreported %lld\nemitted %llu",
                      &Base, &Last, &Emitted) != 3)
        ExitOnErr(makeStringError("malformed checkpoint '%s' (delete it to "
                                  "start over)",
                                  CheckpointPath.c_str()));
      WindowIndexBase = Base;
      LastReported = Last;
      WindowsEmitted.store(Emitted, std::memory_order_relaxed);
      logging::info("checkpoint restored",
                    {logging::field("path", CheckpointPath),
                     logging::field("last_window", static_cast<int64_t>(Last)),
                     logging::field("windows",
                                    static_cast<uint64_t>(Emitted))});
    }
  }

  auto writeCheckpoint = [&] {
    if (CheckpointPath.empty())
      return;
    std::string Body =
        "LIMACKPT 1\nbase " + std::to_string(WindowIndexBase) + "\nreported " +
        std::to_string(LastReported) + "\nemitted " +
        std::to_string(WindowsEmitted.load(std::memory_order_relaxed)) + "\n";
    // Durable (temp fsync + dir fsync) and retried: a lost checkpoint
    // means double-reported windows after a restart.  Still never
    // fatal — on exhaustion the monitor warns and keeps monitoring.
    Error Err =
        retry::withBackoff(retry::BackoffPolicy{}, "monitor.checkpoint", [&] {
          return writeFileAtomic(CheckpointPath, Body, Durability::Full);
        });
    if (Err)
      logging::warn("checkpoint write failed",
                    {logging::field("path", CheckpointPath),
                     logging::field("error", Err.message())});
  };

  status::StatusServer Status;
  StreamReader Reader(std::move(Src));
  // Every failure from here on stops both threads before exiting.
  auto fail = [&](Error Err) {
    Reader.stop();
    Status.stop();
    ExitOnErr(std::move(Err));
  };

  auto consumeEvents = [&](Parsed &Batch) {
    ParserDrops = Batch.ParserDrops;
    if (!Batch.Events.empty()) {
      if (!Analyzer) {
        // The segment's first events: its header tables are complete
        // (declarations precede events in the format), size the
        // analyzer from them.
        assert(Batch.Header && "a segment's first events carry its header");
        SegmentHeader &Header = *Batch.Header;
        if (Header.Regions.empty() || Header.Activities.empty())
          fail(makeStringError("trace declares no regions or "
                               "activities; nothing to monitor"));
        Analyzer.emplace(std::move(Header.Regions),
                         std::move(Header.Activities), Header.Procs, WOpts);
      }
      LIMA_SPAN("monitor.fold");
      if (Error Err = Analyzer->addEvents(Batch.Events))
        fail(std::move(Err));
      static metrics::Counter &EventsTotal =
          metrics::counter("lima.monitor.events_total");
      EventsTotal.add(Batch.Events.size());
    }
    if (!Analyzer)
      return;
    LIMA_SPAN("monitor.drain");
    auto T0 = std::chrono::steady_clock::now();
    std::vector<core::WindowResult> Done = Analyzer->drainCompleted();
    uint64_t NowDropped = droppedSoFar();
    uint64_t DropDelta = NowDropped - AttributedDrops;
    if (!Done.empty())
      AttributedDrops = NowDropped;
    bool Reported = false;
    for (core::WindowResult &W : Done) {
      W.Index += WindowIndexBase;
      if (static_cast<int64_t>(W.Index) <= LastReported) {
        // Replaying a window a previous run already reported.
        metrics::counter("lima.monitor.windows_suppressed_total").add(1);
        continue;
      }
      reportWindow(W, Monitor, Gauges, DropDelta);
      DropDelta = 0;
      LastReported = static_cast<int64_t>(W.Index);
      ++WindowsEmitted;
      Reported = true;
    }
    if (!Done.empty()) {
      double Sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
      static metrics::Histogram &DrainSeconds = metrics::histogram(
          "lima.monitor.drain_seconds",
          metrics::Histogram::exponentialBounds(1e-6, 10.0, 8));
      DrainSeconds.observe(Sec);
    }
    metrics::gauge("lima.monitor.watermark_seconds")
        .set(Analyzer->watermark());
    DroppedRecords.store(NowDropped, std::memory_order_relaxed);
    if (Reported)
      writeCheckpoint();
  };

  // Flushes every window the current analyzer still holds (its stream
  // has ended — final EOF or a retired segment).
  auto reportRemaining = [&] {
    if (!Analyzer)
      return;
    uint64_t NowDropped = droppedSoFar();
    uint64_t DropDelta = NowDropped - AttributedDrops;
    AttributedDrops = NowDropped;
    bool Reported = false;
    for (core::WindowResult &W : Analyzer->finish()) {
      W.Index += WindowIndexBase;
      if (static_cast<int64_t>(W.Index) <= LastReported) {
        metrics::counter("lima.monitor.windows_suppressed_total").add(1);
        continue;
      }
      reportWindow(W, Monitor, Gauges, DropDelta);
      DropDelta = 0;
      LastReported = static_cast<int64_t>(W.Index);
      ++WindowsEmitted;
      Reported = true;
    }
    if (Reported)
      writeCheckpoint();
  };

  if (Http) {
    Status.addHealthProbe("stream", [] {
      return status::ProbeResult{true, "ingesting"};
    });
    Status.addReadyProbe("windows", [&WindowsEmitted, MinWindows] {
      uint64_t N = WindowsEmitted.load(std::memory_order_relaxed);
      status::ProbeResult R;
      R.Ok = N >= MinWindows;
      R.Detail = "emitted " + std::to_string(N) + " windows (min " +
                 std::to_string(MinWindows) + ")";
      return R;
    });
    Status.addVar("windows_emitted", [&WindowsEmitted] {
      return std::to_string(WindowsEmitted.load(std::memory_order_relaxed));
    });
    Status.addVar("events_total", [] {
      return std::to_string(
          metrics::counter("lima.monitor.events_total").value());
    });
    Status.addVar("dropped_records", [&DroppedRecords] {
      return std::to_string(DroppedRecords.load(std::memory_order_relaxed));
    });
    Status.addVar("history_windows", [History = Monitor.History] {
      return std::to_string(History->size());
    });
    Status.addVar("history_capacity", [History = Monitor.History] {
      return std::to_string(History->capacity());
    });
    Status.addVar("history_evictions", [History = Monitor.History] {
      return std::to_string(History->evictions());
    });
    Status.addVar("sse_subscribers", [Events = Monitor.Events] {
      return std::to_string(Events->subscribers());
    });
    Status.addVar("sse_frames_published", [Events = Monitor.Events] {
      return std::to_string(Events->framesPublished());
    });
    core::dash::mountDashboard(Status, Monitor.History, Monitor.Events);
    ExitOnErr(Status.start(Parser.getString("http")));
    // Smoke tests bind port 0 and learn the real port from this line.
    logging::info("status server listening",
                  {logging::field("address", Status.address())});
  }

  if (Error Err = Reader.start())
    fail(std::move(Err));
  StreamEnd End;
  for (;;) {
    Step S = Reader.next();
    if (auto *Batch = std::get_if<Parsed>(&S)) {
      consumeEvents(*Batch);
      Reader.recycle(std::move(Batch->Events));
    } else if (auto *N = std::get_if<Notice>(&S)) {
      logging::log(N->Level, N->Msg, std::move(N->Fields));
    } else if (auto *Segment = std::get_if<SegmentEnd>(&S)) {
      // The retired segment's windows are flushed; the analyzer
      // restarts on the next segment's header, with window numbering
      // continuing from where the old segment left off.
      reportRemaining();
      WindowIndexBase = static_cast<uint64_t>(LastReported + 1);
      Analyzer.reset();
      Gauges = {};
      metrics::counter(std::string("lima.reopen_total{reason=\"") +
                       Segment->Reason + "\"}")
          .add(1);
      // A restart from here replays the *new* file, so the checkpoint
      // must carry the new segment's base immediately.
      writeCheckpoint();
    } else {
      End = std::move(std::get<StreamEnd>(S));
      break;
    }
  }
  Reader.stop();
  if (End.Failure)
    fail(Error::fromParse(std::move(*End.Failure)));

  reportRemaining();
  writeCheckpoint();

  // The fold saw only events the parser had counted: add its drops,
  // not its records.
  ParseReport Report = std::move(End.Report);
  FoldReport.TotalRecords = 0;
  Report.merge(FoldReport);
  if (Lenient && Report.anyDropped())
    logging::warn("parse report",
                  {logging::field("dropped", Report.DroppedRecords),
                   logging::field("total", Report.TotalRecords)});

  logging::info("stream complete",
                {logging::field("windows",
                                WindowsEmitted.load(std::memory_order_relaxed)),
                 logging::field("events", End.EventsParsed),
                 logging::field("span",
                                Analyzer ? Analyzer->spanEnd() : 0.0)});
  outs().flush();

  if (!Monitor.MetricsOut.empty())
    dumpMetrics(Monitor.MetricsOut);

  // Graceful last: scrapers in flight get their response before the
  // socket goes away.
  Status.stop();

  uint64_t FinalWindows = WindowsEmitted.load(std::memory_order_relaxed);
  if (FinalWindows < MinWindows)
    ExitOnErr(makeStringError("emitted %llu windows, expected at least %llu",
                              static_cast<unsigned long long>(FinalWindows),
                              static_cast<unsigned long long>(MinWindows)));
  return 0;
}
