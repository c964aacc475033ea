//===- support/Telemetry.h - Self-instrumentation layer --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LIMA's self-instrumentation layer: RAII spans, monotonic counters and
/// pipeline-stage scopes with near-zero cost when disabled.  The paper
/// asks performance tools to automate what expert programmers do when
/// tuning parallel programs; LIMA is itself a parallel program, so this
/// layer records where its own analysis time goes and feeds the result
/// back through LIMA's own dispersion indices (core/SelfProfile.h).
///
/// Cost model (see DESIGN.md, "Observability"):
///
///  - Compile-time switch: building with -DLIMA_TELEMETRY=0 compiles the
///    LIMA_SPAN / LIMA_STAGE / LIMA_COUNTER_ADD macros to nothing — no
///    clock reads, no branches, no storage.
///  - Runtime switch: telemetry is off by default; a disabled span costs
///    one relaxed atomic load, performs no allocation and records no
///    event.
///  - Enabled hot path: each thread appends closed spans to its own
///    buffer, so recording never contends on a shared lock (the only
///    contention is with an explicit collect(), which drains buffers).
///
/// Span events carry the worker id of the recording thread (0 = the
/// calling/orchestrating thread, pool workers are 1..N) and the pipeline
/// stage that was current when the span began, so per-stage, per-worker
/// busy time falls out of a single flat event stream.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_SUPPORT_TELEMETRY_H
#define LIMA_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// Compile-time switch; the build defines LIMA_TELEMETRY=0 to compile
/// the instrumentation out entirely (CMake option LIMA_TELEMETRY=OFF).
#ifndef LIMA_TELEMETRY
#define LIMA_TELEMETRY 1
#endif

namespace lima {
namespace telemetry {

/// Sentinel for "no interned name" (events outside any stage).
constexpr uint32_t InvalidName = 0xffffffffu;

/// One closed span, drained from a per-thread buffer by collect().
struct SpanEvent {
  uint32_t Name;        ///< Interned span name.
  uint32_t Stage;       ///< Stage current at begin; InvalidName if none.
  uint32_t Worker;      ///< Recording thread's worker id (0 = caller).
  uint64_t StartNs;     ///< Nanoseconds since the session epoch.
  uint64_t DurNs;       ///< Wall-clock duration.
  uint64_t QueueWaitNs; ///< Pool tasks: submit-to-start latency, else 0.
};

//===----------------------------------------------------------------------===//
// Runtime control
//===----------------------------------------------------------------------===//

namespace detail {
extern std::atomic<bool> Enabled;
} // namespace detail

/// True when recording is enabled at runtime (always false when compiled
/// out).  One relaxed load — this is the disabled-mode hot-path cost.
inline bool enabled() {
#if LIMA_TELEMETRY
  return detail::Enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

/// Enables or disables recording.  Enabling (re)anchors nothing by
/// itself; call reset() first for a fresh session epoch.  A no-op when
/// telemetry is compiled out.
void setEnabled(bool On);

/// Discards every buffered event, zeroes all counters and stage records,
/// and restarts the session epoch.  Not thread-safe against concurrent
/// recording — call it between parallel sections (tests, tool startup).
void reset();

/// Nanoseconds since the session epoch (steady clock).
uint64_t nowNs();

//===----------------------------------------------------------------------===//
// Names, workers and stages
//===----------------------------------------------------------------------===//

/// Interns \p Name, returning a stable dense id.  Cheap, but call sites
/// should still cache the id (the macros below do so in a static).
uint32_t internName(std::string_view Name);

/// The current thread's worker id (0 unless setWorkerId was called).
unsigned workerId();

/// Tags the current thread with \p Worker; pool workers use index + 1 so
/// 0 always denotes the calling/orchestrating thread.
void setWorkerId(unsigned Worker);

/// Largest worker id ever tagged plus one — the processor-dimension
/// extent of the self-profile cube.
unsigned numWorkers();

/// The interned id of the pipeline stage currently open (InvalidName if
/// none).  Stages are process-global: LIMA's pipeline stages are
/// sequential on the orchestrating thread, and pool tasks capture the
/// stage at submit time.
uint32_t currentStage();

/// Records one task execution on behalf of the thread-pool layer:
/// \p RunNs of busy time after \p WaitNs in the queue, attributed to
/// \p Stage and the recording thread's worker id.
void recordTask(uint32_t Stage, uint64_t StartNs, uint64_t RunNs,
                uint64_t WaitNs);

/// Records a closed span (used by the Span RAII class).
void recordSpan(uint32_t Name, uint32_t Stage, uint64_t StartNs,
                uint64_t DurNs);

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

/// A named monotonic counter.  add() is a relaxed atomic increment and
/// is safe from any thread; counters are registered once and live for
/// the process.
class Counter {
public:
  explicit Counter(std::string Name) : Name_(std::move(Name)) {}

  void add(uint64_t Amount) {
    Value_.fetch_add(Amount, std::memory_order_relaxed);
  }
  uint64_t value() const { return Value_.load(std::memory_order_relaxed); }
  const std::string &name() const { return Name_; }

  /// Used by reset(); not safe against concurrent add().
  void zero() { Value_.store(0, std::memory_order_relaxed); }

private:
  std::string Name_;
  std::atomic<uint64_t> Value_{0};
};

/// Returns the process-wide counter registered under \p Name, creating
/// it on first use.  The reference stays valid for the process lifetime.
Counter &counter(std::string_view Name);

//===----------------------------------------------------------------------===//
// Aggregated snapshot
//===----------------------------------------------------------------------===//

/// Aggregate statistics for one span name.
struct SpanStats {
  std::string Name;
  uint64_t Count = 0;
  double TotalMs = 0.0;
  double MinMs = 0.0;
  double MaxMs = 0.0;
  double MeanMs = 0.0;
  /// Busy milliseconds per worker id (size = Snapshot::NumWorkers).
  std::vector<double> WorkerBusyMs;
};

/// One pipeline stage: its wall time on the orchestrating thread plus
/// the per-worker task work performed inside it.
struct StageStats {
  std::string Name;
  uint64_t StartNs = 0;
  double WallMs = 0.0;
  /// Busy milliseconds per worker id: the interval union of every task
  /// and span the worker recorded inside the stage (nested spans do not
  /// double-count).
  std::vector<double> WorkerComputeMs;
  /// Task queue-wait milliseconds per worker id.
  std::vector<double> WorkerQueueWaitMs;
};

/// A final counter reading.
struct CounterValue {
  std::string Name;
  uint64_t Value = 0;
};

/// The process's own account at collect() (getrusage(RUSAGE_SELF)):
/// what the spans cannot see, such as page faults and kernel time.
struct ProcessUsage {
  double UserCpuMs = 0.0;
  double SystemCpuMs = 0.0;
  uint64_t MinorFaults = 0;
  uint64_t MajorFaults = 0;
  uint64_t VoluntarySwitches = 0;
  uint64_t InvoluntarySwitches = 0;
  uint64_t MaxRssKb = 0;
};

/// Everything collect() drains and aggregates.  Names[] resolves the
/// interned ids carried by Events.
struct Snapshot {
  unsigned NumWorkers = 1;
  /// Largest event/stage end time — the session wall clock in ms.
  double SessionWallMs = 0.0;
  /// All drained events, sorted by (StartNs, Worker, Name).
  std::vector<SpanEvent> Events;
  /// Per-name aggregates, ordered by descending TotalMs.
  std::vector<SpanStats> Spans;
  /// Stages in begin order (duplicate names merged into one entry).
  std::vector<StageStats> Stages;
  /// Non-zero counters, ordered by name.
  std::vector<CounterValue> Counters;
  /// Interned-name table (index == id).
  std::vector<std::string> Names;
  /// The whole process up to the collect() that ends the session.
  ProcessUsage Process;

  const std::string &nameOf(uint32_t Id) const {
    static const std::string None = "(none)";
    return Id < Names.size() ? Names[Id] : None;
  }
};

/// Drains every per-thread buffer and aggregates the result.  Draining
/// is destructive: a second collect() sees only events recorded after
/// the first.  Safe to call while recording is disabled.
Snapshot collect();

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//
//
// A bounded, lock-free ring of the most recent closed spans, kept for
// post-mortem debugging: /debug/spans serves it live and the crash-dump
// path (support/CrashDump.h) write()s it from a signal handler.  Writers
// claim a slot with one fetch_add and fill it with relaxed atomic
// stores; a per-slot sequence word lets readers detect and discard
// slots torn by a concurrent writer, so snapshots are consistent
// without ever blocking the recording path.

/// Turns the flight recorder on with capacity \p Capacity (rounded up
/// to a power of two; 0 turns it off).  Spans recorded while telemetry
/// is enabled are mirrored into the ring.  Reconfiguring keeps old
/// rings alive until process exit so racing writers never touch freed
/// memory.
void enableFlightRecorder(size_t Capacity);

/// True when a ring is installed.
bool flightRecorderEnabled();

/// When on, spans and tasks go *only* to the flight ring, skipping the
/// per-thread collect() buffers.  This is the long-lived-daemon mode
/// (lima_monitor --http): nobody ever drains collect(), so the buffers
/// would otherwise grow without bound.
void setRingOnly(bool On);

/// Point-in-time copy of the ring.
struct FlightSnapshot {
  /// Retained events, oldest first (by claim order).
  std::vector<SpanEvent> Events;
  /// Interned-name table (index == id) at snapshot time.
  std::vector<std::string> Names;
  /// Spans recorded into the ring since it was installed — events
  /// beyond Events.size() have been overwritten.
  uint64_t TotalRecorded = 0;

  const std::string &nameOf(uint32_t Id) const {
    static const std::string None = "(none)";
    return Id < Names.size() ? Names[Id] : None;
  }
};

/// Copies the ring without disturbing it (non-destructive, unlike
/// collect()).  Slots being overwritten mid-copy are skipped.
FlightSnapshot flightSnapshot();

/// Async-signal-safe: walks the ring with plain atomic loads and
/// write(2)s one line per span to \p Fd, resolving names through a
/// fixed-size crash name table.  Only the crash-dump path should call
/// this; everything else wants flightSnapshot().
void crashWriteSpans(int Fd);

//===----------------------------------------------------------------------===//
// RAII recorders
//===----------------------------------------------------------------------===//

/// RAII span: captures the clock at construction and records one
/// SpanEvent at destruction.  When disabled at construction, both ends
/// are no-ops (no clock read).
class Span {
public:
  explicit Span(uint32_t Name) {
    if (enabled()) {
      Name_ = Name;
      Stage_ = currentStage();
      StartNs_ = nowNs();
      Active_ = true;
    }
  }
  ~Span() {
    if (Active_)
      recordSpan(Name_, Stage_, StartNs_, nowNs() - StartNs_);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  uint64_t StartNs_ = 0;
  uint32_t Name_ = 0;
  uint32_t Stage_ = InvalidName;
  bool Active_ = false;
};

/// RAII pipeline-stage scope: makes \p Name the current stage for the
/// dynamic extent (saving the previous stage, so stages may nest) and
/// records the stage's wall time into the stage table at destruction.
class ScopedStage {
public:
  explicit ScopedStage(uint32_t Name);
  ~ScopedStage();
  ScopedStage(const ScopedStage &) = delete;
  ScopedStage &operator=(const ScopedStage &) = delete;

private:
  uint64_t StartNs_ = 0;
  uint32_t Name_ = 0;
  uint32_t Prev_ = InvalidName;
  bool Active_ = false;
};

} // namespace telemetry
} // namespace lima

//===----------------------------------------------------------------------===//
// Instrumentation macros
//===----------------------------------------------------------------------===//

#define LIMA_TELEMETRY_CONCAT_IMPL(A, B) A##B
#define LIMA_TELEMETRY_CONCAT(A, B) LIMA_TELEMETRY_CONCAT_IMPL(A, B)

#if LIMA_TELEMETRY

/// Opens a RAII span named \p NameLit for the enclosing scope.
#define LIMA_SPAN(NameLit)                                                     \
  static const uint32_t LIMA_TELEMETRY_CONCAT(LimaSpanName_, __LINE__) =       \
      ::lima::telemetry::internName(NameLit);                                  \
  ::lima::telemetry::Span LIMA_TELEMETRY_CONCAT(LimaSpan_, __LINE__)(          \
      LIMA_TELEMETRY_CONCAT(LimaSpanName_, __LINE__))

/// Opens a RAII pipeline-stage scope named \p NameLit.
#define LIMA_STAGE(NameLit)                                                    \
  static const uint32_t LIMA_TELEMETRY_CONCAT(LimaStageName_, __LINE__) =      \
      ::lima::telemetry::internName(NameLit);                                  \
  ::lima::telemetry::ScopedStage LIMA_TELEMETRY_CONCAT(LimaStage_, __LINE__)(  \
      LIMA_TELEMETRY_CONCAT(LimaStageName_, __LINE__))

/// Adds \p Amount to the monotonic counter named \p NameLit (only while
/// recording is enabled, so disabled runs report zero).
#define LIMA_COUNTER_ADD(NameLit, Amount)                                      \
  do {                                                                         \
    if (::lima::telemetry::enabled()) {                                        \
      static ::lima::telemetry::Counter &LimaCounter_ =                        \
          ::lima::telemetry::counter(NameLit);                                 \
      LimaCounter_.add(Amount);                                                \
    }                                                                          \
  } while (false)

#else

#define LIMA_SPAN(NameLit) ((void)0)
#define LIMA_STAGE(NameLit) ((void)0)
#define LIMA_COUNTER_ADD(NameLit, Amount) ((void)0)

#endif // LIMA_TELEMETRY

#endif // LIMA_SUPPORT_TELEMETRY_H
