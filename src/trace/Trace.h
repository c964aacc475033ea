//===- trace/Trace.h - Trace container and validation -----------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Trace container: named regions and activities plus per-processor
/// event streams, with structural validation (balanced brackets, monotone
/// per-processor time, matching message endpoints) run per processor.
///
/// Events are stored struct-of-arrays: each processor's stream is four
/// parallel columns (time, kind, id, bytes) rather than a vector of
/// Event records.  Analysis passes that touch only a subset of the
/// fields (the reduction never reads Bytes, the statistics never read
/// Id except on sends) stream proportionally fewer bytes.  The two bulk
/// decoders (the sharded text parse and the indexed LIMB v2 decode)
/// size every stream once with resizeStream, which leaves the new slots
/// unwritten, and then each decoding thread writes every event straight
/// into its final slot: no per-event push_back, no merge copy, and no
/// serial zero-fill ahead of the decode, so the decoding thread's write
/// is the first touch of the column's pages.  Consumers iterate through
/// Trace::EventsRef, which materializes Event values on access, so
/// range-for loops over events(P) read exactly as before.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TRACE_H
#define LIMA_TRACE_TRACE_H

#include "support/Error.h"
#include "trace/Event.h"
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lima {
namespace trace {

/// A complete post-mortem trace of one program execution.
///
/// Events are kept per processor in append order, which validation checks
/// is non-decreasing in time.  Region and activity ids index the name
/// tables registered up front.
class Trace {
  /// One event column: a growable array whose resize leaves the new
  /// elements unwritten (std::vector would zero-fill them), so the
  /// decoder's write is their first touch.  Every element type is
  /// trivially copyable, so growth and copies are one memcpy.
  template <typename T> class Column {
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    Column() = default;
    Column(const Column &O) {
      reallocate(O.Size);
      if (O.Size != 0)
        std::memcpy(Data.get(), O.Data.get(), O.Size * sizeof(T));
      Size = O.Size;
    }
    Column(Column &&O) noexcept
        : Data(std::move(O.Data)), Size(std::exchange(O.Size, 0)),
          Cap(std::exchange(O.Cap, 0)) {}
    Column &operator=(Column O) noexcept {
      std::swap(Data, O.Data);
      std::swap(Size, O.Size);
      std::swap(Cap, O.Cap);
      return *this;
    }

    size_t size() const { return Size; }
    T *data() { return Data.get(); }
    const T *data() const { return Data.get(); }
    const T &operator[](size_t I) const { return Data[I]; }

    void push_back(T Value) {
      if (Size == Cap)
        reallocate(std::max<size_t>(2 * Cap, 16));
      Data[Size++] = Value;
    }

    /// Sets the size to \p N.  Growing leaves [old size, N) unwritten;
    /// shrinking only lowers the size.
    void resize(size_t N) {
      if (N > Cap)
        reallocate(N);
      Size = N;
    }

  private:
    void reallocate(size_t NewCap) {
      if (NewCap == 0)
        return;
      std::unique_ptr<T[]> New = std::make_unique_for_overwrite<T[]>(NewCap);
      if (Size != 0)
        std::memcpy(New.get(), Data.get(), Size * sizeof(T));
      Data = std::move(New);
      Cap = NewCap;
    }

    std::unique_ptr<T[]> Data;
    size_t Size = 0;
    size_t Cap = 0;
  };

  /// One processor's event stream, columnar.
  struct Stream {
    Column<double> Times;
    Column<EventKind> Kinds;
    Column<uint32_t> Ids;
    Column<uint64_t> Bytes;

    size_t size() const { return Times.size(); }
    void resize(size_t N) {
      Times.resize(N);
      Kinds.resize(N);
      Ids.resize(N);
      Bytes.resize(N);
    }
  };

public:
  /// Random-access view of one processor's events.  Dereferencing
  /// materializes an Event value from the columns; the view is
  /// invalidated by any mutation of the stream it refers to.
  class EventsRef {
  public:
    Event operator[](size_t I) const {
      return {S->Times[I], Proc, S->Kinds[I], S->Ids[I], S->Bytes[I]};
    }
    size_t size() const { return S->size(); }
    bool empty() const { return S->size() == 0; }
    Event front() const { return (*this)[0]; }
    Event back() const { return (*this)[S->size() - 1]; }

    /// Direct column access for bandwidth-sensitive passes that only
    /// touch a subset of the event fields.
    const double *times() const { return S->Times.data(); }
    const EventKind *kinds() const { return S->Kinds.data(); }
    const uint32_t *ids() const { return S->Ids.data(); }
    const uint64_t *bytes() const { return S->Bytes.data(); }

    class iterator {
    public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Event;
      using difference_type = std::ptrdiff_t;
      using pointer = const Event *;
      using reference = Event;

      iterator() = default;
      iterator(const EventsRef *Ref, size_t I) : Ref(Ref), I(I) {}
      Event operator*() const { return (*Ref)[I]; }
      iterator &operator++() {
        ++I;
        return *this;
      }
      iterator operator++(int) {
        iterator Old = *this;
        ++I;
        return Old;
      }
      bool operator==(const iterator &O) const { return I == O.I; }
      bool operator!=(const iterator &O) const { return I != O.I; }

    private:
      const EventsRef *Ref = nullptr;
      size_t I = 0;
    };

    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, S->size()); }

  private:
    friend class Trace;
    EventsRef(const Stream *S, uint32_t Proc) : S(S), Proc(Proc) {}
    const Stream *S;
    uint32_t Proc;
  };

  /// Mutable raw columns of one processor's stream, for bulk decoders
  /// that pre-size with resizeStream and write events in place.  The
  /// writer is responsible for range-validating ids (append's asserts
  /// are bypassed), and it must write every slot resizeStream added or
  /// cut the unwritten ones off: until written, a slot holds no defined
  /// value.  Slots left behind by dropped records are closed up by
  /// sliding the later events down, then truncateStream.
  struct StreamColumns {
    double *Times;
    EventKind *Kinds;
    uint32_t *Ids;
    uint64_t *Bytes;

    /// Moves the \p N events at slot \p From down to slot \p To.
    void slide(uint64_t To, uint64_t From, uint64_t N) const {
      if (N == 0 || To == From)
        return;
      std::memmove(Times + To, Times + From, N * sizeof(*Times));
      std::memmove(Kinds + To, Kinds + From, N * sizeof(*Kinds));
      std::memmove(Ids + To, Ids + From, N * sizeof(*Ids));
      std::memmove(Bytes + To, Bytes + From, N * sizeof(*Bytes));
    }
  };

  /// Creates a trace for \p NumProcs processors.
  explicit Trace(unsigned NumProcs);

  unsigned numProcs() const { return static_cast<unsigned>(Streams.size()); }

  /// Registers a region name, returning its id.  Names must be unique.
  uint32_t addRegion(std::string Name);

  /// Registers an activity name, returning its id.  Names must be unique.
  uint32_t addActivity(std::string Name);

  size_t numRegions() const { return RegionNames.size(); }
  size_t numActivities() const { return ActivityNames.size(); }

  const std::string &regionName(uint32_t Id) const;
  const std::string &activityName(uint32_t Id) const;
  const std::vector<std::string> &regionNames() const { return RegionNames; }
  const std::vector<std::string> &activityNames() const {
    return ActivityNames;
  }

  /// What findRegion and findActivity return for an absent name.
  static constexpr uint32_t InvalidId = UINT32_MAX;

  /// How far an event may step back behind its processor's latest
  /// earlier event before validate calls it out of order.
  static constexpr double BackwardTimeTolerance = 1e-12;
  uint32_t findRegion(std::string_view Name) const;
  uint32_t findActivity(std::string_view Name) const;

  /// Appends \p E to its processor's stream.  Asserts on out-of-range
  /// processor/region/activity ids.
  void append(const Event &E);

  /// Events of processor \p Proc in append order.
  EventsRef events(unsigned Proc) const;

  /// Pre-sizes processor \p Proc's stream to exactly \p N events so a
  /// bulk decoder can fill the columns in place via streamColumns.
  /// Existing events are kept for indices below \p N; slots past the
  /// old size are left unwritten (see StreamColumns for the decoder's
  /// duty).  Only the bulk decoders call this.
  void resizeStream(unsigned Proc, size_t N);

  /// Shrinks processor \p Proc's stream to its first \p N events (used
  /// after a lenient bulk decode dropped records out of a pre-sized
  /// stream).
  void truncateStream(unsigned Proc, size_t N);

  /// Mutable columns of processor \p Proc's stream.  Pointers are
  /// invalidated by append/resizeStream/truncateStream.
  StreamColumns streamColumns(unsigned Proc);

  /// Total number of events across all processors.
  size_t numEvents() const;

  /// Structural validation: the strict trace::foldTrace walk
  /// (trace/Fold.h) with a sink that hears nothing.  It checks that times
  /// are finite, non-negative and in order (up to BackwardTimeTolerance),
  /// region nesting and activity brackets; nothing left open at the end
  /// of a stream; and every MessageSend matched by a MessageRecv on the
  /// peer with the same byte count, and vice versa.  Every strict
  /// analysis makes the same walk with its own sink, so none needs this
  /// first.
  ///
  /// Processors are checked concurrently on \p Threads threads (0 = all
  /// hardware threads, 1 = serially on the calling thread).  The error is
  /// the same at every thread count: the first structural error of the
  /// lowest-numbered failing processor, else the unmatched message with
  /// the smallest (sender, receiver, bytes).
  Error validate(unsigned Threads = 1) const;

private:
  /// Hashes names for lookup by std::string_view without a copy.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view Name) const {
      return std::hash<std::string_view>()(Name);
    }
  };
  /// Each registered name's id, so registering or finding a name costs
  /// O(1) however many there are.
  using NameIndex =
      std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>;

  std::vector<std::string> RegionNames;
  std::vector<std::string> ActivityNames;
  NameIndex RegionIds;
  NameIndex ActivityIds;
  std::vector<Stream> Streams;
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TRACE_H
