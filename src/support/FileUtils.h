//===- support/FileUtils.h - Whole-file I/O helpers -------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fallible whole-file read/write used by the trace and report layers,
/// and the one atomic-replace protocol (AtomicFile) behind every
/// writeFileAtomic and the streamed saveTrace.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_SUPPORT_FILEUTILS_H
#define LIMA_SUPPORT_FILEUTILS_H

#include "support/Error.h"
#include <string>
#include <string_view>

namespace lima {

/// Reads the entire file at \p Path into a string.
Expected<std::string> readFile(const std::string &Path);

/// Writes \p Contents to \p Path, replacing any existing file.
Error writeFile(const std::string &Path, std::string_view Contents);

/// How hard an atomic write pushes the bytes toward the platters.
enum class Durability : uint8_t {
  /// fsync the temporary before rename(2) and the parent directory
  /// after, so the rename is not just atomic but durable: after a
  /// power loss the path holds either the old file or the complete new
  /// one.  The default — checkpoints and saved traces want this.
  Full,
  /// Skip both fsyncs.  Atomic against concurrent readers and process
  /// crashes, but a power loss can lose the rename or leave the new
  /// file empty.  For hot-path dumps that are re-written every few
  /// seconds anyway (--metrics-out), where two fsyncs per dump is real
  /// rent for no benefit.
  NoSync,
};

/// A file replaced atomically, written in as many pieces as the caller
/// likes: the bytes go to a mkstemp(3) temporary in the destination's
/// directory, and commit() renames it over the destination.  A
/// concurrent reader sees either the old file or the complete new one,
/// never a torn mixture.  Move-only.  On any failure the temporary is
/// closed and unlinked, and so is one destroyed before commit(): the
/// destination keeps its old bytes either way.
class AtomicFile {
public:
  /// Creates the temporary for \p Path.
  static Expected<AtomicFile> create(const std::string &Path);

  AtomicFile(AtomicFile &&Other) noexcept;
  AtomicFile &operator=(AtomicFile &&) = delete;
  AtomicFile(const AtomicFile &) = delete;
  AtomicFile &operator=(const AtomicFile &) = delete;
  ~AtomicFile();

  /// Appends \p Bytes to the temporary, riding out short writes and
  /// EINTR.  After a failure the temporary is gone and the file may
  /// only be destroyed.
  Error write(std::string_view Bytes);

  /// Puts the temporary in place.  Durability::Full fsyncs it before
  /// rename(2) and the directory after.  A failure before the rename
  /// unlinks the temporary; a failed directory fsync is reported, but
  /// the new file stays.  Called at most once.
  Error commit(Durability Sync = Durability::Full);

private:
  AtomicFile(std::string Path, std::string Tmp, int Fd)
      : Path(std::move(Path)), Tmp(std::move(Tmp)), Fd(Fd) {}
  /// Closes and unlinks the temporary, if there still is one.
  void discard();

  std::string Path; ///< The destination.
  std::string Tmp;  ///< The temporary's name, as mkstemp filled it in.
  int Fd = -1;      ///< Open on Tmp until commit() or a failure.
};

/// Writes \p Contents to \p Path atomically: one AtomicFile, one
/// write, commit(\p Sync).  This is what --metrics-out uses so a
/// scraper polling the file cannot observe a half-written exposition.
Error writeFileAtomic(const std::string &Path, std::string_view Contents,
                      Durability Sync = Durability::Full);

} // namespace lima

#endif // LIMA_SUPPORT_FILEUTILS_H
