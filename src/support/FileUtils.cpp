//===- support/FileUtils.cpp - Whole-file I/O helpers ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FileUtils.h"
#include "support/FaultInjection.h"
#include "support/Retry.h"
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <unistd.h>
#include <utility>

using namespace lima;

Expected<std::string> lima::readFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return makeCodedError(ErrorCode::IoError, "cannot open '%s' for reading", Path.c_str());
  std::string Contents;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Contents.append(Buf, N);
  bool Failed = std::ferror(File) != 0;
  std::fclose(File);
  if (Failed)
    return makeCodedError(ErrorCode::IoError, "read error on '%s'", Path.c_str());
  return Contents;
}

Error lima::writeFile(const std::string &Path, std::string_view Contents) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return makeCodedError(ErrorCode::IoError, "cannot open '%s' for writing", Path.c_str());
  size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), File);
  bool CloseFailed = std::fclose(File) != 0;
  if (Written != Contents.size() || CloseFailed)
    return makeCodedError(ErrorCode::IoError, "write error on '%s'", Path.c_str());
  return Error::success();
}

Expected<AtomicFile> AtomicFile::create(const std::string &Path) {
  // The temporary must live in the destination's directory: rename(2)
  // is only atomic within one filesystem.
  size_t Slash = Path.find_last_of('/');
  std::string Tmp = (Slash == std::string::npos
                         ? std::string()
                         : Path.substr(0, Slash + 1)) +
                    ".tmp." +
                    (Slash == std::string::npos ? Path : Path.substr(Slash + 1)) +
                    ".XXXXXX";
  if (fault::Fault F = fault::check("file.open")) {
    errno = F.errnoValue() ? F.errnoValue() : EIO;
    return makeCodedError(ErrorCode::IoError,
                          "cannot create temporary for '%s': %s", Path.c_str(),
                          std::strerror(errno));
  }
  int Fd = ::mkstemp(Tmp.data()); // Rewrites the template in place.
  if (Fd < 0)
    return makeCodedError(ErrorCode::IoError,
                          "cannot create temporary for '%s': %s", Path.c_str(),
                          std::strerror(errno));
  return AtomicFile(Path, std::move(Tmp), Fd);
}

AtomicFile::AtomicFile(AtomicFile &&Other) noexcept
    : Path(std::move(Other.Path)), Tmp(std::move(Other.Tmp)),
      Fd(std::exchange(Other.Fd, -1)) {}

AtomicFile::~AtomicFile() { discard(); }

void AtomicFile::discard() {
  if (Fd < 0)
    return;
  ::close(Fd);
  ::unlink(Tmp.c_str());
  Fd = -1;
}

Error AtomicFile::write(std::string_view Bytes) {
  assert(Fd >= 0 && "write to a committed or failed AtomicFile");
  const char *Data = Bytes.data();
  size_t Len = Bytes.size();
  while (Len != 0) {
    ssize_t N = retry::retryEintr(
        [&] { return fault::write("file.write", Fd, Data, Len); });
    if (N < 0) {
      int Errno = errno;
      discard();
      return makeCodedError(ErrorCode::IoError, "write error on '%s': %s",
                            Tmp.c_str(), std::strerror(Errno));
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return Error::success();
}

Error AtomicFile::commit(Durability Sync) {
  assert(Fd >= 0 && "commit of a committed or failed AtomicFile");
  // Push the data down before the rename makes it reachable, so a
  // power loss cannot leave the path pointing at a hollow file.  The
  // process-crash case needs no fsync — completed write(2)s survive in
  // the page cache regardless.
  if (Sync == Durability::Full) {
    int SyncRc;
    if (fault::Fault F = fault::check("file.fsync")) {
      errno = F.errnoValue() ? F.errnoValue() : EIO;
      SyncRc = -1;
    } else {
      SyncRc = retry::retryEintr([&] { return ::fsync(Fd); });
    }
    if (SyncRc != 0) {
      int Errno = errno;
      discard();
      return makeCodedError(ErrorCode::IoError, "fsync error on '%s': %s",
                            Tmp.c_str(), std::strerror(Errno));
    }
  }
  int CloseRc = ::close(std::exchange(Fd, -1));
  if (CloseRc != 0) {
    int Errno = errno;
    ::unlink(Tmp.c_str());
    return makeCodedError(ErrorCode::IoError, "close error on '%s': %s",
                          Tmp.c_str(), std::strerror(Errno));
  }
  int RenameRc;
  if (fault::Fault F = fault::check("file.rename")) {
    errno = F.errnoValue() ? F.errnoValue() : EIO;
    RenameRc = -1;
  } else {
    RenameRc = ::rename(Tmp.c_str(), Path.c_str());
  }
  if (RenameRc != 0) {
    int Errno = errno;
    ::unlink(Tmp.c_str());
    return makeCodedError(ErrorCode::IoError, "cannot rename '%s' to '%s': %s",
                          Tmp.c_str(), Path.c_str(), std::strerror(Errno));
  }
  // The rename itself lives in the directory, not the file: fsync the
  // parent so the new directory entry is durable too.  Failure here is
  // not worth un-renaming over — the data is safe, only the entry's
  // durability is weakened — so it is reported but nothing is undone.
  if (Sync == Durability::Full) {
    size_t Slash = Path.find_last_of('/');
    std::string Dir = Slash == std::string::npos ? std::string(".")
                                                 : Path.substr(0, Slash);
    int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      int Rc = fault::check("file.dirsync")
                   ? -1
                   : retry::retryEintr([&] { return ::fsync(DirFd); });
      ::close(DirFd);
      if (Rc != 0)
        return makeCodedError(ErrorCode::IoError,
                              "fsync error on directory '%s'", Dir.c_str());
    }
  }
  return Error::success();
}

Error lima::writeFileAtomic(const std::string &Path, std::string_view Contents,
                            Durability Sync) {
  Expected<AtomicFile> File = AtomicFile::create(Path);
  if (!File)
    return File.takeError();
  if (Error Err = File->write(Contents))
    return Err;
  return File->commit(Sync);
}
