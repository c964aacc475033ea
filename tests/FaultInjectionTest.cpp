//===- tests/FaultInjectionTest.cpp - fault shim and retry tests ----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/Retry.h"
#include "TestHelpers.h"
#include "trace/TraceIO.h"
#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace lima;
using lima::testutil::failed;

namespace {

/// RAII guard: every test leaves the schedule disarmed, whatever path
/// it exits through.
struct FaultGuard {
  ~FaultGuard() { fault::reset(); }
};

} // namespace

TEST(FaultInjectionTest, DisarmedCheckIsNone) {
  FaultGuard Guard;
  fault::reset();
  EXPECT_FALSE(static_cast<bool>(fault::check("anything")));
}

TEST(FaultInjectionTest, SpecParsing) {
  FaultGuard Guard;
  EXPECT_FALSE(failed(fault::configure("")));
  EXPECT_FALSE(failed(fault::configure("a.b:eintr")));
  EXPECT_FALSE(failed(fault::configure("a:enospc@3x2,b:short@1x*~50")));
  EXPECT_TRUE(failed(fault::configure("a:bogus")));
  EXPECT_TRUE(failed(fault::configure("noseparator")));
  EXPECT_TRUE(failed(fault::configure("a:eintr@zork")));
  EXPECT_TRUE(failed(fault::configure("a:eintr~101")));
}

TEST(FaultInjectionTest, CountdownFiresNthCallForMCalls) {
  FaultGuard Guard;
  ASSERT_FALSE(failed(fault::configure("s:enospc@2x2")));
  EXPECT_FALSE(static_cast<bool>(fault::check("s")));     // call 1: clean
  EXPECT_EQ(fault::check("s").K, fault::Fault::Enospc);   // call 2: fires
  EXPECT_EQ(fault::check("s").K, fault::Fault::Enospc);   // call 3: fires
  EXPECT_FALSE(static_cast<bool>(fault::check("s")));     // exhausted
  EXPECT_FALSE(static_cast<bool>(fault::check("other"))); // wrong site
  EXPECT_EQ(fault::injectedTotal(), 2u);
}

TEST(FaultInjectionTest, ForeverRepeats) {
  FaultGuard Guard;
  ASSERT_FALSE(failed(fault::configure("s:eio@1x*")));
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(fault::check("s").K, fault::Fault::Eio);
}

TEST(FaultInjectionTest, ProbabilisticDrawsAreSeeded) {
  FaultGuard Guard;
  auto drawPattern = [](uint64_t Seed) {
    EXPECT_FALSE(failed(fault::configure("s:eintr@1x*~50", Seed)));
    std::string Pattern;
    for (int I = 0; I != 32; ++I)
      Pattern += fault::check("s") ? '1' : '0';
    return Pattern;
  };
  std::string A = drawPattern(7);
  std::string B = drawPattern(7);
  std::string C = drawPattern(8);
  EXPECT_EQ(A, B);           // same seed, same schedule
  EXPECT_NE(A, C);           // different seed, different schedule
  EXPECT_NE(A, std::string(32, '0'));
  EXPECT_NE(A, std::string(32, '1'));
}

TEST(FaultInjectionTest, ErrnoValuesMatchKinds) {
  EXPECT_EQ(fault::Fault{fault::Fault::Eintr}.errnoValue(), EINTR);
  EXPECT_EQ(fault::Fault{fault::Fault::Enospc}.errnoValue(), ENOSPC);
  EXPECT_EQ(fault::Fault{fault::Fault::Emfile}.errnoValue(), EMFILE);
  EXPECT_EQ(fault::Fault{fault::Fault::Enoent}.errnoValue(), ENOENT);
  EXPECT_EQ(fault::Fault{fault::Fault::Eagain}.errnoValue(), EAGAIN);
  EXPECT_EQ(fault::Fault{fault::Fault::Eio}.errnoValue(), EIO);
}

TEST(FaultInjectionTest, ShortWriteHalvesTransfer) {
  FaultGuard Guard;
  std::string Path = ::testing::TempDir() + "/lima_fault_short.bin";
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(Fd, 0);
  ASSERT_FALSE(failed(fault::configure("w:short@1")));
  char Buf[8] = {0};
  EXPECT_EQ(fault::write("w", Fd, Buf, sizeof(Buf)), 4); // halved
  EXPECT_EQ(fault::write("w", Fd, Buf, sizeof(Buf)), 8); // exhausted
  ::close(Fd);
  std::remove(Path.c_str());
}

TEST(FaultInjectionTest, FailedSyscallSetsErrno) {
  FaultGuard Guard;
  ASSERT_FALSE(failed(fault::configure("r:enospc@1")));
  char Buf[8];
  errno = 0;
  EXPECT_EQ(fault::read("r", 0, Buf, sizeof(Buf)), -1);
  EXPECT_EQ(errno, ENOSPC);
}

TEST(RetryTest, EintrLoopRetries) {
  int Calls = 0;
  auto R = retry::retryEintr([&]() -> ssize_t {
    if (++Calls < 3) {
      errno = EINTR;
      return -1;
    }
    return 7;
  });
  EXPECT_EQ(R, 7);
  EXPECT_EQ(Calls, 3);
}

TEST(RetryTest, EintrPredicateBreaksOut) {
  int Calls = 0;
  auto R = retry::retryEintr(
      [&]() -> ssize_t {
        ++Calls;
        errno = EINTR;
        return -1;
      },
      [] { return true; });
  EXPECT_EQ(R, -1);
  EXPECT_EQ(errno, EINTR);
  EXPECT_EQ(Calls, 1); // the wakeup wins over the retry
}

TEST(RetryTest, TransientErrnoClassification) {
  EXPECT_TRUE(retry::isTransientErrno(EINTR));
  EXPECT_TRUE(retry::isTransientErrno(EAGAIN));
  EXPECT_TRUE(retry::isTransientErrno(ENOSPC));
  EXPECT_TRUE(retry::isTransientErrno(EMFILE));
  EXPECT_FALSE(retry::isTransientErrno(ENOENT));
  EXPECT_FALSE(retry::isTransientErrno(EBADF));
  EXPECT_FALSE(retry::isTransientErrno(0));
}

TEST(RetryTest, BackoffScheduleIsCappedExponential) {
  retry::BackoffPolicy Policy;
  Policy.InitialDelayMs = 10;
  Policy.Multiplier = 2.0;
  Policy.MaxDelayMs = 45;
  EXPECT_EQ(Policy.delayMs(0), 10u);
  EXPECT_EQ(Policy.delayMs(1), 20u);
  EXPECT_EQ(Policy.delayMs(2), 40u);
  EXPECT_EQ(Policy.delayMs(3), 45u); // capped
  EXPECT_EQ(Policy.delayMs(9), 45u);
}

TEST(RetryTest, WithBackoffRetriesTransientIoError) {
  retry::BackoffPolicy Policy;
  Policy.MaxAttempts = 5;
  int Attempts = 0;
  std::vector<unsigned> Slept;
  Error Err = retry::withBackoff(
      Policy, "test.transient",
      [&]() -> Error {
        if (++Attempts < 3)
          return makeCodedError(ErrorCode::IoError, "disk full");
        return Error::success();
      },
      [&](unsigned Ms) { Slept.push_back(Ms); });
  EXPECT_FALSE(failed(std::move(Err)));
  EXPECT_EQ(Attempts, 3);
  ASSERT_EQ(Slept.size(), 2u);
  EXPECT_EQ(Slept[0], 10u);
  EXPECT_EQ(Slept[1], 20u);
}

TEST(RetryTest, WithBackoffFailsFastOnPermanentErrors) {
  retry::BackoffPolicy Policy;
  int Attempts = 0;
  Error Err = retry::withBackoff(
      Policy, "test.permanent",
      [&]() -> Error {
        ++Attempts;
        return makeCodedError(ErrorCode::BadMagic, "not a trace");
      },
      [](unsigned) {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::BadMagic);
  Err.consume();
  EXPECT_EQ(Attempts, 1); // the PR-3 taxonomy says don't retry this
}

TEST(RetryTest, WithBackoffExhaustsAndReturnsLastError) {
  retry::BackoffPolicy Policy;
  Policy.MaxAttempts = 3;
  int Attempts = 0;
  Error Err = retry::withBackoff(
      Policy, "test.exhaust",
      [&]() -> Error {
        ++Attempts;
        return makeCodedError(ErrorCode::IoError, "still full");
      },
      [](unsigned) {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
  Err.consume();
  EXPECT_EQ(Attempts, 3);
}

TEST(FileUtilsFaultTest, AtomicWriteSurvivesShortWrites) {
  FaultGuard Guard;
  std::string Path = ::testing::TempDir() + "/lima_fault_atomic.txt";
  ASSERT_FALSE(failed(fault::configure("file.write:short@1x*")));
  std::string Contents(8192, 'x');
  ASSERT_FALSE(failed(writeFileAtomic(Path, Contents)));
  EXPECT_EQ(cantFail(readFile(Path)), Contents);
  std::remove(Path.c_str());
}

TEST(FileUtilsFaultTest, FsyncFailureLeavesOldContents) {
  FaultGuard Guard;
  std::string Path = ::testing::TempDir() + "/lima_fault_fsync.txt";
  ASSERT_FALSE(failed(writeFileAtomic(Path, "old")));
  // Durability::Full fsyncs the temporary before rename; when that
  // fsync reports ENOSPC the write must fail WITHOUT renaming — the
  // destination keeps its previous contents.
  ASSERT_FALSE(failed(fault::configure("file.fsync:enospc@1")));
  Error Err = writeFileAtomic(Path, "new", Durability::Full);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
  Err.consume();
  EXPECT_EQ(cantFail(readFile(Path)), "old");
  // NoSync never calls fsync, so the (re-armed) fault cannot fire and
  // the hot-dump path keeps working on the same sick filesystem.
  ASSERT_FALSE(failed(fault::configure("file.fsync:enospc@1x*")));
  ASSERT_FALSE(failed(writeFileAtomic(Path, "new", Durability::NoSync)));
  EXPECT_EQ(cantFail(readFile(Path)), "new");
  std::remove(Path.c_str());
}

TEST(FileUtilsFaultTest, OpenFailurePropagates) {
  FaultGuard Guard;
  std::string Path = ::testing::TempDir() + "/lima_fault_open.txt";
  ASSERT_FALSE(failed(fault::configure("file.open:emfile@1")));
  Error Err = writeFileAtomic(Path, "contents");
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
  Err.consume();
}

namespace {

/// A trace whose text runs to several of saveTrace's 256 KiB chunks.
trace::Trace makeLongTrace() {
  trace::Trace T(4);
  uint32_t Region = T.addRegion("solve");
  uint32_t Work = T.addActivity("work");
  for (unsigned P = 0; P != 4; ++P)
    for (unsigned Round = 0; Round != 4000; ++Round) {
      double Time = 0.001 * Round + 0.0001 * P;
      T.append({Time, P, trace::EventKind::RegionEnter, Region, 0});
      T.append({Time, P, trace::EventKind::ActivityBegin, Work, 0});
      T.append({Time + 0.0005, P, trace::EventKind::ActivityEnd, Work, 0});
      T.append({Time + 0.0005, P, trace::EventKind::RegionExit, Region, 0});
    }
  return T;
}

/// A fresh directory of its own for \p Name, so a test can see every
/// file a save leaves in it.
std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / ("lima_fault_" + Name);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Saves a long trace over a file holding "old" under the fault
/// schedule \p Spec: the save must fail with IoError and a message
/// starting with \p Prefix, exactly one fault must fire, and the file
/// must keep its old bytes with no temporary left beside it.
void expectSaveFailsCleanly(const std::string &Name, const char *Spec,
                            const std::string &Prefix) {
  std::filesystem::path Dir = freshDir(Name);
  std::string Path = (Dir / "trace.txt").string();
  ASSERT_FALSE(failed(writeFileAtomic(Path, "old")));
  trace::Trace T = makeLongTrace();
  ASSERT_GT(trace::writeTraceText(T).size(), 2u * 256 * 1024);
  ASSERT_FALSE(failed(fault::configure(Spec)));
  Error Err = trace::saveTrace(T, Path);
  EXPECT_EQ(fault::injectedTotal(), 1u);
  fault::reset();
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::IoError);
  EXPECT_EQ(Err.message().rfind(Prefix, 0), 0u) << Err.message();
  Err.consume();
  EXPECT_EQ(cantFail(readFile(Path)), "old");
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    EXPECT_EQ(Entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << Entry.path();
  std::filesystem::remove_all(Dir);
}

} // namespace

TEST(FileUtilsFaultTest, StreamedSaveSurvivesShortWrites) {
  FaultGuard Guard;
  std::filesystem::path Dir = freshDir("save_short");
  std::string Path = (Dir / "trace.txt").string();
  trace::Trace T = makeLongTrace();
  std::string Text = trace::writeTraceText(T);
  ASSERT_GT(Text.size(), 2u * 256 * 1024);
  ASSERT_FALSE(failed(fault::configure("file.write:short@1x*")));
  ASSERT_FALSE(failed(trace::saveTrace(T, Path)));
  // Every write moved at most half of what it was asked for, so each
  // chunk took several.
  EXPECT_GT(fault::injectedTotal(), 2u * Text.size() / (256 * 1024));
  fault::reset();
  EXPECT_TRUE(cantFail(readFile(Path)) == Text);
  std::filesystem::remove_all(Dir);
}

TEST(FileUtilsFaultTest, StreamedSaveWriteFailureLeavesOldContents) {
  FaultGuard Guard;
  // The first chunk is written; the second one's write fails.
  expectSaveFailsCleanly("save_write", "file.write:enospc@2",
                         "write error on '");
}

TEST(FileUtilsFaultTest, StreamedSaveFsyncFailureLeavesOldContents) {
  FaultGuard Guard;
  expectSaveFailsCleanly("save_fsync", "file.fsync:eio@1", "fsync error on '");
}

TEST(FileUtilsFaultTest, StreamedSaveRenameFailureLeavesOldContents) {
  FaultGuard Guard;
  expectSaveFailsCleanly("save_rename", "file.rename:eio@1",
                         "cannot rename '");
}
