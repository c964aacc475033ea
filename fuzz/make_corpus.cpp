//===- fuzz/make_corpus.cpp - Seed corpus generator -----------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writes the generated half of the fuzz seed corpus into
/// <outdir>/<target>/.  Valid seeds come from the production writers, so
/// they track the formats automatically; malformed seeds are
/// deterministic mutations of the valid ones (truncations, corrupted
/// magic/counts) that steer the fuzzers toward the error paths from the
/// start.  Hand-written malformed cases live in fuzz/corpus/ in the
/// source tree; this tool covers what is awkward to check in — above
/// all the binary format.
///
//===----------------------------------------------------------------------===//

#include "core/CubeIO.h"
#include "core/TraceReduction.h"
#include "support/CSV.h"
#include "support/Checksum.h"
#include "trace/BinaryIO.h"
#include "trace/TraceIO.h"
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

using namespace lima;
using trace::Event;
using trace::EventKind;
using trace::Trace;

namespace {

/// Two processors, nested regions, activities and one message pair of
/// \p MessageBytes bytes — touches every record kind each format can
/// encode.
Trace makeSeedTrace(uint64_t MessageBytes = 64) {
  Trace T(2);
  uint32_t Main = T.addRegion("main");
  uint32_t Loop = T.addRegion("loop");
  uint32_t Comp = T.addActivity("computation");
  uint32_t P2P = T.addActivity("p2p");

  T.append({0.0, 0, EventKind::RegionEnter, Main, 0});
  T.append({0.1, 0, EventKind::RegionEnter, Loop, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({1.0, 0, EventKind::ActivityEnd, Comp, 0});
  T.append({1.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({1.0, 0, EventKind::MessageSend, 1, MessageBytes});
  T.append({1.2, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({1.2, 0, EventKind::RegionExit, Loop, 0});
  T.append({1.3, 0, EventKind::RegionExit, Main, 0});

  T.append({0.0, 1, EventKind::RegionEnter, Main, 0});
  T.append({0.2, 1, EventKind::RegionEnter, Loop, 0});
  T.append({0.2, 1, EventKind::ActivityBegin, P2P, 0});
  T.append({1.1, 1, EventKind::MessageRecv, 0, MessageBytes});
  T.append({1.4, 1, EventKind::ActivityEnd, P2P, 0});
  T.append({1.4, 1, EventKind::RegionExit, Loop, 0});
  T.append({1.5, 1, EventKind::RegionExit, Main, 0});
  return T;
}

/// Event lines at and just past each limit of the canonical text fast
/// path and of the processor rule the sharded parser counts lines by
/// (trace/TextScan.h), under the tables fuzz_trace_text's differential
/// checks use (64 processors, 8 regions, 4 activities).
/// Lines the generic path accepts come first, so a strict parse reaches
/// all of them; the rejected ones follow for lenient mode.  A copy is
/// checked in as fuzz/corpus/fuzz_trace_text/canonical-edges.trace.
std::string canonicalEdgesTrace() {
  std::string Text = "LIMATRACE 1\nprocs 64\n";
  for (int I = 0; I != 8; ++I)
    Text += "region " + std::to_string(I) + " r" + std::to_string(I) + "\n";
  for (int I = 0; I != 4; ++I)
    Text += "activity " + std::to_string(I) + " a" + std::to_string(I) + "\n";
  Text += "# accepted by the generic path\n"
          "re 12 0.000420751 2\n"
          "ms 63 1.250000000 0 18446744073709551615\n"
          "mr 0 1.250000000 63 9999999999999999999\n"
          "re 0 9007199254740992 7\n"
          "re 0 90071992547409.92 7\n"
          "re 0 9007199254740993 7\n"
          "re 0 90071992547409.93 7\n"
          "re 0 9007199254740993e-10 7\n"
          "re 0 0.000000000000000001 0\n"
          "re 0 0.0000000000000000001 0\n"
          "re 0 18446744073709551617e-10 0\n"
          "re 0000000000000000001 1.0 0\n"
          "re 00000000000000000001 1.0 0\n"
          "re 0 1.0 0000000000000000007\n"
          "re 0 1.0 00000000000000000007\n"
          "re 0 1e22 0\n"
          "re 0 1e23 0\n"
          "re 0 3e23 0\n"
          "re 0 1e-22 0\n"
          "re 0 1e-23 0\n"
          "ab 0 4.20751e-05 3\n"
          "ae 0 1E5 3\n"
          "rx 0 15e+1 0\n"
          "re 0 0e50 0\n"
          "re 0 5. 0\n"
          "re 0 .5 0\n"
          "re 0 +1.5 0\n"
          "re 0 -0.0 0\n"
          "re 0 0x1p3 0\n"
          "re 00 007.50 00\n"
          "re 0 1.5 0\r\n"
          "ms 0 1.5 1 64\t\n"
          "re 0 1.5 0 \n"
          "re  0 1.5 0\n"
          "re 0 1.5  0\n"
          "re\t0 1.5 0\n"
          "re 0 1 0\n"
          "re\t3 1.5 0\n"
          "re  5 1.5 0\n"
          "re 7\t1.5 0\n"
          "re 0000000000000000042 1.0 0\n"
          "re 00000000000000000042 1.0 0\n"
          "re +3 1.0 0\n"
          "rx 63 1.0 0\n"
          "# rejected by the generic path\n"
          "re 18446744073709551617 1.0 0\n"
          "ms 0 1.0 1 18446744073709551616\n"
          "re 0 1.0 4294967295\n"
          "re 0 1.0 4294967296\n"
          "ms 0 1.0 4294967297 64\n"
          "ab 0 1.0 4\n"
          "re 64 1.0 0\n"
          "re 0 nan 0\n"
          "re 0 1e 0\n"
          "re 0 1.5.5 0\n"
          "re 0 1.5 0x\n"
          "re 0 1.5 0 junk\n"
          "ms 0 1.0 1\n"
          "re 0 1.0\n"
          "RE 0 1.0 0\n"
          "rex 0 1.0 0\n"
          "rex 3 1.0 0\n"
          "re 3x 1.0 0\n"
          "re 3\n"
          "re -3 1.0 0\n";
  return Text;
}

constexpr size_t FooterSize = 24;

/// Reads the footer's u64 index-offset field of a LIMB v2 buffer.
size_t indexStart(const std::string &V2) {
  uint64_t Offset;
  std::memcpy(&Offset, V2.data() + V2.size() - FooterSize, sizeof(Offset));
  return static_cast<size_t>(Offset);
}

uint32_t readU32(const std::string &V2, size_t At) {
  uint32_t V;
  std::memcpy(&V, V2.data() + At, sizeof(V));
  return V;
}

/// Recomputes the footer's index CRC after an index mutation, so the
/// seed exercises the semantic index validation, not the CRC gate.
void resignIndex(std::string &V2) {
  std::string_view Index(V2.data() + indexStart(V2),
                         V2.size() - FooterSize - indexStart(V2));
  uint32_t Crc = crc32(Index);
  std::memcpy(V2.data() + V2.size() - FooterSize + 12, &Crc, sizeof(Crc));
}

bool write(const std::filesystem::path &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.string().c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: %s <output-directory>\n", Argv[0]);
    return 1;
  }
  namespace fs = std::filesystem;
  fs::path OutDir(Argv[1]);
  std::error_code EC;
  for (const char *Target : {"fuzz_trace_text", "fuzz_trace_binary",
                             "fuzz_cube", "fuzz_csv"}) {
    fs::create_directories(OutDir / Target, EC);
    if (EC) {
      std::fprintf(stderr, "error: cannot create %s: %s\n",
                   (OutDir / Target).string().c_str(),
                   EC.message().c_str());
      return 1;
    }
  }
  bool Ok = true;

  Trace T = makeSeedTrace();

  // --- LIMATRACE text -------------------------------------------------
  std::string Text = trace::writeTraceText(T);
  fs::path TextDir = OutDir / "fuzz_trace_text";
  Ok &= write(TextDir / "valid.trace", Text);
  Ok &= write(TextDir / "truncated.trace",
              Text.substr(0, Text.size() * 2 / 3));
  Ok &= write(TextDir / "bad-magic.trace", "LIMATRAC" + Text.substr(8));
  Ok &= write(TextDir / "huge-procs.trace",
              "LIMATRACE 1\nprocs 99999999\n");
  Ok &= write(TextDir / "canonical-edges.trace", canonicalEdgesTrace());

  // --- LIMB binary ----------------------------------------------------
  std::string Binary = trace::writeTraceBinary(T);
  fs::path BinDir = OutDir / "fuzz_trace_binary";
  Ok &= write(BinDir / "valid.limb", Binary);
  Ok &= write(BinDir / "truncated.limb",
              Binary.substr(0, Binary.size() / 2));
  std::string BadMagic = Binary;
  BadMagic[0] = 'X';
  Ok &= write(BinDir / "bad-magic.limb", BadMagic);
  // Corrupt the version word (bytes 4..7, little-endian u32).
  std::string BadVersion = Binary;
  BadVersion[4] = '\x7f';
  Ok &= write(BinDir / "bad-version.limb", BadVersion);
  // An overlong varint: magic/version/counts, then garbage continuation
  // bytes where the last event's payload would be.  Pinned to v1 — the
  // v2 payload is self-framing, so the same mutation there is just a
  // damaged index that salvages cleanly.
  std::string V1 = trace::writeTraceBinaryV1(T);
  Ok &= write(BinDir / "valid-v1.limb", V1);
  std::string Overlong = V1.substr(0, V1.size() - 1);
  Overlong.append(16, '\xff');
  Ok &= write(BinDir / "overlong-varint.limb", Overlong);

  // A header that declares one region name twice, in both versions.  No
  // writer emits one (Trace refuses it), so rename the seed's "loop"
  // onto "main", which has the same length.  Checked in as
  // fuzz/corpus/fuzz_trace_binary/dup-region-v{1,2}.limb.
  auto repeatRegion = [](std::string Bytes) {
    Bytes.replace(Bytes.find("loop"), 4, "main");
    return Bytes;
  };
  Ok &= write(BinDir / "dup-region-v1.limb", repeatRegion(V1));
  Ok &= write(BinDir / "dup-region-v2.limb", repeatRegion(Binary));

  // The two varint edges of the record decoder.  A message of 2^64 - 1
  // bytes takes the longest varint: nine 0xff bytes, then 0x01 as the
  // tenth, which may carry bit 63 only.  Raising that byte to 2
  // overflows; the file has no block CRCs, so the decoder sees it.
  // Both are checked in as fuzz/corpus/fuzz_trace_binary/varint-*.limb.
  Ok &= write(BinDir / "varint-10-byte.limb",
              trace::writeTraceBinary(makeSeedTrace(UINT64_MAX)));
  trace::BinaryWriteOptions NoCrc;
  NoCrc.BlockCrc = false;
  std::string Overflow =
      trace::writeTraceBinary(makeSeedTrace(UINT64_MAX), NoCrc);
  Overflow[Overflow.find(std::string(9, '\xff') + '\x01') + 9] = '\x02';
  Ok &= write(BinDir / "varint-overflow.limb", Overflow);

  // --- LIMB v2 block-index mutations ----------------------------------
  // A tiny block size forces several index entries from the 16-event
  // seed, so every mutation below has structure to chew on.  Each seed
  // lands in a distinct row of the fallback matrix: index damage keeps
  // the self-framed payload readable (sequential salvage), while
  // payload damage under a valid index is caught by the block CRC.
  trace::BinaryWriteOptions SmallBlocks;
  SmallBlocks.BlockEvents = 5;
  std::string V2 = trace::writeTraceBinary(T, SmallBlocks);
  Ok &= write(BinDir / "valid-v2.limb", V2);

  // Footer intact, index region clipped: offsets no longer line up.
  Ok &= write(BinDir / "truncated-index.limb",
              V2.substr(0, indexStart(V2) + 8) + V2.substr(V2.size() - 8));

  // Footer points past the end of the file.
  std::string PastEof = V2;
  uint64_t Bogus = PastEof.size() + 4096;
  std::memcpy(PastEof.data() + PastEof.size() - FooterSize, &Bogus,
              sizeof(Bogus));
  Ok &= write(BinDir / "index-offset-past-eof.limb", PastEof);

  // First block's first run claims one extra event; CRC re-signed so
  // the run-sum consistency check (not the CRC) rejects the index.
  // Entry layout: u64 offset, u32 bytes, u32 events, f64 first, f64
  // last, u32 crc, u32 runCount, then u32 proc + u32 count per run.
  std::string CountMismatch = V2;
  size_t Entry0 = indexStart(V2) + 4;
  size_t Run0Count = Entry0 + 40 + 4;
  uint32_t Count = readU32(CountMismatch, Run0Count) + 1;
  std::memcpy(CountMismatch.data() + Run0Count, &Count, sizeof(Count));
  resignIndex(CountMismatch);
  Ok &= write(BinDir / "count-mismatch.limb", CountMismatch);

  // Second block's offset rewound onto the first: blocks overlap
  // instead of tiling the payload.
  std::string Overlap = V2;
  size_t Entry1 = Entry0 + 40 + 8 * readU32(V2, Entry0 + 36);
  uint64_t Block0Offset;
  std::memcpy(&Block0Offset, V2.data() + Entry0, sizeof(Block0Offset));
  std::memcpy(Overlap.data() + Entry1, &Block0Offset, sizeof(Block0Offset));
  resignIndex(Overlap);
  Ok &= write(BinDir / "overlapping-blocks.limb", Overlap);

  // Valid index, one payload byte flipped: the per-block CRC catches
  // it (strict error, lenient whole-block drop).
  std::string BadCrc = V2;
  BadCrc[indexStart(V2) / 2] ^= 0x40;
  Ok &= write(BinDir / "bad-block-crc.limb", BadCrc);

  // --- LIMB v2 streamed crash prefixes --------------------------------
  // The streaming writer's crash contract: a file cut at any point must
  // salvage exactly the flushed prefix.  Three cuts steer the fuzzer at
  // the interesting shapes — mid-payload (partial block dropped),
  // payload complete but index missing (fallback walk recovers all),
  // and a clipped index (footer gone with it).
  fs::path StreamedPath = BinDir / "valid-streamed.limb";
  if (Error Err = trace::StreamingBinaryWriter::writeTrace(
          T, StreamedPath.string(), SmallBlocks)) {
    std::fprintf(stderr, "error: streamed seed: %s\n",
                 Err.message().c_str());
    return 1;
  }
  std::ifstream StreamedIn(StreamedPath, std::ios::binary);
  std::string Streamed((std::istreambuf_iterator<char>(StreamedIn)),
                       std::istreambuf_iterator<char>());
  Ok &= write(BinDir / "streamed-crash-midblock.limb",
              Streamed.substr(0, indexStart(Streamed) / 2));
  Ok &= write(BinDir / "streamed-crash-noindex.limb",
              Streamed.substr(0, indexStart(Streamed)));
  Ok &= write(BinDir / "streamed-crash-midindex.limb",
              Streamed.substr(0, Streamed.size() - FooterSize - 3));

  // --- Cube CSV -------------------------------------------------------
  core::ReductionOptions Reduction;
  Reduction.Threads = 1;
  auto CubeOrErr = core::reduceTrace(T, Reduction);
  if (!CubeOrErr) {
    std::fprintf(stderr, "error: seed reduction failed: %s\n",
                 CubeOrErr.takeError().message().c_str());
    return 1;
  }
  std::string CubeText = core::writeCubeCSV(*CubeOrErr);
  fs::path CubeDir = OutDir / "fuzz_cube";
  Ok &= write(CubeDir / "valid.cube.csv", CubeText);
  Ok &= write(CubeDir / "truncated.cube.csv",
              CubeText.substr(0, CubeText.size() / 2));
  Ok &= write(CubeDir / "no-header.cube.csv",
              CubeText.substr(CubeText.find('\n') + 1));

  // --- Plain CSV ------------------------------------------------------
  std::string Csv = writeCSV({{"name", "value"},
                              {"plain", "1"},
                              {"quoted,comma", "2"},
                              {"embedded \"quote\"", "3"},
                              {"multi\nline", "4"}});
  fs::path CsvDir = OutDir / "fuzz_csv";
  Ok &= write(CsvDir / "valid.csv", Csv);
  Ok &= write(CsvDir / "unterminated-quote.csv", "a,\"open quote\nb,2\n");
  Ok &= write(CsvDir / "stray-quote.csv", "a,b\"c,d\n");

  if (!Ok)
    return 1;
  std::printf("corpus written to %s\n", OutDir.string().c_str());
  return 0;
}
