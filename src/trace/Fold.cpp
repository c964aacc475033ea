//===- trace/Fold.cpp - The per-processor attribution fold ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Fold.h"
#include <cstdarg>
#include <cstdio>

using namespace lima;
using namespace lima::trace;

FoldStep FoldState::fault(size_t Index, const char *Fmt, ...) {
  if (!Strict && !Report)
    return FoldStep::Kept;
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  std::string What(std::max(0, std::vsnprintf(nullptr, 0, Fmt, Copy)), '\0');
  va_end(Copy);
  std::vsnprintf(What.data(), What.size() + 1, Fmt, Args);
  va_end(Args);
  ParseError PE{ErrorCode::StructuralError, 0, NoByteOffset,
                "proc " + std::to_string(Proc) + " event " +
                    std::to_string(Index) + ": " + What};
  if (Strict) {
    Failure = std::move(PE);
    return FoldStep::Failed;
  }
  Report->addDrop(std::move(PE));
  return FoldStep::Kept;
}
