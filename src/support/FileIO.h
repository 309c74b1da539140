//===- support/FileIO.h - Whole-file reads and writes -----------*- C++ -*-===//

#ifndef MAO_SUPPORT_FILEIO_H
#define MAO_SUPPORT_FILEIO_H

#include "support/Status.h"

#include <cstddef>
#include <string>
#include <string_view>

namespace mao {

/// Reads the whole file at \p Path into \p Out, byte for byte, with one read
/// sized from the file's length. The one way the tools read a file. Returns
/// false when the file cannot be opened or read.
bool readWholeFile(const std::string &Path, std::string &Out);

/// Writes \p Text as the whole content of \p Path; "-" is stdout. The one
/// way the tools write a file: every open, write, flush and close is
/// checked, so a full disk or a closed pipe is an error, not a short file.
/// The error reads "cannot write PATH: REASON" ("stdout" for "-").
MaoStatus writeWholeFile(const std::string &Path, std::string_view Text);

/// Writes all \p Size bytes to \p Fd, retrying short writes and EINTR.
/// Returns false with errno set when a write fails.
bool writeFully(int Fd, const char *Data, size_t Size);

} // namespace mao

#endif // MAO_SUPPORT_FILEIO_H
