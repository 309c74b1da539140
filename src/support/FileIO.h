//===- support/FileIO.h - Whole-file reads ----------------------*- C++ -*-===//

#ifndef MAO_SUPPORT_FILEIO_H
#define MAO_SUPPORT_FILEIO_H

#include <string>

namespace mao {

/// Reads the whole file at \p Path into \p Out, byte for byte, with one read
/// sized from the file's length. The one way the tools read a file. Returns
/// false when the file cannot be opened or read.
bool readWholeFile(const std::string &Path, std::string &Out);

} // namespace mao

#endif // MAO_SUPPORT_FILEIO_H
