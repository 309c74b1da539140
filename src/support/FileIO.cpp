//===- support/FileIO.cpp - Whole-file reads ---------------------------------==//

#include "support/FileIO.h"

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

bool mao::readWholeFile(const std::string &Path, std::string &Out) {
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  // Sized from the file, plus one spare byte so its end shows as a short
  // read; a pipe, or a file that grows meanwhile, doubles the buffer.
  struct stat St;
  Out.resize(::fstat(Fd, &St) == 0 && St.st_size > 0 ? St.st_size + 1 : 4096);
  size_t Done = 0;
  ssize_t N;
  while ((N = ::read(Fd, &Out[Done], Out.size() - Done)) != 0) {
    if (N < 0 && errno != EINTR)
      break;
    Done += N > 0 ? size_t(N) : 0;
    if (Done == Out.size())
      Out.resize(2 * Done);
  }
  ::close(Fd);
  Out.resize(Done);
  return N == 0;
}
