//===- support/FileIO.cpp - Whole-file reads and writes ----------------------==//

#include "support/FileIO.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
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

bool mao::writeFully(int Fd, const char *Data, size_t Size) {
  size_t Done = 0;
  while (Done < Size) {
    const ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      if (N == 0)
        errno = EIO;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

mao::MaoStatus mao::writeWholeFile(const std::string &Path,
                                   std::string_view Text) {
  auto Failed = [](const std::string &Name, int Errno) {
    return MaoStatus::error("cannot write " + Name + ": " +
                            std::strerror(Errno));
  };
  if (Path == "-") {
    // Through stdio, so these bytes stay in order with the tools' other
    // stdout writes; the flush makes a full disk or closed pipe show here.
    if (std::fwrite(Text.data(), 1, Text.size(), stdout) != Text.size() ||
        std::fflush(stdout) != 0)
      return Failed("stdout", errno);
    return MaoStatus::success();
  }
  const int Fd =
      ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (Fd < 0)
    return Failed(Path, errno);
  if (!writeFully(Fd, Text.data(), Text.size())) {
    const int Errno = errno;
    ::close(Fd);
    return Failed(Path, Errno);
  }
  if (::close(Fd) != 0)
    return Failed(Path, errno);
  return MaoStatus::success();
}
