//===- serve/ArtifactCache.cpp - Crash-safe persistent cache -----------------==//

#include "serve/ArtifactCache.h"

#include "serve/LittleEndian.h"
#include "support/FaultInjection.h"
#include "support/FileIO.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

using namespace mao;
using namespace mao::serve;

namespace fs = std::filesystem;

namespace {

constexpr char EntryMagic[4] = {'M', 'A', 'O', 'A'};
constexpr uint32_t EntryVersion = 1;
constexpr size_t MaxSectionCount = 64;
constexpr uint64_t MaxSectionBytes = 1ULL << 32;

std::string keyFileName(uint64_t Key) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx.mao",
                static_cast<unsigned long long>(Key));
  return Buf;
}

/// Reads the whole file at \p Path. Returns false when it cannot be read
/// (ENOENT is the common, benign case). On success, an armed CacheRead
/// fault flips one bit in the middle of the buffer — deterministic
/// corruption the checksum trailer must catch.
bool readEntryFile(const std::string &Path, std::string &Out) {
  if (!readWholeFile(Path, Out))
    return false;
  if (!Out.empty() &&
      FaultInjector::instance().shouldFail(FaultSite::CacheRead))
    Out[Out.size() / 2] ^= 0x01;
  return true;
}

/// Writes \p Data to \p Path crash-safely: unique temp file in the same
/// directory, full write, fsync, atomic rename, directory fsync. An armed
/// FsWrite fault truncates the write half way (the temp file is removed
/// and an error returned — exactly what a caller sees when the disk fills
/// or a signal lands mid-write); an armed FsRename fault fails the publish
/// step the same way.
MaoStatus writeFileAtomic(const std::string &Dir, const std::string &Path,
                          const std::string &TmpPath,
                          const std::string &Data) {
  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return MaoStatus::error("cannot create temp file " + TmpPath + ": " +
                            std::strerror(errno));
  size_t ToWrite = Data.size();
  bool Injected = false;
  if (FaultInjector::instance().shouldFail(FaultSite::FsWrite)) {
    ToWrite /= 2; // Simulate a writer cut down mid-write.
    Injected = true;
  }
  if (!writeFully(Fd, Data.data(), ToWrite)) {
    const int Errno = errno;
    ::close(Fd);
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("write failed for " + TmpPath + ": " +
                            std::strerror(Errno));
  }
  if (Injected) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("short write on " + TmpPath + " (injected)");
  }
  if (::fsync(Fd) != 0) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("fsync failed for " + TmpPath + ": " +
                            std::strerror(errno));
  }
  if (::close(Fd) != 0) {
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("close failed for " + TmpPath + ": " +
                            std::strerror(errno));
  }
  if (FaultInjector::instance().shouldFail(FaultSite::FsRename)) {
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("rename to " + Path + " failed (injected)");
  }
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    ::unlink(TmpPath.c_str());
    return MaoStatus::error("rename to " + Path + " failed: " +
                            std::strerror(errno));
  }
  // Persist the directory entry so the publish survives a host crash.
  // Best-effort: a failure here cannot un-publish the atomic rename.
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    (void)::fsync(DirFd);
    ::close(DirFd);
  }
  return MaoStatus::success();
}

} // namespace

std::string ArtifactCache::serializeEntry(uint64_t Key,
                                          const CacheEntry &Entry) {
  std::string Out;
  Out.append(EntryMagic, sizeof(EntryMagic));
  appendU32(Out, EntryVersion);
  appendU64(Out, Key);
  appendU32(Out, static_cast<uint32_t>(Entry.Sections.size()));
  for (const auto &[Name, Data] : Entry.Sections) {
    appendU32(Out, static_cast<uint32_t>(Name.size()));
    Out.append(Name);
    appendU64(Out, Data.size());
    Out.append(Data);
  }
  appendU64(Out, fnv1a64(Out));
  return Out;
}

MaoStatus ArtifactCache::parseEntry(std::string_view Bytes,
                                    uint64_t ExpectedKey, CacheEntry &Out) {
  // The trailer first: a checksum mismatch subsumes most torn-entry
  // shapes, but every bounds check below still guards against adversarial
  // lengths in a file whose trailer happens to validate.
  if (Bytes.size() < sizeof(EntryMagic) + 4 + 8 + 4 + 8)
    return MaoStatus::error("entry too short");
  const std::string_view Body = Bytes.substr(0, Bytes.size() - 8);
  size_t Pos = Bytes.size() - 8;
  uint64_t Trailer = 0;
  (void)readU64(Bytes, Pos, Trailer);
  if (fnv1a64(Body) != Trailer)
    return MaoStatus::error("checksum mismatch");
  if (std::memcmp(Body.data(), EntryMagic, sizeof(EntryMagic)) != 0)
    return MaoStatus::error("bad magic");
  Pos = sizeof(EntryMagic);
  uint32_t Version = 0;
  if (!readU32(Body, Pos, Version) || Version != EntryVersion)
    return MaoStatus::error("unsupported entry version");
  uint64_t Key = 0;
  if (!readU64(Body, Pos, Key) || Key != ExpectedKey)
    return MaoStatus::error("key mismatch");
  uint32_t NumSections = 0;
  if (!readU32(Body, Pos, NumSections) || NumSections > MaxSectionCount)
    return MaoStatus::error("bad section count");
  Out.Sections.clear();
  for (uint32_t I = 0; I < NumSections; ++I) {
    uint32_t NameLen = 0;
    if (!readU32(Body, Pos, NameLen) || Pos + NameLen > Body.size())
      return MaoStatus::error("truncated section name");
    std::string Name(Body.substr(Pos, NameLen));
    Pos += NameLen;
    uint64_t DataLen = 0;
    if (!readU64(Body, Pos, DataLen) || DataLen > MaxSectionBytes ||
        Pos + DataLen > Body.size())
      return MaoStatus::error("truncated section data");
    Out.Sections.emplace_back(std::move(Name),
                              std::string(Body.substr(Pos, DataLen)));
    Pos += DataLen;
  }
  if (Pos != Body.size())
    return MaoStatus::error("trailing bytes after sections");
  return MaoStatus::success();
}

MaoStatus ArtifactCache::open(const std::string &Dir) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return MaoStatus::error("cannot create cache directory " + Dir + ": " +
                            Ec.message());
  if (!fs::is_directory(Dir, Ec))
    return MaoStatus::error("cache path is not a directory: " + Dir);
  Root = Dir;
  StaleTmp.fetch_add(sweepStaleTmp(), std::memory_order_relaxed);
  recountEntries();
  // A budget set before open() applies to whatever the directory already
  // holds — reopening an over-budget cache trims it immediately.
  enforceBudget();
  return MaoStatus::success();
}

void ArtifactCache::setByteBudget(uint64_t Bytes) {
  BudgetBytes.store(Bytes, std::memory_order_relaxed);
}

uint64_t ArtifactCache::byteBudget() const {
  return BudgetBytes.load(std::memory_order_relaxed);
}

unsigned ArtifactCache::enforceBudget() {
  const uint64_t Budget = BudgetBytes.load(std::memory_order_relaxed);
  if (Budget == 0 || !isOpen())
    return 0;
  struct Candidate {
    fs::file_time_type Mtime;
    std::string Name; ///< Tiebreak for equal mtimes: deterministic order.
    uint64_t Size;
  };
  std::vector<Candidate> Files;
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &DirEntry : fs::directory_iterator(Root, Ec)) {
    if (DirEntry.path().extension() != ".mao")
      continue;
    std::error_code SizeEc, TimeEc;
    const uint64_t Size = DirEntry.file_size(SizeEc);
    const fs::file_time_type Mtime = DirEntry.last_write_time(TimeEc);
    if (SizeEc || TimeEc)
      continue; // Raced with an unlink: the entry no longer counts.
    Total += Size;
    Files.push_back({Mtime, DirEntry.path().filename().string(), Size});
  }
  if (Total <= Budget)
    return 0;
  std::sort(Files.begin(), Files.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Mtime != B.Mtime)
                return A.Mtime < B.Mtime;
              return A.Name < B.Name;
            });
  unsigned Removed = 0;
  for (const Candidate &C : Files) {
    if (Total <= Budget)
      break;
    // An unlink is atomic: the entry is either still whole or gone, so a
    // crash anywhere in this loop leaves a consistent (if oversized)
    // cache that the next store or open() keeps trimming.
    std::error_code RmEc;
    if (!fs::remove(fs::path(Root) / C.Name, RmEc) || RmEc)
      continue; // Another evictor beat us to it; its accounting wins.
    Total -= C.Size;
    ++Removed;
  }
  if (Removed) {
    Evicted.fetch_add(Removed, std::memory_order_relaxed);
    StatsRegistry::instance().counter("serve.cache_evictions").add(Removed);
    // Saturating subtract: concurrent evictors never drive Entries below
    // zero (each entry leaves the directory exactly once).
    uint64_t Count = Entries.load(std::memory_order_relaxed);
    while (!Entries.compare_exchange_weak(
        Count, Count - std::min<uint64_t>(Count, Removed),
        std::memory_order_relaxed))
      ;
    // Persist the unlinks so the trim survives a host crash.
    int DirFd = ::open(Root.c_str(), O_RDONLY | O_DIRECTORY);
    if (DirFd >= 0) {
      (void)::fsync(DirFd);
      ::close(DirFd);
    }
  }
  return Removed;
}

std::string ArtifactCache::entryPath(uint64_t Key) const {
  return Root + "/" + keyFileName(Key);
}

bool ArtifactCache::lookup(uint64_t Key, CacheEntry &Out) {
  if (!isOpen())
    return false;
  const std::string Path = entryPath(Key);
  std::string Bytes;
  if (!readEntryFile(Path, Bytes)) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (MaoStatus S = parseEntry(Bytes, Key, Out)) {
    quarantine(Path);
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

MaoStatus ArtifactCache::store(uint64_t Key, const CacheEntry &Entry) {
  if (!isOpen())
    return MaoStatus::error("artifact cache is not open");
  const std::string Path = entryPath(Key);
  // Unique per (process, instance, call): concurrent writers — including
  // other processes sharing the directory — never collide on the temp
  // name, and the publish itself is an atomic rename either way.
  const std::string Tmp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(TmpSeq.fetch_add(1, std::memory_order_relaxed));
  MaoStatus S = writeFileAtomic(Root, Path, Tmp, serializeEntry(Key, Entry));
  if (S) {
    StoreFailures.fetch_add(1, std::memory_order_relaxed);
    return S;
  }
  Stores.fetch_add(1, std::memory_order_relaxed);
  Entries.fetch_add(1, std::memory_order_relaxed);
  // Enforce the byte budget after publishing: the just-stored entry is
  // the newest and so the last eviction candidate (unless it alone
  // exceeds the budget, in which case evicting it is still correct —
  // the caller holds the computed result regardless).
  enforceBudget();
  return MaoStatus::success();
}

void ArtifactCache::quarantine(const std::string &Path) {
  std::error_code Ec;
  const fs::path Dir = fs::path(Root) / "quarantine";
  fs::create_directories(Dir, Ec);
  const fs::path Dest = Dir / fs::path(Path).filename();
  fs::rename(Path, Dest, Ec);
  if (Ec) // Can't move it aside: remove it so it cannot be re-read.
    fs::remove(Path, Ec);
  Quarantines.fetch_add(1, std::memory_order_relaxed);
  // The entry left the cache directory either way.
  uint64_t Count = Entries.load(std::memory_order_relaxed);
  while (Count > 0 &&
         !Entries.compare_exchange_weak(Count, Count - 1,
                                        std::memory_order_relaxed))
    ;
}

unsigned ArtifactCache::sweepStaleTmp() {
  unsigned Removed = 0;
  std::error_code Ec;
  for (const auto &DirEntry : fs::directory_iterator(Root, Ec)) {
    const std::string Name = DirEntry.path().filename().string();
    if (Name.find(".tmp.") != std::string::npos) {
      std::error_code RmEc;
      if (fs::remove(DirEntry.path(), RmEc))
        ++Removed;
    }
  }
  return Removed;
}

void ArtifactCache::recountEntries() {
  uint64_t Count = 0;
  std::error_code Ec;
  for (const auto &DirEntry : fs::directory_iterator(Root, Ec))
    if (DirEntry.path().extension() == ".mao")
      ++Count;
  Entries.store(Count, std::memory_order_relaxed);
}

unsigned ArtifactCache::fsck() {
  if (!isOpen())
    return 0;
  StaleTmp.fetch_add(sweepStaleTmp(), std::memory_order_relaxed);
  unsigned Quarantined = 0;
  std::error_code Ec;
  std::vector<fs::path> EntryFiles;
  for (const auto &DirEntry : fs::directory_iterator(Root, Ec))
    if (DirEntry.path().extension() == ".mao")
      EntryFiles.push_back(DirEntry.path());
  for (const fs::path &Path : EntryFiles) {
    // The file name is the key; a mis-named entry fails the key check and
    // is quarantined like any other corruption.
    uint64_t Key = 0;
    const std::string Stem = Path.stem().string();
    char *End = nullptr;
    Key = std::strtoull(Stem.c_str(), &End, 16);
    std::string Bytes;
    CacheEntry Entry;
    const bool Readable = readEntryFile(Path.string(), Bytes);
    if (!Readable || Stem.size() != 16 || *End != '\0' ||
        parseEntry(Bytes, Key, Entry)) {
      quarantine(Path.string());
      ++Quarantined;
    }
  }
  recountEntries();
  return Quarantined;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  Stats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Stores = Stores.load(std::memory_order_relaxed);
  S.StoreFailures = StoreFailures.load(std::memory_order_relaxed);
  S.Quarantines = Quarantines.load(std::memory_order_relaxed);
  S.StaleTmpRemoved = StaleTmp.load(std::memory_order_relaxed);
  S.Evictions = Evicted.load(std::memory_order_relaxed);
  S.Entries = Entries.load(std::memory_order_relaxed);
  return S;
}
