//===- tests/TestCorpus.h - The example and SPEC test corpus ----*- C++ -*-===//
///
/// \file
/// The inputs the differential tests sweep: every examples/*.s program, in
/// name order, and every SPEC 2000/2006 workload profile. A test target
/// that includes this defines MAO_EXAMPLES_DIR.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_TESTS_TESTCORPUS_H
#define MAO_TESTS_TESTCORPUS_H

#include "support/FileIO.h"
#include "workload/Workload.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace mao {

/// (name, assembly text) for examples/*.s and every SPEC profile.
inline std::vector<std::pair<std::string, std::string>> exampleAndSpecCorpus() {
  std::vector<std::pair<std::string, std::string>> Corpus;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(MAO_EXAMPLES_DIR))
    if (Entry.path().extension() == ".s")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &Path : Files) {
    std::string Text;
    readWholeFile(Path.string(), Text);
    Corpus.emplace_back(Path.filename().string(), std::move(Text));
  }
  std::vector<WorkloadSpec> Specs = spec2000IntProfiles();
  for (WorkloadSpec &S : spec2006Profiles())
    Specs.push_back(S);
  for (const WorkloadSpec &S : Specs)
    Corpus.emplace_back(S.Name, generateWorkloadAssembly(S));
  return Corpus;
}

} // namespace mao

#endif // MAO_TESTS_TESTCORPUS_H
