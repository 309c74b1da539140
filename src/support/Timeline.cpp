//===- support/Timeline.cpp - Chrome trace-event timeline -----------------===//

#include "support/Timeline.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>

using namespace mao;

namespace {
std::atomic<Timeline *> ActiveTimeline{nullptr};
} // namespace

Timeline *Timeline::active() {
  return ActiveTimeline.load(std::memory_order_acquire);
}

void Timeline::setActive(Timeline *T) {
  ActiveTimeline.store(T, std::memory_order_release);
}

uint64_t Timeline::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

void Timeline::record(const char *Category, std::string Name,
                      uint64_t BeginUs, uint64_t EndUs) {
  std::lock_guard<std::mutex> Lock(M);
  unsigned Lane;
  auto It = Lanes.find(std::this_thread::get_id());
  if (It != Lanes.end()) {
    Lane = It->second;
  } else {
    Lane = static_cast<unsigned>(Lanes.size());
    Lanes.emplace(std::this_thread::get_id(), Lane);
  }
  Events.push_back(Event{std::move(Name), Category, BeginUs,
                         EndUs >= BeginUs ? EndUs - BeginUs : 0, Lane});
}

size_t Timeline::eventCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Events.size();
}

std::string Timeline::renderJson() const {
  std::vector<Event> Sorted;
  size_t NumLanes;
  {
    std::lock_guard<std::mutex> Lock(M);
    Sorted = Events;
    NumLanes = Lanes.size();
  }
  std::stable_sort(Sorted.begin(), Sorted.end(),
                   [](const Event &A, const Event &B) {
                     if (A.BeginUs != B.BeginUs)
                       return A.BeginUs < B.BeginUs;
                     return A.Lane < B.Lane;
                   });
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"mao\"}}";
  char Buf[128];
  for (size_t Lane = 0; Lane < NumLanes; ++Lane) {
    char LaneName[32];
    if (Lane == 0)
      std::snprintf(LaneName, sizeof(LaneName), "main");
    else
      std::snprintf(LaneName, sizeof(LaneName), "worker-%zu", Lane);
    std::snprintf(Buf, sizeof(Buf),
                  ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                  Lane, LaneName);
    Out += Buf;
  }
  for (const Event &E : Sorted) {
    Out += ",\n{\"name\":\"";
    Out += jsonEscape(E.Name);
    std::snprintf(Buf, sizeof(Buf),
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%llu,"
                  "\"dur\":%llu,\"pid\":1,\"tid\":%u}",
                  E.Category, (unsigned long long)E.BeginUs,
                  (unsigned long long)E.DurationUs, E.Lane);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}
