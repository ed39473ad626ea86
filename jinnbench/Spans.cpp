//===- jinnbench/Spans.cpp - In-memory span recorder for traced runs -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

using namespace jinnbench;

bool jinnbench::spans::On = false;

const char *jinnbench::spanName(SpanName Name) {
  static const char *const Names[] = {
      "synth.world_build", "jvm.invoke",         "jni.string_use",
      "jni.local_churn",   "jni.frame_push_pop", "jni.global_churn",
      "jni.field_access",  "jni.callback",       "jni.array_pin",
      "jni.array_critical", "jni.monitor_enter_exit", "jni.seeded_bug",
      "jni.transition_mix", "jvm.attach",        "jvm.detach",
      "app.request",       "trace.collect",      "trace.write",
      "trace.read",        "trace.replay",
  };
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                static_cast<size_t>(SpanName::Count));
  return Names[static_cast<size_t>(Name)];
}

namespace {

constexpr uint32_t NoSpan = 0xffffffffu;
/// Raw spans kept per thread for the written file. Every span, kept or
/// not, costs the same and feeds the summary.
constexpr size_t MaxRawSpansPerThread = 1u << 14;
constexpr size_t MaxDepth = 32;
constexpr size_t NumConfigTags = 16;

struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint32_t Parent = NoSpan;
  uint32_t Request = 0;
  SpanName Name = SpanName::Count;
  uint8_t Config = 0;
};

struct Totals {
  uint64_t Count = 0, TotalNs = 0, SelfNs = 0;
};

struct OpenSpan {
  uint64_t Start = 0;
  uint64_t ChildNs = 0;
  uint32_t Raw = NoSpan; ///< index into Raw, when kept
  SpanName Name = SpanName::Count;
  uint8_t Config = 0;
};

struct ThreadSpans {
  uint32_t Tid = 0;
  std::vector<Span> Raw;
  OpenSpan Stack[MaxDepth];
  size_t Depth = 0;
  uint8_t Config = 0;
  uint32_t Request = 0;
  uint64_t Dropped = 0; ///< spans not kept raw
  Totals Summary[static_cast<size_t>(SpanName::Count)][NumConfigTags];
};

std::mutex RegistryMu;
std::vector<std::unique_ptr<ThreadSpans>> &registry() {
  static std::vector<std::unique_ptr<ThreadSpans>> Buffers;
  return Buffers;
}

ThreadSpans &local() {
  thread_local ThreadSpans *Mine = nullptr;
  if (!Mine) {
    auto Owned = std::make_unique<ThreadSpans>();
    Owned->Raw.reserve(4096);
    std::lock_guard<std::mutex> Lock(RegistryMu);
    Owned->Tid = static_cast<uint32_t>(registry().size());
    Mine = Owned.get();
    registry().push_back(std::move(Owned));
  }
  return *Mine;
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

void jinnbench::spans::setThreadConfig(uint8_t Config) {
  local().Config = Config % NumConfigTags;
}

void jinnbench::spans::setThreadRequest(uint32_t Request) {
  local().Request = Request;
}

uint32_t jinnbench::spans::beginSpan(SpanName Name) {
  ThreadSpans &T = local();
  if (T.Depth == MaxDepth)
    return NoSpan;
  OpenSpan &O = T.Stack[T.Depth];
  O.Name = Name;
  O.Config = T.Config;
  O.ChildNs = 0;
  O.Raw = NoSpan;
  if (T.Raw.size() < MaxRawSpansPerThread) {
    Span S;
    S.Name = Name;
    S.Config = T.Config;
    S.Request = T.Request;
    S.Parent = T.Depth ? T.Stack[T.Depth - 1].Raw : NoSpan;
    O.Raw = static_cast<uint32_t>(T.Raw.size());
    T.Raw.push_back(S);
  } else {
    ++T.Dropped;
  }
  ++T.Depth;
  O.Start = nowNs();
  return static_cast<uint32_t>(T.Depth - 1);
}

void jinnbench::spans::endSpan(uint32_t) {
  const uint64_t End = nowNs();
  ThreadSpans &T = local();
  OpenSpan &O = T.Stack[--T.Depth];
  const uint64_t Ns = End - O.Start;
  Totals &Tot = T.Summary[static_cast<size_t>(O.Name)][O.Config];
  Tot.Count += 1;
  Tot.TotalNs += Ns;
  Tot.SelfNs += Ns > O.ChildNs ? Ns - O.ChildNs : 0;
  if (T.Depth)
    T.Stack[T.Depth - 1].ChildNs += Ns;
  if (O.Raw != NoSpan) {
    T.Raw[O.Raw].Start = O.Start;
    T.Raw[O.Raw].End = End;
  }
}

uint64_t jinnbench::spans::recorded() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  uint64_t N = 0;
  for (const auto &T : registry())
    N += T->Raw.size();
  return N;
}

uint64_t jinnbench::spans::dropped() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  uint64_t N = 0;
  for (const auto &T : registry())
    N += T->Dropped;
  return N;
}

bool jinnbench::spans::writeJsonLines(const std::string &Path,
                                      const char *const *ConfigNames,
                                      size_t NumConfigs) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  auto ConfigName = [&](size_t C) {
    return C < NumConfigs ? ConfigNames[C] : "?";
  };
  Totals Summary[static_cast<size_t>(SpanName::Count)][NumConfigTags] = {};

  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (const auto &T : registry()) {
    for (size_t I = 0; I < T->Raw.size(); ++I) {
      const Span &S = T->Raw[I];
      if (S.End < S.Start)
        continue; // still open when the run ended
      std::fprintf(Out,
                   "{\"tid\":%u,\"id\":%zu,\"name\":\"%s\",\"config\":\"%s\","
                   "\"request\":%u,\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld}\n",
                   T->Tid, I, spanName(S.Name), ConfigName(S.Config),
                   S.Request, static_cast<unsigned long long>(S.Start),
                   static_cast<unsigned long long>(S.End),
                   S.Parent == NoSpan ? -1LL
                                      : static_cast<long long>(S.Parent));
    }
    for (size_t N = 0; N < static_cast<size_t>(SpanName::Count); ++N)
      for (size_t C = 0; C < NumConfigTags; ++C) {
        Summary[N][C].Count += T->Summary[N][C].Count;
        Summary[N][C].TotalNs += T->Summary[N][C].TotalNs;
        Summary[N][C].SelfNs += T->Summary[N][C].SelfNs;
      }
  }
  for (size_t N = 0; N < static_cast<size_t>(SpanName::Count); ++N)
    for (size_t C = 0; C < NumConfigTags; ++C) {
      const Totals &Tot = Summary[N][C];
      if (!Tot.Count)
        continue;
      std::fprintf(Out,
                   "{\"summary\":\"%s\",\"config\":\"%s\",\"count\":%llu,"
                   "\"total_ns\":%llu,\"self_ns\":%llu}\n",
                   spanName(static_cast<SpanName>(N)), ConfigName(C),
                   static_cast<unsigned long long>(Tot.Count),
                   static_cast<unsigned long long>(Tot.TotalNs),
                   static_cast<unsigned long long>(Tot.SelfNs));
    }
  return std::fclose(Out) == 0;
}
