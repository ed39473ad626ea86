//===- bench/bench_crossing_latency.cpp - Per-crossing dispatch cost -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the per-crossing cost of each dispatch tier on five
/// representative JNI call classes:
///
///   get_version       check-free query (pre-only machine coverage)
///   string_utf_length reference use (nullness, typing, local-ref use)
///   new_delete_local  allocation + free (local-ref lifecycle)
///   frame_push_pop    pushdown counters (frame nesting, capacity)
///   static_field      Get/SetStaticIntField on a class defined after
///                     LateClassFillers others (class-mirror lookup in the
///                     VM and in the fixed- and entity-typing checks)
///
/// across five boundary treatments: bare (no dispatcher), interpose-only
/// (wrapped table, empty dispatcher), and Jinn under dense, sparse, and
/// fused dispatch. The headline result is ns/crossing per (op, tier) —
/// the fused tier must sit between interpose-only and sparse, i.e.
/// fused < sparse < dense on every op class.
///
/// Every tier's world is built up front and the tiers are measured
/// interleaved: each sample of an op times all five tiers back to back, and
/// the order rotates by one tier per sample, so over Samples samples every
/// tier takes every position once. Host drift and warm-up then land on all
/// tiers alike instead of on whichever tier ran first.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "scenarios/Scenarios.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::scenarios;

namespace {

struct TierSpec {
  const char *Name;
  CheckerKind Checker;
  bool Sparse;
  bool Fused;
};

const TierSpec Tiers[] = {
    {"bare", CheckerKind::None, true, false},
    {"interpose", CheckerKind::InterposeOnly, true, false},
    {"jinn_dense", CheckerKind::Jinn, false, false},
    {"jinn_sparse", CheckerKind::Jinn, true, false},
    {"jinn_fused", CheckerKind::Jinn, true, true},
};

struct OpClass {
  const char *Name;
  uint64_t CrossingsPerIter;
  void (*Run)(JNIEnv *, uint64_t Iters);
};

/// Classes defined ahead of the static_field class, so its mirror is one
/// of many in the VM's registry, as in an application.
constexpr int LateClassFillers = 32;
constexpr const char *LateClassName = "bench/LateStatics";

void runGetVersion(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->GetVersion(Env);
}

void runStringUtfLength(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  jstring S = Fns->NewStringUTF(Env, "crossing");
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->GetStringUTFLength(Env, S);
  Fns->DeleteLocalRef(Env, S);
}

void runNewDeleteLocal(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I) {
    jstring S = Fns->NewStringUTF(Env, "crossing");
    Fns->DeleteLocalRef(Env, S);
  }
}

void runFramePushPop(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  for (uint64_t I = 0; I < Iters; ++I) {
    Fns->PushLocalFrame(Env, 8);
    Fns->PopLocalFrame(Env, nullptr);
  }
}

void runStaticField(JNIEnv *Env, uint64_t Iters) {
  const JNINativeInterface_ *Fns = Env->functions;
  jclass Cls = Fns->FindClass(Env, LateClassName);
  jfieldID Counter = Fns->GetStaticFieldID(Env, Cls, "counter", "I");
  for (uint64_t I = 0; I < Iters; ++I)
    Fns->SetStaticIntField(Env, Cls, Counter,
                           Fns->GetStaticIntField(Env, Cls, Counter) + 1);
  Fns->DeleteLocalRef(Env, Cls);
}

const OpClass Ops[] = {
    {"get_version", 1, runGetVersion},
    {"string_utf_length", 1, runStringUtfLength},
    {"new_delete_local", 2, runNewDeleteLocal},
    {"frame_push_pop", 2, runFramePushPop},
    {"static_field", 2, runStaticField},
};

/// Defines the fillers, then the static_field class.
void defineLateClass(ScenarioWorld &World) {
  for (int I = 0; I < LateClassFillers; ++I) {
    jvm::ClassDef Filler;
    Filler.Name = "bench/Filler" + std::to_string(I);
    World.Vm.defineClass(Filler);
  }
  jvm::ClassDef Late;
  Late.Name = LateClassName;
  Late.field("counter", "I", /*IsStatic=*/true);
  World.Vm.defineClass(Late);
}

WorldConfig tierConfig(const TierSpec &Tier) {
  WorldConfig Config;
  Config.Checker = Tier.Checker;
  Config.JinnSparseDispatch = Tier.Sparse;
  Config.JinnFusedDispatch = Tier.Fused;
  return Config;
}

constexpr size_t NumTiers = sizeof(Tiers) / sizeof(Tiers[0]);
constexpr size_t NumOps = sizeof(Ops) / sizeof(Ops[0]);
constexpr size_t Samples = NumTiers; // one rotation: each tier in each slot

/// Seconds for \p Iters iterations of \p Op in \p World, timed inside a
/// native frame so every call crosses the interposed boundary exactly the
/// way client code does.
double sampleSeconds(ScenarioWorld &World, const OpClass &Op,
                     uint64_t Iters) {
  double Seconds = 0;
  World.runAsNative("BenchCrossing", [&](JNIEnv *Env) {
    Seconds = bench::timeSeconds([&] { Op.Run(Env, Iters); });
  });
  return Seconds;
}

} // namespace

int main(int Argc, char **Argv) {
  (void)Argc;
  (void)Argv;
  uint64_t Scale = 2048;
  if (const char *Env = std::getenv("JINN_BENCH_SCALE"))
    Scale = std::strtoull(Env, nullptr, 10);
  if (!Scale)
    Scale = 2048;
  uint64_t Iters = 64ull * 1024 * 1024 / Scale;
  if (Iters < 512)
    Iters = 512;

  bench::JsonResults Json("crossing_latency");
  bench::printHeader("Per-crossing dispatch latency (ns/crossing, "
                     "median of " + std::to_string(Samples) +
                     " interleaved samples; " +
                     std::to_string(Iters) + " iterations per sample)");
  std::printf("%-18s", "op class");
  for (const TierSpec &Tier : Tiers)
    std::printf(" %12s", Tier.Name);
  std::printf("\n");
  bench::printRule();

  std::vector<std::unique_ptr<ScenarioWorld>> Worlds;
  bool FusedEngaged = true;
  for (const TierSpec &Tier : Tiers) {
    Worlds.push_back(std::make_unique<ScenarioWorld>(tierConfig(Tier)));
    ScenarioWorld &World = *Worlds.back();
    defineLateClass(World);
    if (Tier.Fused && (!World.Jinn || !World.Jinn->fusedInstalled())) {
      std::fprintf(stderr, "bench_crossing_latency: fused tier refused: %s\n",
                   World.Jinn ? World.Jinn->fusedRefusal().c_str()
                              : "no agent");
      FusedEngaged = false;
    }
  }
  if (!FusedEngaged)
    return 1;

  // Ns[op][tier]: the median sample in ns/crossing.
  double Ns[NumOps][NumTiers];
  for (size_t O = 0; O < NumOps; ++O) {
    const OpClass &Op = Ops[O];
    for (auto &World : Worlds) // warm-up: ID caches, TLS, allocator
      sampleSeconds(*World, Op, Iters / 4 + 1);
    std::vector<double> Seconds[NumTiers];
    for (size_t S = 0; S < Samples; ++S)
      for (size_t K = 0; K < NumTiers; ++K) {
        size_t T = (S + K) % NumTiers;
        Seconds[T].push_back(sampleSeconds(*Worlds[T], Op, Iters));
      }
    for (size_t T = 0; T < NumTiers; ++T) {
      std::sort(Seconds[T].begin(), Seconds[T].end());
      Ns[O][T] = Seconds[T][Samples / 2] * 1e9 /
                 static_cast<double>(Iters * Op.CrossingsPerIter);
    }
  }
  for (auto &World : Worlds)
    World->shutdown();

  for (size_t O = 0; O < NumOps; ++O) {
    std::printf("%-18s", Ops[O].Name);
    for (size_t T = 0; T < NumTiers; ++T) {
      std::printf(" %9.1f ns", Ns[O][T]);
      // Absolute ns entries are informational only: single-tier wall
      // times swing several-fold with host load on small runners, so the
      // regression gate works on the intra-run ratio entries below, where
      // the host-speed factor cancels.
      Json.add(std::string(Ops[O].Name) + "/" + Tiers[T].Name + "/ns",
               Ns[O][T], "ns");
    }
    std::printf("\n");
  }
  bench::printRule();

  // Geomean per tier over the op classes, plus the headline ratios.
  double Gm[NumTiers];
  for (size_t T = 0; T < NumTiers; ++T) {
    double Acc = 0;
    for (size_t O = 0; O < NumOps; ++O)
      Acc += std::log(Ns[O][T]);
    Gm[T] = std::exp(Acc / NumOps);
    Json.add(std::string("geomean/") + Tiers[T].Name + "/ns", Gm[T], "ns");
  }
  std::printf("%-18s", "geomean");
  for (size_t T = 0; T < NumTiers; ++T)
    std::printf(" %9.1f ns", Gm[T]);
  std::printf("\n");

  double FusedVsSparse = Gm[4] / Gm[3];
  double FusedVsDense = Gm[4] / Gm[2];
  Json.add("ratio/fused_vs_sparse", FusedVsSparse, "x");
  Json.add("ratio/fused_vs_dense", FusedVsDense, "x");
  std::printf("\nfused/sparse = %.3fx, fused/dense = %.3fx "
              "(lower is better; expect fused < sparse < dense)\n",
              FusedVsSparse, FusedVsDense);
  if (!(Gm[4] < Gm[3] && Gm[3] < Gm[2]))
    std::printf("NOTE: tier ordering not strictly monotone in this run "
                "(timing noise at scale 1/%llu)\n",
                static_cast<unsigned long long>(Scale));

  Json.writeFile();
  return 0;
}
