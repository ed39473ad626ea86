//===- jinnbench/Worlds.cpp - Benchmark worlds and their native programs -===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Worlds.h"

#include "Slugs.h"
#include "Spans.h"
#include "Stats.h"

#include "jvmti/Interpose.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace jinn;
using namespace jinnbench;

/// IDs and shared objects the natives of one world use. Resolved once on
/// the main thread at construction, the way real JNI code caches them.
struct jinnbench::WorldContext {
  jclass NodeClass = nullptr; ///< global ref
  jfieldID NodeValue = nullptr;
  jmethodID NodeMix = nullptr;
  jmethodID StormFault = nullptr;
  jmethodID ServerFault = nullptr;
  jfieldID UnitCounter = nullptr;
  jmethodID UnitAccum = nullptr;
  struct Tenant {
    jobject Lock = nullptr;  ///< global ref: a Node whose `value` counts
    jobject Array = nullptr; ///< global ref: jintArray pinned by requests
  };
  Tenant Tenants[NumTenants];
};

CallStats *&jinnbench::threadStats() {
  thread_local CallStats *Stats = nullptr;
  return Stats;
}

void jinnbench::fatal(const std::string &Message) {
  std::fflush(stdout);
  std::fprintf(stderr, "jinnbench: error: %s\n", Message.c_str());
  std::exit(2);
}

namespace {

//===----------------------------------------------------------------------===
// Native programs
//===----------------------------------------------------------------------===

/// The Table 3 transition: the op mix of workloads/Workloads.cpp's `unit`,
/// with its about-2-us application work ahead of the JNI calls.
jvalue unitBody(WorldContext &C, JNIEnv *Env, jclass Cls, const jvalue *Args) {
  CallStats &S = *threadStats();
  const JNINativeInterface_ *Fns = Env->functions;
  const jint Seed = Args[0].i;
  uint64_t Mix = static_cast<uint64_t>(Seed) | 1;
  for (int K = 0; K < 1800; ++K) {
    Mix ^= Mix << 13;
    Mix ^= Mix >> 7;
    Mix ^= Mix << 17;
  }
  S.Checksum += Mix & 0xff;

  SpanScope Span(SpanName::Transition);
  switch (Seed & 3) {
  case 0: { // string marshalling
    jstring Str = Fns->NewStringUTF(Env, "org/dacapo/TokenStream");
    S.Checksum += static_cast<uint64_t>(Fns->GetStringUTFLength(Env, Str));
    Fns->DeleteLocalRef(Env, Str);
    S.Calls += 3;
    break;
  }
  case 1: { // cached-ID static field access
    jint V = Fns->GetStaticIntField(Env, Cls, C.UnitCounter);
    Fns->SetStaticIntField(Env, Cls, C.UnitCounter, V + 1);
    S.Checksum += static_cast<uint64_t>(V);
    S.Calls += 2;
    break;
  }
  case 2: { // array region traffic
    jintArray Arr = Fns->NewIntArray(Env, 16);
    jint Buf[16] = {Seed, Seed + 1, Seed + 2};
    Fns->SetIntArrayRegion(Env, Arr, 0, 16, Buf);
    Fns->GetIntArrayRegion(Env, Arr, 0, 16, Buf);
    S.Checksum += static_cast<uint64_t>(Buf[2]);
    Fns->DeleteLocalRef(Env, Arr);
    S.Calls += 4;
    break;
  }
  default: { // call-back into Java
    jvalue CallArgs[1];
    CallArgs[0].i = Seed;
    S.Checksum += static_cast<uint64_t>(
        Fns->CallStaticIntMethodA(Env, Cls, C.UnitAccum, CallArgs));
    S.Calls += 1;
    break;
  }
  }
  jvalue R;
  R.i = static_cast<jint>(S.Checksum);
  return R;
}

/// Table 1 pitfall 1: a Java call leaves an exception pending, the native
/// ignores it and calls an exception-sensitive JNI function, then clears.
/// Harmless raw; Jinn's Exception-state machine reports the NewStringUTF.
/// The checksum and call count exclude its results, which differ once a
/// checker suppresses the faulting call.
void seededBug(JNIEnv *Env, jclass Cls, jmethodID Fault, CallStats &S) {
  SpanScope Span(SpanName::SeededBug);
  const JNINativeInterface_ *Fns = Env->functions;
  Fns->CallStaticVoidMethodA(Env, Cls, Fault, nullptr);
  jstring Oops = Fns->NewStringUTF(Env, "jinnbench/after-fault");
  if (Oops)
    Fns->DeleteLocalRef(Env, Oops);
  Fns->ExceptionClear(Env);
  S.Calls += 3;
  S.SeededBugs += 1;
}

constexpr int StormDepth = 12;   ///< nested local frames
constexpr int StormPerKind = 8;  ///< strings, arrays and nodes per frame
constexpr int StormFrameCap = 32;

jvalue stormBody(WorldContext &C, JNIEnv *Env, jclass Cls,
                 const jvalue *Args) {
  CallStats &S = *threadStats();
  const JNINativeInterface_ *Fns = Env->functions;
  SplitMix64 Rng(0x73746f726dULL ^ static_cast<uint32_t>(Args[0].i));
  const int Ops = Args[1].i;
  const int OpClass = Args[2].i;

  // The working set: 288 live locals spread over twelve nested frames.
  static const char *const Texts[StormPerKind] = {
      "alpha", "org/dacapo/Token", "", "\xce\xbb-expr",
      "java/lang/String", "jinn", "boundary-crossing", "z"};
  jstring Strs[StormDepth][StormPerKind];
  jintArray Arrs[StormDepth][StormPerKind];
  jobject Nodes[StormDepth][StormPerKind];
  for (int D = 0; D < StormDepth; ++D) {
    Fns->PushLocalFrame(Env, StormFrameCap);
    for (int K = 0; K < StormPerKind; ++K) {
      Strs[D][K] = Fns->NewStringUTF(Env, Texts[K]);
      Arrs[D][K] = Fns->NewIntArray(Env, 16);
      Nodes[D][K] = Fns->AllocObject(Env, C.NodeClass);
    }
  }
  S.Calls += StormDepth * (1 + 3 * StormPerKind);

  // A balanced deck: every block of nine operations holds each class once,
  // in seeded order, so each seed runs the same proportions.
  int Deck[NumStormOps];
  for (int I = 0; I < NumStormOps; ++I)
    Deck[I] = I;

  const auto Start = std::chrono::steady_clock::now();
  auto BatchStart = Start;
  for (int I = 0; I < Ops; ++I) {
    if (OpClass < 0 && I % NumStormOps == 0)
      for (int J = NumStormOps - 1; J > 0; --J)
        std::swap(Deck[J], Deck[Rng.nextBelow(J + 1)]);
    const int Op = OpClass >= 0 ? OpClass : Deck[I % NumStormOps];
    const uint64_t Pick = Rng.next();
    const int D = static_cast<int>(Pick % StormDepth);
    const int K = static_cast<int>((Pick >> 16) % StormPerKind);
    SpanScope Span(static_cast<SpanName>(
        static_cast<int>(SpanName::StringUse) + Op));
    switch (Op) {
    case StringUse: {
      jstring Str = Strs[D][K];
      jsize Len = Fns->GetStringUTFLength(Env, Str);
      const char *Chars = Fns->GetStringUTFChars(Env, Str, nullptr);
      S.Checksum += static_cast<uint64_t>(Len) +
                    (Len ? static_cast<unsigned char>(Chars[Len - 1]) : 0);
      Fns->ReleaseStringUTFChars(Env, Str, Chars);
      S.Calls += 3;
      break;
    }
    case LocalChurn: {
      jobject Ref = Fns->NewLocalRef(Env, (Pick >> 32) & 1 ? Nodes[D][K]
                                                           : Strs[D][K]);
      S.Checksum += Ref != nullptr;
      Fns->DeleteLocalRef(Env, Ref);
      S.Calls += 2;
      break;
    }
    case FramePushPop:
      S.Checksum += static_cast<uint64_t>(Fns->PushLocalFrame(Env, 4) + 1);
      Fns->PopLocalFrame(Env, nullptr);
      S.Calls += 2;
      break;
    case GlobalChurn: {
      jobject Global = Fns->NewGlobalRef(Env, Nodes[D][K]);
      S.Checksum += Fns->IsSameObject(Env, Global, Nodes[D][K]);
      Fns->DeleteGlobalRef(Env, Global);
      S.Calls += 3;
      break;
    }
    case FieldAccess: {
      jint V = Fns->GetIntField(Env, Nodes[D][K], C.NodeValue);
      Fns->SetIntField(Env, Nodes[D][K], C.NodeValue, (V * 3 + 1) & 0xffff);
      S.Checksum += static_cast<uint64_t>(V);
      S.Calls += 2;
      break;
    }
    case Callback: {
      jvalue CallArgs[1];
      CallArgs[0].i = K + D;
      S.Checksum += static_cast<uint64_t>(
          Fns->CallIntMethodA(Env, Nodes[D][K], C.NodeMix, CallArgs));
      S.Calls += 1;
      break;
    }
    case ArrayPin: {
      jint *Elems = Fns->GetIntArrayElements(Env, Arrs[D][K], nullptr);
      Elems[K] += 1;
      S.Checksum += static_cast<uint64_t>(Elems[K]);
      Fns->ReleaseIntArrayElements(Env, Arrs[D][K], Elems, 0);
      S.Calls += 2;
      break;
    }
    case ArrayCritical: {
      auto *Elems = static_cast<jint *>(
          Fns->GetPrimitiveArrayCritical(Env, Arrs[D][K], nullptr));
      S.Checksum += static_cast<uint64_t>(Elems[(K + 1) & 15]);
      Fns->ReleasePrimitiveArrayCritical(Env, Arrs[D][K], Elems, JNI_ABORT);
      S.Calls += 2;
      break;
    }
    case MonitorEnterExit:
      S.Checksum += Fns->MonitorEnter(Env, Nodes[D][K]) == JNI_OK;
      Fns->MonitorExit(Env, Nodes[D][K]);
      S.Calls += 2;
      break;
    }
    if (OpClass == StormMixWithBugs && I % StormBugEvery == StormBugEvery - 1)
      seededBug(Env, Cls, C.StormFault, S);
    if (S.Batches && (I % StormBatchOps == StormBatchOps - 1 || I == Ops - 1)) {
      auto Now = std::chrono::steady_clock::now();
      S.Batches->add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Now -
                                                               BatchStart)
              .count()));
      BatchStart = Now;
    }
  }
  S.LoopNs += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
  S.Ops += static_cast<uint64_t>(Ops);

  for (int D = 0; D < StormDepth; ++D)
    Fns->PopLocalFrame(Env, nullptr);
  S.Calls += StormDepth;
  jvalue R;
  R.i = static_cast<jint>(S.Checksum);
  return R;
}

/// One tenant request. The checksum takes nothing from monitor-guarded
/// sections, which run only when the monitor is free, so it does not depend
/// on how requests interleave; entered and refused sections are counted.
jvalue requestBody(WorldContext &C, JNIEnv *Env, jclass Cls,
                   const jvalue *Args) {
  CallStats &S = *threadStats();
  const JNINativeInterface_ *Fns = Env->functions;
  WorldContext::Tenant &T =
      C.Tenants[static_cast<uint32_t>(Args[0].i) % NumTenants];
  SplitMix64 Rng(0x726571ULL ^ static_cast<uint32_t>(Args[1].i));
  const int Ops = Args[2].i;
  if (Args[3].i)
    seededBug(Env, Cls, C.ServerFault, S);

  for (int Op = 0; Op < Ops; ++Op) {
    const uint64_t Pick = Rng.next();
    switch (Pick % 3) {
    case 0: { // global-ref churn on the shared tenant array
      SpanScope Span(SpanName::GlobalChurn);
      jobject Ref = Fns->NewGlobalRef(Env, T.Array);
      S.Checksum += static_cast<uint64_t>(
          Fns->GetArrayLength(Env, static_cast<jarray>(Ref)));
      Fns->DeleteGlobalRef(Env, Ref);
      S.Calls += 3;
      break;
    }
    case 1: { // monitor-guarded tenant counter
      SpanScope Span(SpanName::MonitorEnterExit);
      // The simulated VM cannot block: a contended MonitorEnter returns
      // JNI_ERR and the guarded section is skipped, as in ServerSoak.
      if (Fns->MonitorEnter(Env, T.Lock) == JNI_OK) {
        S.MonitorAcquired += 1;
        jint V = Fns->GetIntField(Env, T.Lock, C.NodeValue);
        Fns->SetIntField(Env, T.Lock, C.NodeValue, V + 1);
        Fns->MonitorExit(Env, T.Lock);
      } else {
        S.MonitorRefused += 1;
      }
      S.Calls += 4;
      break;
    }
    default: { // pin the shared tenant array, read-only
      SpanScope Span(SpanName::ArrayPin);
      auto Arr = static_cast<jintArray>(T.Array);
      jint *Elems = Fns->GetIntArrayElements(Env, Arr, nullptr);
      S.Checksum += static_cast<uint64_t>(Elems[(Pick >> 8) & 63]);
      Fns->ReleaseIntArrayElements(Env, Arr, Elems, JNI_ABORT);
      S.Calls += 2;
      break;
    }
    }
  }
  jvalue R;
  R.i = static_cast<jint>(S.Checksum);
  return R;
}

jinn::jvm::Value faultBody(jinn::jvm::Vm &V, jinn::jvm::JThread &T,
                           const jinn::jvm::Value &,
                           const std::vector<jinn::jvm::Value> &) {
  V.throwNew(T, "java/lang/RuntimeException", "seeded fault");
  return jinn::jvm::Value::makeVoid();
}

scenarios::WorldConfig worldConfig(Config Cfg, const std::string &Machine) {
  scenarios::WorldConfig WC;
  switch (Cfg) {
  case Config::Bare:
    break;
  case Config::Interpose:
    WC.Checker = scenarios::CheckerKind::InterposeOnly;
    break;
  case Config::Xcheck:
    WC.Checker = scenarios::CheckerKind::Xcheck;
    break;
  case Config::JinnZero:
    WC.Checker = scenarios::CheckerKind::Jinn;
    WC.JinnEnabledMachines = {"(no machine has this name)"};
    break;
  case Config::JinnSingle:
    WC.Checker = scenarios::CheckerKind::Jinn;
    WC.JinnEnabledMachines = {Machine};
    break;
  case Config::JinnFull:
    WC.Checker = scenarios::CheckerKind::Jinn;
    break;
  case Config::RecordOnly:
    WC.Checker = scenarios::CheckerKind::Jinn;
    WC.JinnMode = agent::TraceMode::RecordOnly;
    break;
  case Config::Count:
    fatal("invalid configuration");
  }
  return WC;
}

bool isFused(Config Cfg) {
  return Cfg == Config::JinnZero || Cfg == Config::JinnSingle ||
         Cfg == Config::JinnFull;
}

} // namespace

BenchWorld::BenchWorld(Config Cfg, const std::string &Machine)
    : Cfg(Cfg), W(worldConfig(Cfg, Machine)),
      Ctx(std::make_shared<WorldContext>()) {
  const char *Name = ConfigNames[static_cast<size_t>(Cfg)];
  if (isFused(Cfg)) {
    if (!W.Jinn)
      fatal(std::string(Name) + ": no Jinn agent loaded");
    if (!W.Jinn->fusedInstalled())
      fatal(std::string(Name) + ": fused tier refused: " +
            W.Jinn->fusedRefusal());
    const size_t Expected = Cfg == Config::JinnFull
                                ? std::size(MachineSlugs)
                                : Cfg == Config::JinnSingle ? 1 : 0;
    for (spec::MachineBase *M : W.Jinn->activeMachines())
      if (!slugFor(M->spec().Name))
        fatal("machine \"" + M->spec().Name +
              "\" has no slug in jinnbench/Slugs.h");
    if (W.Jinn->activeMachines().size() != Expected)
      fatal(std::string(Name) + " " + Machine + ": " +
            std::to_string(W.Jinn->activeMachines().size()) +
            " active machines, expected " + std::to_string(Expected));
  }
  if (Cfg == Config::RecordOnly && (!W.Jinn || !W.Jinn->recorder()))
    fatal("record_only: no recorder installed");
  if (Cfg == Config::Xcheck && !W.Xcheck)
    fatal("xcheck: no -Xcheck:jni agent loaded");
  checkTier();

  // bench/WorkUnit comes from the workloads module; its `unit` native is
  // rebound here because the module's own body reads a driver-private
  // state that only runWorkload installs (with a fixed seed).
  workloads::prepareWorkloadWorld(W);

  jvm::ClassDef Node;
  Node.Name = "jinnbench/Node";
  Node.field("value", "I");
  Node.method(
      "mix", "(I)I",
      [](jvm::Vm &, jvm::JThread &, const jvm::Value &,
         const std::vector<jvm::Value> &Args) {
        return jvm::Value::makeInt(Args[0].I * 31 + 7);
      },
      /*IsStatic=*/false, "Node.java:7");
  W.Vm.defineClass(Node);

  jvm::ClassDef Storm;
  Storm.Name = "jinnbench/Storm";
  Storm.method("fault", "()V", faultBody, /*IsStatic=*/true, "Storm.java:9");
  Storm.nativeMethod("run", "(IIII)I", /*IsStatic=*/true, "Storm.java:14");
  Storm.nativeMethod("nop", "()V", /*IsStatic=*/true, "Storm.java:15");
  W.Vm.defineClass(Storm);

  jvm::ClassDef Server;
  Server.Name = "jinnbench/Server";
  Server.method("fault", "()V", faultBody, /*IsStatic=*/true,
                "Server.java:9");
  Server.nativeMethod("handle", "(IIII)I", /*IsStatic=*/true,
                      "Server.java:17");
  W.Vm.defineClass(Server);

  std::shared_ptr<WorldContext> C = Ctx;
  W.Rt.registerNative(W.Vm.findClass("bench/WorkUnit"), "unit", "(I)I",
                      [C](JNIEnv *Env, jobject Self, const jvalue *Args) {
                        return unitBody(*C, Env, static_cast<jclass>(Self),
                                        Args);
                      });
  W.Rt.registerNative(W.Vm.findClass("jinnbench/Storm"), "run", "(IIII)I",
                      [C](JNIEnv *Env, jobject Self, const jvalue *Args) {
                        return stormBody(*C, Env, static_cast<jclass>(Self),
                                         Args);
                      });
  W.Rt.registerNative(W.Vm.findClass("jinnbench/Storm"), "nop", "()V",
                      [](JNIEnv *, jobject, const jvalue *) {
                        jvalue R;
                        R.j = 0;
                        return R;
                      });
  W.Rt.registerNative(W.Vm.findClass("jinnbench/Server"), "handle",
                      "(IIII)I",
                      [C](JNIEnv *Env, jobject Self, const jvalue *Args) {
                        return requestBody(*C, Env, static_cast<jclass>(Self),
                                           Args);
                      });

  // Resolve IDs and build the tenants on the main thread.
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = Env->functions;
  jclass NodeLocal = Fns->FindClass(Env, "jinnbench/Node");
  C->NodeClass = static_cast<jclass>(Fns->NewGlobalRef(Env, NodeLocal));
  C->NodeValue = Fns->GetFieldID(Env, NodeLocal, "value", "I");
  C->NodeMix = Fns->GetMethodID(Env, NodeLocal, "mix", "(I)I");
  jclass StormLocal = Fns->FindClass(Env, "jinnbench/Storm");
  C->StormFault = Fns->GetStaticMethodID(Env, StormLocal, "fault", "()V");
  jclass ServerLocal = Fns->FindClass(Env, "jinnbench/Server");
  C->ServerFault = Fns->GetStaticMethodID(Env, ServerLocal, "fault", "()V");
  jclass UnitLocal = Fns->FindClass(Env, "bench/WorkUnit");
  C->UnitCounter = Fns->GetStaticFieldID(Env, UnitLocal, "counter", "I");
  C->UnitAccum = Fns->GetStaticMethodID(Env, UnitLocal, "accum", "(I)I");
  for (unsigned T = 0; T < NumTenants; ++T) {
    jobject Lock = Fns->AllocObject(Env, NodeLocal);
    jintArray Arr = Fns->NewIntArray(Env, 64);
    jint Seeded[64];
    for (int I = 0; I < 64; ++I)
      Seeded[I] = static_cast<jint>(T * 64 + I);
    Fns->SetIntArrayRegion(Env, Arr, 0, 64, Seeded);
    C->Tenants[T].Lock = Fns->NewGlobalRef(Env, Lock);
    C->Tenants[T].Array = Fns->NewGlobalRef(Env, Arr);
    Fns->DeleteLocalRef(Env, Lock);
    Fns->DeleteLocalRef(Env, Arr);
  }
  for (jclass Local : {NodeLocal, StormLocal, ServerLocal, UnitLocal})
    Fns->DeleteLocalRef(Env, Local);
  if (!C->NodeValue || !C->NodeMix || !C->StormFault || !C->ServerFault ||
      !C->UnitCounter || !C->UnitAccum)
    fatal(std::string(Name) + ": benchmark class IDs did not resolve");
  if (reportCount() || xcheckDetections())
    fatal(std::string(Name) + ": checker reported on world set-up");
}

BenchWorld::~BenchWorld() = default;

void BenchWorld::checkTier() const {
  if (!isFused(Cfg))
    return;
  const jvmti::InterposeDispatcher &D =
      jvmti::dispatcherFor(const_cast<jni::JniRuntime &>(W.Rt));
  if (!D.fusedActive() || D.demotionCount() != 0)
    fatal(std::string(ConfigNames[static_cast<size_t>(Cfg)]) +
          ": dispatcher left the fused tier (demotions: " +
          std::to_string(D.demotionCount()) + ")");
}

void BenchWorld::transitions(uint64_t N, uint64_t Seed,
                             LatencyHistogram &Lat) {
  jvm::JThread &Main = W.Vm.mainThread();
  jvm::MethodInfo *Unit = W.Vm.findClass("bench/WorkUnit")
                              ->findMethod("unit", "(I)I", /*WantStatic=*/true);
  SplitMix64 Rng(Seed);
  std::vector<jvm::Value> Args(1);
  const jvm::Value Null = jvm::Value::makeNull();
  for (uint64_t I = 0; I < N; ++I) {
    Args[0] = jvm::Value::makeInt(static_cast<int32_t>(Rng.next() & 0x7fffffff));
    auto Start = std::chrono::steady_clock::now();
    {
      SpanScope Span(SpanName::VmInvoke);
      W.Vm.invoke(Main, Unit, Null, Args, /*VirtualDispatch=*/false);
    }
    Lat.add(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()));
  }
}

void BenchWorld::storm(uint32_t Seed, int Ops, int OpClass) {
  jvm::MethodInfo *Run = W.Vm.findClass("jinnbench/Storm")
                             ->findMethod("run", "(IIII)I", true);
  std::vector<jvm::Value> Args = {
      jvm::Value::makeInt(static_cast<int32_t>(Seed)),
      jvm::Value::makeInt(Ops), jvm::Value::makeInt(OpClass),
      jvm::Value::makeInt(0)};
  SpanScope Span(SpanName::VmInvoke);
  W.Vm.invoke(W.Vm.mainThread(), Run, jvm::Value::makeNull(), Args, false);
}

void BenchWorld::nops(uint64_t N) {
  jvm::MethodInfo *Nop =
      W.Vm.findClass("jinnbench/Storm")->findMethod("nop", "()V", true);
  const std::vector<jvm::Value> NoArgs;
  const jvm::Value Null = jvm::Value::makeNull();
  for (uint64_t I = 0; I < N; ++I)
    W.Vm.invoke(W.Vm.mainThread(), Nop, Null, NoArgs, false);
}

void BenchWorld::request(jvm::JThread &Thread, uint32_t Tenant, uint32_t Seed,
                         int Ops, bool Buggy) {
  jvm::MethodInfo *Handle = W.Vm.findClass("jinnbench/Server")
                                ->findMethod("handle", "(IIII)I", true);
  std::vector<jvm::Value> Args = {
      jvm::Value::makeInt(static_cast<int32_t>(Tenant)),
      jvm::Value::makeInt(static_cast<int32_t>(Seed & 0x7fffffff)),
      jvm::Value::makeInt(Ops), jvm::Value::makeInt(Buggy ? 1 : 0)};
  SpanScope Span(SpanName::VmInvoke);
  W.Vm.invoke(Thread, Handle, jvm::Value::makeNull(), Args, false);
}

bool BenchWorld::crashed() {
  const DiagnosticSink &D = W.Vm.diags();
  return W.Vm.mainThread().Poisoned || D.has(IncidentKind::SimulatedCrash) ||
         D.has(IncidentKind::FatalError) ||
         D.has(IncidentKind::PotentialDeadlock);
}

size_t BenchWorld::reportCount() const {
  return W.Jinn ? W.Jinn->reporter().reportCount() : 0;
}

size_t BenchWorld::xcheckDetections() const {
  return W.Xcheck ? W.Xcheck->reporter().detections().size() : 0;
}

uint64_t BenchWorld::tenantCounterSum() {
  JNIEnv *Env = W.env();
  uint64_t Sum = 0;
  for (const WorldContext::Tenant &T : Ctx->Tenants)
    Sum += static_cast<uint64_t>(
        Env->functions->GetIntField(Env, T.Lock, Ctx->NodeValue));
  return Sum;
}

uint32_t BenchWorld::threadIdsUsed() const {
  return static_cast<uint32_t>(W.Vm.threads().size());
}
