//===- jvmti/Interpose.cpp - JNI function-table interposition ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvmti/Interpose.h"

#include "jni/EnvImplDetail.h"
#include "jvm/JThread.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace jinn;
using namespace jinn::jvmti;
using jinn::jni::ArgClass;
using jinn::jni::FnId;

//===----------------------------------------------------------------------===
// CapturedCall
//===----------------------------------------------------------------------===

jvm::MethodInfo *CapturedCall::methodArg() const {
  int Index = Traits->firstParam(ArgClass::MethodId);
  if (Index < 0)
    return nullptr;
  const void *Ptr = Args[Index].Ptr;
  // Under replay the registry may have changed since recording; trust the
  // validity bit snapshotted at crossing time instead.
  bool Valid = Snap ? Snap->MethodIdValid : (Ptr && vm().isMethodId(Ptr));
  if (!Ptr || !Valid)
    return nullptr;
  return const_cast<jvm::MethodInfo *>(
      static_cast<const jvm::MethodInfo *>(Ptr));
}

uint64_t CapturedCall::methodArgWord() const {
  int Index = Traits->firstParam(ArgClass::MethodId);
  return Index < 0 ? 0 : Args[Index].Word;
}

jvm::FieldInfo *CapturedCall::fieldArg() const {
  int Index = Traits->firstParam(ArgClass::FieldId);
  if (Index < 0)
    return nullptr;
  const void *Ptr = Args[Index].Ptr;
  bool Valid = Snap ? Snap->FieldIdValid : (Ptr && vm().isFieldId(Ptr));
  if (!Ptr || !Valid)
    return nullptr;
  return const_cast<jvm::FieldInfo *>(
      static_cast<const jvm::FieldInfo *>(Ptr));
}

uint64_t CapturedCall::fieldArgWord() const {
  int Index = Traits->firstParam(ArgClass::FieldId);
  return Index < 0 ? 0 : Args[Index].Word;
}

bool CapturedCall::returnFieldIdValid() const {
  if (Snap)
    return Snap->RetFieldIdValid;
  return RetPtr && vm().isFieldId(RetPtr);
}

std::optional<std::span<const jvalue>>
CapturedCall::callArgs(const jvm::MethodInfo &M) const {
  if (Snap) {
    // The recorder copied (and bounds-capped) the argument array at
    // crossing time; the raw jvalue array pointer in the trace is dead.
    if (!Snap->HasCallArgs)
      return std::nullopt;
    return std::span<const jvalue>(Snap->CallArgs, Snap->NumCallArgs);
  }
  int ArrIndex = Traits->firstParam(ArgClass::JvalueArray);
  if (ArrIndex < 0)
    return std::nullopt;
  const jvalue *Raw = static_cast<const jvalue *>(Args[ArrIndex].Ptr);
  size_t N = M.Sig.Params.size();
  if (!Raw && N > 0)
    return std::nullopt;
  return std::span<const jvalue>(Raw, N);
}

//===----------------------------------------------------------------------===
// HookList
//===----------------------------------------------------------------------===

void HookList::push(HookFn Hook) {
  uint32_t N = Count.load(std::memory_order_relaxed);
  if (N >= Capacity) {
    std::fprintf(stderr,
                 "jinn: HookList capacity (%zu) exceeded — raise "
                 "jvmti::HookList::Capacity\n",
                 Capacity);
    std::abort();
  }
  Slots[N] = std::move(Hook);
  // Publish after the slot is fully constructed: a concurrent crossing
  // either sees the old count (hook not yet active) or the new count with
  // a valid slot.
  Count.store(N + 1, std::memory_order_release);
}

void HookList::reset() {
  Count.store(0, std::memory_order_relaxed);
  for (HookFn &Slot : Slots)
    Slot = nullptr;
}

//===----------------------------------------------------------------------===
// InterposeDispatcher
//===----------------------------------------------------------------------===

void InterposeDispatcher::addPre(FnId Id, HookFn Hook) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  demoteToDynamic();
  Pre[static_cast<size_t>(Id)].push(std::move(Hook));
  HookMask[static_cast<size_t>(Id)].fetch_or(HasPre,
                                             std::memory_order_release);
}

void InterposeDispatcher::addPost(FnId Id, HookFn Hook) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  demoteToDynamic();
  Post[static_cast<size_t>(Id)].push(std::move(Hook));
  HookMask[static_cast<size_t>(Id)].fetch_or(HasPost,
                                             std::memory_order_release);
}

void InterposeDispatcher::addPreAll(HookFn Hook) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  demoteToDynamic();
  PreAll.push(std::move(Hook));
  AnyPreAll.store(true, std::memory_order_release);
}

void InterposeDispatcher::addPostAll(HookFn Hook) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  demoteToDynamic();
  PostAll.push(std::move(Hook));
  AnyPostAll.store(true, std::memory_order_release);
}

bool InterposeDispatcher::installFused(
    std::shared_ptr<const FusedTable> Table) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  if (!Table || !Table->Run)
    return false;
  // An all-function hook (the recorder) or a sampling predicate means the
  // dynamic surface already carries behavior the fused program does not
  // encode — stay dynamic.
  if (AnyPreAll.load(std::memory_order_relaxed) ||
      AnyPostAll.load(std::memory_order_relaxed) ||
      SamplerGen.load(std::memory_order_relaxed) != 0)
    return false;
  FusedOwner = std::move(Table);
  FusedPtr.store(FusedOwner.get(), std::memory_order_release);
  return true;
}

void InterposeDispatcher::demoteToDynamic() {
  // One-way: clear the tier pointer but keep the owner, so crossings that
  // already loaded it finish on a live program.
  if (FusedPtr.exchange(nullptr, std::memory_order_release))
    Demotions.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Per-OS-thread cache of the sampling decision, keyed by the dispatcher's
/// sampler generation and the VM thread id. Thread ids are never reused,
/// so a worker that detaches and reattaches as a new request thread misses
/// the cache and re-evaluates the predicate for its new identity.
struct SampleCacheEntry {
  uint64_t Gen = 0;
  uint32_t ThreadId = 0;
  bool Sampled = true;
};
thread_local SampleCacheEntry LocalSampleCache;

std::atomic<uint64_t> NextSamplerGen{1};

} // namespace

void InterposeDispatcher::setSampler(SamplePredicate Fn) {
  std::lock_guard<std::mutex> Lock(InstallMu);
  // Sampling gates crossings the fused program would run unconditionally.
  demoteToDynamic();
  Sampler = std::move(Fn);
  SamplerGen.store(Sampler
                       ? NextSamplerGen.fetch_add(1, std::memory_order_relaxed)
                       : 0,
                   std::memory_order_release);
}

bool InterposeDispatcher::checksThread(jvm::JThread &Thread) const {
  uint64_t Gen = SamplerGen.load(std::memory_order_acquire);
  if (!Gen)
    return true;
  SampleCacheEntry &Cache = LocalSampleCache;
  if (Cache.Gen == Gen && Cache.ThreadId == Thread.id())
    return Cache.Sampled;
  bool Sampled = true;
  {
    // Cold path (once per thread per sampler generation): the predicate is
    // read under the install mutex so setSampler can swap it safely.
    std::lock_guard<std::mutex> Lock(
        const_cast<InterposeDispatcher *>(this)->InstallMu);
    if (Sampler)
      Sampled = Sampler(Thread);
  }
  Cache = {Gen, Thread.id(), Sampled};
  return Sampled;
}

void InterposeDispatcher::runPre(CapturedCall &Call) const {
  // Sampled mode gates the whole boundary per thread: unsampled threads
  // neither record (all-function hooks) nor check (per-function machine
  // hooks). That is what makes 1-in-N sampling cheap — the only per-call
  // cost off the sample is this cached predicate — and it keeps the
  // replay contract exact: a sampled thread's full event stream is in the
  // trace, so its inline reports reproduce byte-for-byte offline.
  if (SamplerGen.load(std::memory_order_relaxed) && Call.env() &&
      !checksThread(*Call.env()->thread))
    return;
  size_t NAll = PreAll.size();
  for (size_t I = 0; I < NAll; ++I) {
    PreAll[I](Call);
    if (Call.aborted())
      return;
  }
  const HookList &List = Pre[static_cast<size_t>(Call.id())];
  size_t N = List.size();
  for (size_t I = 0; I < N; ++I) {
    List[I](Call);
    if (Call.aborted())
      return;
  }
}

void InterposeDispatcher::runPost(CapturedCall &Call) const {
  if (SamplerGen.load(std::memory_order_relaxed) && Call.env() &&
      !checksThread(*Call.env()->thread))
    return;
  size_t NAll = PostAll.size();
  for (size_t I = 0; I < NAll; ++I)
    PostAll[I](Call);
  const HookList &List = Post[static_cast<size_t>(Call.id())];
  size_t N = List.size();
  for (size_t I = 0; I < N; ++I)
    List[I](Call);
}

size_t InterposeDispatcher::hookCount() const {
  size_t N = PreAll.size() + PostAll.size();
  for (const HookList &List : Pre)
    N += List.size();
  for (const HookList &List : Post)
    N += List.size();
  return N;
}

size_t InterposeDispatcher::preCount(FnId Id) const {
  return Pre[static_cast<size_t>(Id)].size();
}

size_t InterposeDispatcher::postCount(FnId Id) const {
  return Post[static_cast<size_t>(Id)].size();
}

void InterposeDispatcher::clear() {
  std::lock_guard<std::mutex> Lock(InstallMu);
  for (HookList &List : Pre)
    List.reset();
  for (HookList &List : Post)
    List.reset();
  PreAll.reset();
  PostAll.reset();
  for (auto &Mask : HookMask)
    Mask.store(0, std::memory_order_relaxed);
  AnyPreAll.store(false, std::memory_order_relaxed);
  AnyPostAll.store(false, std::memory_order_relaxed);
  Sampler = nullptr;
  SamplerGen.store(0, std::memory_order_relaxed);
  FusedPtr.store(nullptr, std::memory_order_relaxed);
  FusedOwner.reset();
  Demotions.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===
// Generated wrappers and the interposed table
//===----------------------------------------------------------------------===

namespace {

template <FnId Id, typename F, F Impl> struct MakeWrapper;

template <FnId Id, typename Ret, typename... Args,
          Ret (*Impl)(JNIEnv *, Args...)>
struct MakeWrapper<Id, Ret (*)(JNIEnv *, Args...), Impl> {
  /// Tier 1: a fused table is installed. The per-function record carries
  /// everything the crossing needs — slot extents and the hoisted traits
  /// pointer — so a check-free function costs one load and compare, and a
  /// checked function runs its straight-line slot program with no hook
  /// walk, mask test, or std::function dispatch.
  static Ret runFused(const FusedTable *Fused, JNIEnv *Env, Args... As) {
    const FusedTable::FnRec &Rec = Fused->Fns[static_cast<size_t>(Id)];
    if ((Rec.PreCount | Rec.PostCount) == 0)
      return Impl(Env, As...);
    CapturedCall Call(Id, Env, Rec.Traits);
    (Call.captureOne(As), ...);
    if (Rec.PreCount) {
      Fused->Run(Fused->Program, Rec, Call, /*IsPost=*/false);
      if (Call.aborted()) {
        // The checker suppressed the call (paper Figure 4: "raise a JNI
        // exception" instead of executing the faulty call).
        if constexpr (!std::is_void_v<Ret>)
          return Ret{};
        else
          return;
      }
    }
    if constexpr (std::is_void_v<Ret>) {
      Impl(Env, As...);
      if (Rec.PostCount) {
        Call.setReturnVoid();
        Fused->Run(Fused->Program, Rec, Call, /*IsPost=*/true);
      }
    } else {
      Ret Result = Impl(Env, As...);
      if (Rec.PostCount) {
        Call.setReturn(Result);
        Fused->Run(Fused->Program, Rec, Call, /*IsPost=*/true);
      }
      return Result;
    }
  }

  /// Tier 2: dynamic hook-list dispatch (sparse when elision is on, dense
  /// otherwise).
  static Ret runDynamic(InterposeDispatcher *Dispatcher, JNIEnv *Env,
                        Args... As) {
    CapturedCall Call(Id, Env);
    (Call.captureOne(As), ...);
    Dispatcher->runPre(Call);
    if (Call.aborted()) {
      if constexpr (!std::is_void_v<Ret>)
        return Ret{};
      else
        return;
    }
    if constexpr (std::is_void_v<Ret>) {
      Impl(Env, As...);
      if (Dispatcher->wantsPost(Id)) {
        Call.setReturnVoid();
        Dispatcher->runPost(Call);
      }
    } else {
      Ret Result = Impl(Env, As...);
      if (Dispatcher->wantsPost(Id)) {
        Call.setReturn(Result);
        Dispatcher->runPost(Call);
      }
      return Result;
    }
  }

  static Ret fn(JNIEnv *Env, Args... As) {
    auto *Dispatcher =
        static_cast<InterposeDispatcher *>(Env->runtime->Dispatcher);
    // Tier 3 (bare): no dispatcher on this runtime.
    if (!Dispatcher)
      return Impl(Env, As...);
    // The tier is picked once per crossing: a demotion that lands mid-call
    // finishes this crossing on the (still-live) fused program, which runs
    // the same machine checks the dynamic tier would.
    if (const FusedTable *Fused = Dispatcher->fused())
      return runFused(Fused, Env, As...);
    // Static check elision: when the relevance analysis proved no machine
    // observes this function, skip capture and dispatch entirely.
    if (Dispatcher->elides(Id))
      return Impl(Env, As...);
    return runDynamic(Dispatcher, Env, As...);
  }
};

// Variadic and va_list forms are not wrapped: they delegate (through the
// active table) to the A forms, where the checks run exactly once.
const JNINativeInterface_ InterposedTable = {
#define JNI_FN(Name, Ret, Params, Args)                                      \
  &MakeWrapper<FnId::Name, Ret(*) Params, &jinn::jni::impl_##Name>::fn,
#define JNI_FN_VA(Name, Ret, Params, Args) &jinn::jni::impl_##Name,
#define JNI_FN_VL(Name, Ret, Params, Args) &jinn::jni::impl_##Name,
#include "jni/JniFunctions.def"
#undef JNI_FN_VL
#undef JNI_FN_VA
#undef JNI_FN
};

} // namespace

const JNINativeInterface_ *jinn::jvmti::interposedTable() {
  return &InterposedTable;
}

InterposeDispatcher &jinn::jvmti::dispatcherFor(jni::JniRuntime &Runtime) {
  if (!Runtime.Dispatcher) {
    auto Owned = std::make_shared<InterposeDispatcher>();
    Runtime.Dispatcher = Owned.get();
    Runtime.DispatcherOwner = Owned;
    Runtime.setActiveTable(interposedTable());
  }
  return *static_cast<InterposeDispatcher *>(Runtime.Dispatcher);
}

void jinn::jvmti::removeInterposition(jni::JniRuntime &Runtime) {
  Runtime.Dispatcher = nullptr;
  Runtime.DispatcherOwner.reset();
  Runtime.setActiveTable(nullptr);
}
