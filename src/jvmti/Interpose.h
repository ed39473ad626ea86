//===- jvmti/Interpose.h - JNI function-table interposition framework ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generic interposition machinery every dynamic checker rides on:
///
///  - CapturedCall: a uniform view of one in-flight JNI call (function id,
///    classified arguments, decoded call arguments, return value) handed to
///    pre/post hooks. Hooks can abort the underlying call — that is how a
///    checker "throws instead of executing" (paper Figure 4).
///  - InterposeDispatcher: per-function lists of pre/post hooks. The paper's
///    synthesizer populates these lists from state-machine specifications
///    (Algorithm 1); the -Xcheck:jni emulations populate them by hand.
///  - interposedTable(): a complete alternative JNINativeInterface whose
///    entries wrap the default implementations with hook dispatch. The
///    wrappers are *generated* from the registry at compile time — the
///    runtime analogue of the paper's 22,000+ generated wrapper lines.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVMTI_INTERPOSE_H
#define JINN_JVMTI_INTERPOSE_H

#include "jni/JniFunctionId.h"
#include "jni/JniRuntime.h"
#include "jni/JniTraits.h"
#include "jni/Marshal.h"
#include "jvm/Vm.h"

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>

namespace jinn::jvmti {

/// One classified argument of an in-flight call. No default member
/// initializers: CapturedCall writes only the first numArgs() entries of
/// its argument array, so the rest is never zero-filled.
struct CapturedArg {
  jni::ArgClass Cls;
  uint64_t Word;   ///< handle bits, ID bits, or scalar payload
  const void *Ptr; ///< cstring / jvalue array / out-pointer
};

/// One recorded handle observation: what Vm::peekHandle returned for a
/// handle word at the instant a boundary was crossed. Peeks are volatile
/// (a later DeleteLocalRef changes the answer), so the recorder snapshots
/// them per event and the replayer consults the snapshot instead of the
/// post-hoc VM state.
struct PeekFact {
  uint64_t Word = 0;
  uint64_t Target = 0; ///< ObjectId raw bits (0 when none)
  uint8_t Status = 0;  ///< jvm::Vm::PeekResult::Status
  uint8_t Kind = 0;    ///< jvm::RefKind
  uint32_t OwnerThread = 0;
};

/// Every VM observation a synthesized machine can make at one boundary
/// crossing, frozen at crossing time. POD with fixed capacity so trace
/// events serialize as flat records.
struct BoundarySnapshot {
  static constexpr size_t MaxPeeks = 8;
  static constexpr size_t MaxCallArgs = 8;

  uint32_t ThreadId = 0;    ///< thread the JNIEnv belongs to
  uint32_t CurThreadId = 0; ///< thread actually executing (0 when unknown)
  uint64_t EnvWord = 0;     ///< JNIEnv pointer identity
  uint8_t NumPeeks = 0;
  uint8_t NumCallArgs = 0;
  bool PeeksTruncated = false;
  bool ExceptionPending = false;
  bool MethodIdValid = false;    ///< jmethodID argument passed isMethodId
  bool FieldIdValid = false;     ///< jfieldID argument passed isFieldId
  bool RetFieldIdValid = false;  ///< returned jfieldID passed isFieldId
  bool BufferFound = false;      ///< released buffer had a pin record
  bool HasCallArgs = false;
  uint64_t BufferTarget = 0; ///< pinned target of the released buffer
  PeekFact Peeks[MaxPeeks];
  jvalue CallArgs[MaxCallArgs];

  void addPeek(uint64_t Word, uint64_t Target, uint8_t Status, uint8_t Kind,
               uint32_t OwnerThread) {
    if (!Word)
      return;
    for (size_t I = 0; I < NumPeeks; ++I)
      if (Peeks[I].Word == Word)
        return;
    if (NumPeeks == MaxPeeks) {
      PeeksTruncated = true;
      return;
    }
    Peeks[NumPeeks++] = {Word, Target, Status, Kind, OwnerThread};
  }
  const PeekFact *findPeek(uint64_t Word) const {
    for (size_t I = 0; I < NumPeeks; ++I)
      if (Peeks[I].Word == Word)
        return &Peeks[I];
    return nullptr;
  }
};

/// Everything a replayed trace needs from the surrounding process: the VM
/// the trace was recorded against (entity pointers in the trace are only
/// meaningful in-process) and the trace's own thread table.
struct ReplayEnvironment {
  jvm::Vm *Vm = nullptr;
  uint32_t NativeFrameCapacity = 16;
  std::function<std::string(uint32_t)> ThreadNameOf;

  std::string threadName(uint32_t Id) const {
    if (ThreadNameOf) {
      std::string Name = ThreadNameOf(Id);
      if (!Name.empty())
        return Name;
    }
    return "thread-" + std::to_string(Id);
  }
};

/// Observer of native-method entry/exit crossings (the Java->C direction).
/// Installed on the synthesizer so the trace recorder sees every bound
/// native method fire without depending on the synthesis layer.
class NativeBoundaryObserver {
public:
  virtual ~NativeBoundaryObserver() = default;
  virtual void onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env,
                             jobject Self, const jvalue *Args) = 0;
  virtual void onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env,
                            jobject Self, const jvalue *Args,
                            const jvalue *Ret, bool EntryAborted) = 0;
};

/// A uniform view of one in-flight JNI call, passed to every hook.
///
/// Two modes share this type: live calls carry a JNIEnv and answer
/// observation queries against the running VM; replayed calls carry a
/// BoundarySnapshot recorded at crossing time plus a ReplayEnvironment,
/// and answer the same queries from the snapshot.
class CapturedCall {
public:
  CapturedCall(jni::FnId Id, JNIEnv *Env)
      : Id(Id), Env(Env), Traits(&jni::fnTraits(Id)) {}

  /// Fused-tier constructor: the wrapper already holds the traits pointer
  /// in its per-function record, so the fnTraits() table lookup (and its
  /// static-init guard) is hoisted out of the crossing entirely.
  CapturedCall(jni::FnId Id, JNIEnv *Env, const jni::FnTraits *Traits)
      : Id(Id), Env(Env), Traits(Traits) {}

  /// Replay-mode constructor: the call is reconstructed from a recorded
  /// trace event; restoreArg/restoreReturn fill in the operands.
  CapturedCall(jni::FnId Id, const BoundarySnapshot *Snap,
               const ReplayEnvironment *Renv)
      : Id(Id), Env(nullptr), Traits(&jni::fnTraits(Id)), Snap(Snap),
        Renv(Renv) {}

  jni::FnId id() const { return Id; }
  JNIEnv *env() const { return Env; }
  jvm::JThread &thread() const { return *Env->thread; }
  jvm::Vm &vm() const { return Env ? *Env->vm : *Renv->Vm; }
  jni::JniRuntime &runtime() const { return *Env->runtime; }
  const jni::FnTraits &traits() const { return *Traits; }

  bool isReplay() const { return Snap != nullptr; }
  const BoundarySnapshot *snapshot() const { return Snap; }
  const ReplayEnvironment *replayEnv() const { return Renv; }

  size_t numArgs() const { return NumArgs; }
  const CapturedArg &arg(size_t Index) const { return Args[Index]; }

  /// Reference argument \p Index as a handle word (0 when not a ref).
  uint64_t refWord(size_t Index) const {
    return Args[Index].Cls == jni::ArgClass::Ref ? Args[Index].Word : 0;
  }

  /// The jmethodID argument, validated against the VM registry (nullptr
  /// when absent or invalid).
  jvm::MethodInfo *methodArg() const;
  /// Raw bits of the jmethodID argument (even if invalid); 0 when absent.
  uint64_t methodArgWord() const;
  jvm::FieldInfo *fieldArg() const;
  uint64_t fieldArgWord() const;

  /// The jvalue-array argument of a Call*MethodA crossing, decoded against
  /// \p M's signature: a view over the caller's array on the live path, or
  /// over the recorded BoundarySnapshot::CallArgs under replay. Nothing is
  /// copied. std::nullopt when the call has no decodable argument array.
  std::optional<std::span<const jvalue>>
  callArgs(const jvm::MethodInfo &M) const;

  //===------------------------------------------------------------------===
  // Return value (valid in post hooks)
  //===------------------------------------------------------------------===

  bool hasReturn() const { return HasReturn; }
  bool returnIsRef() const { return RetIsRef; }
  uint64_t returnWord() const { return RetWord; }
  const void *returnPtr() const { return RetPtr; }
  /// Whether the returned jfieldID is registered with the VM (snapshot-backed
  /// under replay).
  bool returnFieldIdValid() const;

  //===------------------------------------------------------------------===
  // Abort: a pre hook calls this to suppress the underlying call
  //===------------------------------------------------------------------===

  void abortCall() { Aborted = true; }
  bool aborted() const { return Aborted; }

  //===------------------------------------------------------------------===
  // Per-crossing memo: one (owner, value) slot that lives for the whole
  // pre+call+post crossing. Machines use it to hoist a thread-local
  // lookup (e.g. LocalRefMachine's instance-id -> thread-shadow cache)
  // to once per crossing instead of once per action.
  //===------------------------------------------------------------------===

  void *memo(const void *Owner) const {
    return MemoOwner == Owner ? MemoValue : nullptr;
  }
  void setMemo(const void *Owner, void *Value) {
    MemoOwner = Owner;
    MemoValue = Value;
  }

  //===------------------------------------------------------------------===
  // Capture plumbing (used by the generated wrappers)
  //===------------------------------------------------------------------===

  template <typename T>
  std::enable_if_t<std::is_base_of_v<_jobject, T>> captureOne(T *V) {
    push({jni::ArgClass::Ref, jni::handleWord(V), nullptr});
  }
  void captureOne(jmethodID V) {
    push({jni::ArgClass::MethodId,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }
  void captureOne(jfieldID V) {
    push({jni::ArgClass::FieldId,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }
  void captureOne(const char *V) {
    push({jni::ArgClass::CString, 0, V});
  }
  void captureOne(const jvalue *V) {
    push({jni::ArgClass::JvalueArray, 0, V});
  }
  template <typename T>
  std::enable_if_t<std::is_arithmetic_v<T> || std::is_enum_v<T>>
  captureOne(T V) {
    push({jni::ArgClass::Scalar, static_cast<uint64_t>(V), nullptr});
  }
  template <typename T>
  std::enable_if_t<!std::is_base_of_v<_jobject, T>> captureOne(T *V) {
    push({jni::ArgClass::OutPtr,
          static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V)), V});
  }

  template <typename T> void setReturn(T V) {
    HasReturn = true;
    if constexpr (std::is_pointer_v<T> &&
                  std::is_base_of_v<_jobject, std::remove_pointer_t<T>>) {
      RetIsRef = true;
      RetWord = jni::handleWord(V);
    } else if constexpr (std::is_pointer_v<T>) {
      RetPtr = V;
      RetWord = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(V));
    } else if constexpr (std::is_floating_point_v<T>) {
      RetWord = 0; // no machine observes a floating-point return
    } else {
      RetWord = static_cast<uint64_t>(V);
    }
  }
  void setReturnVoid() { HasReturn = true; }

  //===------------------------------------------------------------------===
  // Replay plumbing (used by the trace replayer)
  //===------------------------------------------------------------------===

  void restoreArg(jni::ArgClass Cls, uint64_t Word, uint64_t PtrWord) {
    push({Cls, Word,
          reinterpret_cast<const void *>(static_cast<uintptr_t>(PtrWord))});
  }
  void restoreReturn(bool HasRet, bool IsRef, uint64_t Word,
                     uint64_t PtrWord) {
    HasReturn = HasRet;
    RetIsRef = IsRef;
    RetWord = Word;
    RetPtr = reinterpret_cast<const void *>(static_cast<uintptr_t>(PtrWord));
  }

private:
  void push(CapturedArg Arg) { Args[NumArgs++] = Arg; }

  jni::FnId Id;
  JNIEnv *Env;
  const jni::FnTraits *Traits;
  const BoundarySnapshot *Snap = nullptr;
  const ReplayEnvironment *Renv = nullptr;
  std::array<CapturedArg, 5> Args; ///< only [0, NumArgs) is written
  size_t NumArgs = 0;
  bool HasReturn = false;
  bool RetIsRef = false;
  uint64_t RetWord = 0;
  const void *RetPtr = nullptr;
  bool Aborted = false;
  const void *MemoOwner = nullptr;
  void *MemoValue = nullptr;
};

static_assert(std::is_trivially_destructible_v<CapturedCall>,
              "a crossing's capture owns nothing: no allocation, no "
              "destructor on the wrapper's return path");

/// Hook invoked before (pre) or after (post) a JNI function executes.
using HookFn = std::function<void(CapturedCall &)>;

/// The fused (tier-1) dispatch table: one straight-line check program per
/// JNI function, compiled at agent-load time from the machine specs by
/// synth/FusedChecks — the runtime analogue of the paper's 22k lines of
/// generated specialized wrapper code. This layer stores it type-erased
/// (jvmti cannot depend on spec/synth): the wrapper only needs the
/// per-function record — slot extents, plus the FnTraits pointer hoisted
/// into the prologue — and one phase-runner function pointer that the
/// compiler provides. Crossings whose record is empty skip interposition
/// with a single load and compare; crossings with checks run them as raw
/// indirect calls over a flat slot array, with no hook-list walk, no
/// mask test, and no std::function dispatch.
class FusedTable {
public:
  struct FnRec {
    uint32_t PreBegin = 0;
    uint32_t PostBegin = 0;
    uint16_t PreCount = 0;
    uint16_t PostCount = 0;
    const jni::FnTraits *Traits = nullptr;
  };

  /// Runs the pre or post slot sequence of \p Rec against \p Call.
  using PhaseRunner = void (*)(const void *Program, const FnRec &Rec,
                               CapturedCall &Call, bool IsPost);

  const void *Program = nullptr;
  PhaseRunner Run = nullptr;
  std::array<FnRec, jni::NumJniFunctions> Fns{};
};

/// A fixed-capacity hook list with a release-published count, so hook
/// installation is safe against concurrent crossings: a reader sees either
/// the old count (hook not yet active) or the new count with the slot
/// fully constructed. Writers are serialized by the dispatcher's install
/// mutex. The capacity comfortably covers the worst synthesized density
/// (~a dozen machine hooks on the busiest call functions) plus
/// hand-registered test hooks; overflow aborts loudly rather than
/// dropping a check.
class HookList {
public:
  static constexpr size_t Capacity = 32;

  void push(HookFn Hook);
  size_t size() const { return Count.load(std::memory_order_acquire); }
  const HookFn &operator[](size_t I) const { return Slots[I]; }
  void reset();

private:
  std::atomic<uint32_t> Count{0};
  std::array<HookFn, Capacity> Slots;
};

/// Per-function hook lists. One dispatcher serves all installed agents;
/// each agent appends its own hooks.
///
/// Three dispatch tiers, selected per crossing by the generated wrappers:
///
///   1. *Fused* — an installed FusedTable: per-function straight-line
///      check programs with everything else compiled out. Active only
///      while the dispatcher's dynamic surface is untouched beyond the
///      synthesized machine hooks it was compiled from.
///   2. *Dynamic* — the hook lists below, with the sparse per-function
///      mask byte (kept in sync by the add* methods) eliding functions no
///      hook observes when elision is enabled; with elision off this is
///      the dense legacy path (the Table 3 "interposing only" shape pays
///      full capture cost).
///   3. *Bare* — no dispatcher on the runtime at all.
///
/// Any dynamic mutation — addPre/addPost, an all-function hook (the trace
/// recorder), a sampling predicate — *demotes* the dispatcher from fused
/// to dynamic first (one-way, atomic pointer store), so recording,
/// sampled checking, and hand-registered hooks work unchanged: crossings
/// already past the tier check finish on the still-live fused program
/// (same machine checks), later crossings take the dynamic path and see
/// the new hook.
class InterposeDispatcher {
public:
  void addPre(jni::FnId Id, HookFn Hook);
  void addPost(jni::FnId Id, HookFn Hook);
  /// Hooks that run on *every* function (prepended to per-function lists).
  void addPreAll(HookFn Hook);
  void addPostAll(HookFn Hook);

  //===------------------------------------------------------------------===
  // Fused (tier-1) dispatch
  //===------------------------------------------------------------------===

  /// Installs the fused table. Refuses (returns false) when the dynamic
  /// surface is already incompatible — an all-function hook or a sampling
  /// predicate is present. The caller (the Jinn agent) must install
  /// immediately after synthesis, while the dispatcher holds exactly the
  /// hooks the table was compiled from.
  bool installFused(std::shared_ptr<const FusedTable> Table);

  /// The active fused table, or nullptr when dispatch is dynamic. Read
  /// once per crossing by the generated wrappers.
  const FusedTable *fused() const {
    return FusedPtr.load(std::memory_order_acquire);
  }
  bool fusedActive() const { return fused() != nullptr; }

  /// One-way fused -> dynamic fallback. The table owner is retained so
  /// crossings that already picked the fused tier finish safely.
  void demoteToDynamic();
  /// Number of installFused -> dynamic demotions (test/diagnostic aid).
  uint64_t demotionCount() const {
    return Demotions.load(std::memory_order_relaxed);
  }

  void runPre(CapturedCall &Call) const;
  void runPost(CapturedCall &Call) const;

  /// Total number of registered hook attachment points (census support).
  size_t hookCount() const;
  /// Number of pre hooks for one function.
  size_t preCount(jni::FnId Id) const;
  /// Number of post hooks for one function.
  size_t postCount(jni::FnId Id) const;

  /// Enables/disables static check elision in the generated wrappers.
  void setElisionEnabled(bool Enabled) {
    ElisionEnabled.store(Enabled, std::memory_order_relaxed);
  }
  bool elisionEnabled() const {
    return ElisionEnabled.load(std::memory_order_relaxed);
  }

  /// True when the wrapper for \p Id may skip interposition entirely: no
  /// per-function hook and no all-function hook observes it. Any
  /// all-function hook (the trace recorder) defeats elision for every
  /// function, which is what keeps recording modes lossless.
  bool elides(jni::FnId Id) const {
    return ElisionEnabled.load(std::memory_order_relaxed) &&
           !AnyPreAll.load(std::memory_order_relaxed) &&
           !AnyPostAll.load(std::memory_order_relaxed) &&
           HookMask[static_cast<size_t>(Id)].load(
               std::memory_order_relaxed) == 0;
  }

  /// True when the wrapper must capture the return value and run the post
  /// list. Always true while elision is disabled (legacy dense dispatch).
  bool wantsPost(jni::FnId Id) const {
    return !ElisionEnabled.load(std::memory_order_relaxed) ||
           AnyPostAll.load(std::memory_order_relaxed) ||
           (HookMask[static_cast<size_t>(Id)].load(
                std::memory_order_relaxed) &
            HasPost);
  }

  //===------------------------------------------------------------------===
  // Deterministic sampled checking (production monitoring mode)
  //===------------------------------------------------------------------===

  /// Per-thread sampling decision: called once per thread (result cached
  /// in a thread-local keyed by thread id), it decides whether this
  /// thread's crossings run boundary hooks at all — the all-function
  /// hooks (the trace recorder) and the per-function machine hooks alike.
  /// An unsampled thread pays only this cached lookup per crossing; a
  /// sampled thread is fully recorded and fully checked, which is what
  /// keeps its reports byte-replayable from the retained trace.
  /// The predicate must be pure and deterministic (the Jinn agent derives
  /// it from a seeded SplitMix64 stream over the thread identity).
  using SamplePredicate = std::function<bool(jvm::JThread &)>;

  /// Installs (or, with nullptr, removes) the sampling predicate.
  void setSampler(SamplePredicate Fn);
  bool samplingEnabled() const {
    return SamplerGen.load(std::memory_order_relaxed) != 0;
  }

  /// Whether \p Thread's crossings are recorded and checked. Always true
  /// without a sampler. Used by runPre/runPost and by the synthesized
  /// native wrapper to gate the whole boundary.
  bool checksThread(jvm::JThread &Thread) const;

  /// Teardown-only (not safe against concurrent crossings, unlike the
  /// add* installers): drops every hook, the sampler, and the fused table.
  void clear();

private:
  static constexpr uint8_t HasPre = 1;
  static constexpr uint8_t HasPost = 2;

  std::array<HookList, jni::NumJniFunctions> Pre;
  std::array<HookList, jni::NumJniFunctions> Post;
  HookList PreAll;
  HookList PostAll;
  /// HasPre/HasPost bits per function, maintained incrementally by addPre
  /// and addPost — the sparse hook table the wrapper fast path reads.
  std::array<std::atomic<uint8_t>, jni::NumJniFunctions> HookMask{};
  std::atomic<bool> AnyPreAll{false};
  std::atomic<bool> AnyPostAll{false};
  std::atomic<bool> ElisionEnabled{false};
  /// Serializes hook/sampler installation (installation is rare; crossings
  /// never take this lock).
  std::mutex InstallMu;
  /// Sampling predicate plus its generation tag: the thread-local decision
  /// cache is keyed by (generation, thread id), so replacing the sampler
  /// or reattaching an OS thread under a new VM thread id invalidates the
  /// cache without any cross-thread bookkeeping. The predicate itself is
  /// only read under InstallMu, on a cache miss.
  SamplePredicate Sampler;
  std::atomic<uint64_t> SamplerGen{0};
  /// Fused tier state: the atomic pointer is the per-crossing tier check;
  /// the owner keeps the table (and its compiled program) alive across
  /// demotion for crossings already running fused.
  std::atomic<const FusedTable *> FusedPtr{nullptr};
  std::shared_ptr<const FusedTable> FusedOwner;
  std::atomic<uint64_t> Demotions{0};
};

/// The generated interposed function table (shared, immutable).
const JNINativeInterface_ *interposedTable();

/// Returns the dispatcher of \p Runtime, creating and installing the
/// interposed table on first use.
InterposeDispatcher &dispatcherFor(jni::JniRuntime &Runtime);

/// Removes interposition from \p Runtime (restores the default table).
void removeInterposition(jni::JniRuntime &Runtime);

} // namespace jinn::jvmti

#endif // JINN_JVMTI_INTERPOSE_H
