//===- jinn/machines/LocalRef.cpp - Local reference machine --------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Figures 2 and 8, "Local reference": the machine behind the GNOME
/// bug of Figure 1. JNI manages local references semi-automatically —
/// acquired implicitly when a native method receives references or a JNI
/// function returns one, released implicitly when the native method
/// returns (or explicitly via DeleteLocalRef/PopLocalFrame). The shadow
/// encoding is, per thread, a stack of frames, each with a capacity and its
/// live reference words. Detected errors: overflow (more than the
/// ensured capacity, default 16), dangling use, double free, cross-thread
/// use, leaked explicit frames, and ID/reference confusion (pitfall 6).
///
/// Encoding: local references obey a strict frame discipline — acquired
/// into the top frame, dead when it pops — so a thread's shadow is
///  - a slot table indexed by the handle's slot bits, holding the one live
///    word the shadow knows for that slot, its frame, and its position;
///  - a stack of acquired slots, each frame's live references contiguous
///    from the frame's watermark (a delete moves the frame's last live
///    entry into the hole);
///  - per-frame and per-thread live counts for the overflow check,
///    liveCount and OnCountChange.
/// Liveness is one table load and a full-word compare (kind, thread, slot
/// and generation), so a stale word never matches its slot's new resident.
/// Report text is only formatted on the reporting path.
///
/// Concurrency: local references are thread-confined by the JNI spec, and
/// so is the shadow. Each thread's ThreadShadow is reached through a
/// thread-local cache keyed by (machine instance, logical thread id) — the
/// logical id matters because offline trace replay runs every recorded
/// thread on one OS thread. The hot path is a two-word compare and no
/// lock; RegistryMu is taken only on the first touch per (machine, thread)
/// and by the cross-thread observation queries (liveCount/topCapacity),
/// which callers must only invoke once the owning thread has quiesced.
/// Cross-thread *use* of a local reference is a reported violation (the
/// wrong-thread check below never touches the owning thread's shadow), not
/// a supported access pattern.
///
/// Note on ordering: the Use transitions are listed before the Release
/// transitions so that, at a native-method return, a returned reference is
/// validated *before* the frame pop invalidates its shadow entries.
///
//===----------------------------------------------------------------------===//

#include "jinn/machines/MachineUtil.h"
#include "mutate/Mutation.h"

using namespace jinn;
using namespace jinn::agent;
using jinn::jni::ArgClass;
using jinn::jni::FnTraits;
using jinn::jni::ResourceRole;
using jinn::jvm::RefKind;

namespace {

bool isLocalUseFunction(const FnTraits &Traits) {
  // DeleteLocalRef / PopLocalFrame are Release sites, not Use sites.
  return Traits.hasParam(ArgClass::Ref) &&
         Traits.Resource != ResourceRole::LocalDelete &&
         Traits.Resource != ResourceRole::PopFrame;
}

/// The thread-local fast path: one entry per OS thread, keyed by machine
/// instance and logical thread id. Pointers cached here stay valid because
/// shadows are heap-allocated (unique_ptr) and never destroyed before the
/// machine itself; instance ids are never reused, so an entry from a
/// destroyed machine can never match a live one.
struct ShadowCacheEntry {
  uint64_t Instance = 0;
  uint32_t Tid = 0;
  void *Shadow = nullptr;
};
thread_local ShadowCacheEntry LocalShadowCache;

std::atomic<uint64_t> NextLocalRefInstanceId{1};

} // namespace

LocalRefMachine::~LocalRefMachine() = default;

LocalRefMachine::SlotEntry &LocalRefMachine::SlotTable::at(uint32_t Slot) {
  size_t Page = Slot >> PageBits;
  if (Page >= Pages.size())
    Pages.resize(Page + 1);
  if (!Pages[Page])
    Pages[Page] = std::make_unique<SlotEntry[]>(PageMask + 1);
  return Pages[Page][Slot & PageMask];
}

void LocalRefMachine::ThreadShadow::pushFrame(uint32_t Capacity,
                                              bool Explicit) {
  ShadowFrame Frame;
  Frame.Base = static_cast<uint32_t>(Acquired.size());
  Frame.Capacity = Capacity;
  Frame.Explicit = Explicit;
  Frames.push_back(Frame);
}

void LocalRefMachine::ThreadShadow::popFrame() {
  const ShadowFrame &Top = Frames.back();
  for (uint32_t Pos = Top.Base; Pos < Top.Base + Top.Live; ++Pos)
    Slots.at(Acquired[Pos]).Word = 0;
  Live -= Top.Live;
  Frames.pop_back();
  // The new top frame's dead tail (deletes made while it was covered) goes.
  Acquired.resize(Frames.empty() ? 0
                                 : Frames.back().Base + Frames.back().Live);
}

void LocalRefMachine::ThreadShadow::erase(SlotEntry &Entry) {
  // Keep the frame's live references contiguous: its last live entry
  // fills the hole.
  ShadowFrame &Frame = Frames[Entry.Frame];
  uint32_t Last = Frame.Base + Frame.Live - 1;
  if (Entry.Pos != Last) {
    uint32_t Moved = Acquired[Last];
    Acquired[Entry.Pos] = Moved;
    Slots.at(Moved).Pos = Entry.Pos;
  }
  --Frame.Live;
  --Live;
  if (Entry.Frame + 1 == Frames.size())
    Acquired.pop_back();
  Entry.Word = 0;
}

void LocalRefMachine::ThreadShadow::insert(uint64_t Word,
                                           const jvm::HandleBits &Bits) {
  SlotEntry &Entry = Slots.at(Bits.Slot);
  uint32_t Top = static_cast<uint32_t>(Frames.size() - 1);
  if (Entry.Word == Word && Entry.Frame == Top)
    return;
  if (Entry.Word)
    erase(Entry);
  Entry.Word = Word;
  Entry.Frame = Top;
  Entry.Pos = static_cast<uint32_t>(Acquired.size());
  Acquired.push_back(Bits.Slot);
  ++Frames[Top].Live;
  ++Live;
}

LocalRefMachine::ThreadShadow &LocalRefMachine::shadowOf(uint32_t ThreadId) {
  ShadowCacheEntry &Cache = LocalShadowCache;
  if (Cache.Instance == InstanceId && Cache.Tid == ThreadId)
    return *static_cast<ThreadShadow *>(Cache.Shadow);
  RegistryAcquires.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::unique_ptr<ThreadShadow> &Slot = Shadows[ThreadId];
  if (!Slot)
    Slot = std::make_unique<ThreadShadow>(ThreadId);
  if (Slot->Frames.empty())
    Slot->pushFrame(16, false); // base frame for detached-style use
  Cache = {InstanceId, ThreadId, Slot.get()};
  return *Slot;
}

LocalRefMachine::ThreadShadow &
LocalRefMachine::shadowAt(TransitionContext &Ctx) {
  if (Ctx.isJniSite()) {
    jvmti::CapturedCall &Call = Ctx.call();
    if (void *Memo = Call.memo(this))
      return *static_cast<ThreadShadow *>(Memo);
    ThreadShadow &Shadow = shadowOf(Ctx.threadId());
    Call.setMemo(this, &Shadow);
    return Shadow;
  }
  return shadowOf(Ctx.threadId());
}

LocalRefMachine::ThreadShadow *
LocalRefMachine::findShadow(uint32_t ThreadId) const {
  RegistryAcquires.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(RegistryMu);
  auto It = Shadows.find(ThreadId);
  return It != Shadows.end() ? It->second.get() : nullptr;
}

void LocalRefMachine::onThreadStart(const spec::ThreadStartInfo &Info) {
  RegistryAcquires.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::unique_ptr<ThreadShadow> &Slot = Shadows[Info.Id];
  if (!Slot)
    Slot = std::make_unique<ThreadShadow>(Info.Id);
  if (Slot->Frames.empty())
    Slot->pushFrame(Info.FrameCapacity, false);
}

size_t LocalRefMachine::liveCount(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = findShadow(ThreadId);
  return Shadow ? Shadow->Live : 0;
}

uint32_t LocalRefMachine::topCapacity(uint32_t ThreadId) const {
  const ThreadShadow *Shadow = findShadow(ThreadId);
  if (!Shadow || Shadow->Frames.empty())
    return 0;
  return Shadow->Frames.back().Capacity;
}

void LocalRefMachine::acquire(TransitionContext &Ctx, uint64_t Word) {
  if (!Word)
    return;
  std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
  if (!Bits || Bits->Kind != RefKind::Local)
    return; // only local references are tracked here
  ThreadShadow &Shadow = shadowAt(Ctx);
  Shadow.insert(Word, *Bits);
  countChanged(Shadow);
  const ShadowFrame &Top = Shadow.Frames.back();
  uint32_t Limit = Top.Capacity;
  if (mutate::active(mutate::M::SpecLocalRefOverflowOffByOne))
    Limit += 1;
  if (Top.Live > Limit)
    Ctx.reporter().violation(
        Ctx, Spec,
        formatString("local reference overflow: %u live references exceed "
                     "the ensured capacity of %u",
                     Top.Live, Top.Capacity));
}

void LocalRefMachine::useCheck(TransitionContext &Ctx, uint64_t Word,
                               int ArgNo) {
  if (!Word)
    return;
  std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
  if (Bits && Bits->Kind != RefKind::Local)
    return; // globals belong to the global-reference machine
  ThreadShadow &Shadow = shadowAt(Ctx);
  if (Bits && Bits->Thread == Shadow.ThreadId &&
      Shadow.liveEntry(Word, *Bits))
    return; // tracked and live
  // Only a report names the operand, so a clean use never formats text.
  auto What = [ArgNo] {
    return ArgNo ? formatString("argument %d", ArgNo)
                 : std::string("the native method's return value");
  };
  if (!Bits) {
    Ctx.reporter().violation(
        Ctx, Spec,
        formatString("%s is not a JNI reference (a method or field ID, or "
                     "a stray pointer?)",
                     What().c_str()));
    return;
  }
  if (Bits->Thread != Shadow.ThreadId) {
    // Thread confinement: never touch the owning thread's shadow from
    // here — report and stop.
    Ctx.reporter().violation(
        Ctx, Spec,
        formatString("%s is a local reference that belongs to thread %u, "
                     "not to the current thread %u",
                     What().c_str(), Bits->Thread, Shadow.ThreadId));
    return;
  }
  // Untracked: adopt pre-agent references; report dead ones.
  jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
  if (Peek.S == jvm::Vm::PeekResult::Status::Live) {
    Shadow.insert(Word, *Bits);
    return;
  }
  Ctx.reporter().violation(
      Ctx, Spec,
      formatString("%s is a dangling local reference (its frame was popped "
                   "or it was deleted)",
                   What().c_str()));
}

LocalRefMachine::LocalRefMachine()
    : InstanceId(NextLocalRefInstanceId.fetch_add(1,
                                                  std::memory_order_relaxed)) {
  Spec.Name = "Local reference";
  Spec.ObservedEntity = "A local JNI reference";
  Spec.Errors = "Overflow, leak, dangling, and double-free";
  Spec.Encoding = "For each thread, a stack of frames. Each frame has a "
                  "capacity and a list of local references";
  Spec.States = {"Before acquire", "Acquired", "Released",
                 "Error: dangling", "Error: overflow"};

  // Acquire at Call:Java->C: a native method receives its receiver and
  // reference arguments in a fresh frame (capacity 16 unless ensured).
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::nativeMethods("native method taking reference"),
        Direction::CallJavaToC}},
      [this](TransitionContext &Ctx) {
        ThreadShadow &Shadow = shadowOf(Ctx.threadId());
        Shadow.EntryDepths.push_back(
            static_cast<uint32_t>(Shadow.Frames.size()));
        Shadow.pushFrame(Ctx.nativeFrameCapacity(), false);
        acquire(Ctx, jni::handleWord(Ctx.self()));
        const jvm::MethodDesc &Sig = Ctx.method().Sig;
        for (size_t I = 0; I < Sig.Params.size(); ++I)
          if (Sig.Params[I].isReference() && Ctx.args())
            acquire(Ctx, jni::handleWord(Ctx.args()[I].l));
      }));

  // Acquire at Return:Java->C: a JNI function returned a reference.
  Spec.Transitions.push_back(makeTransition(
      "Before acquire", "Acquired",
      {{FunctionSelector::matching(
            "any JNI function returning a reference",
            [](const FnTraits &Traits) { return Traits.ReturnsRef; }),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (Ctx.call().returnIsRef())
          acquire(Ctx, Ctx.call().returnWord());
      }));

  // Frame management: PushLocalFrame / EnsureLocalCapacity extend the
  // capacity the overflow check enforces.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Acquired",
      {{FunctionSelector::one(jni::FnId::PushLocalFrame),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        shadowAt(Ctx).pushFrame(static_cast<uint32_t>(Ctx.call().arg(0).Word),
                                true);
      }));
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Acquired",
      {{FunctionSelector::one(jni::FnId::EnsureLocalCapacity),
        Direction::ReturnJavaToC}},
      [this](TransitionContext &Ctx) {
        if (static_cast<jint>(Ctx.call().returnWord()) != JNI_OK)
          return;
        ShadowFrame &Top = shadowAt(Ctx).Frames.back();
        uint32_t Wanted = static_cast<uint32_t>(Ctx.call().arg(0).Word);
        if (Top.Capacity < Wanted)
          Top.Capacity = Wanted;
      }));

  // Use at Call:C->Java: any JNI function taking a reference.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Error: dangling",
      {{FunctionSelector::matching("any JNI function taking a reference, "
                                   "except DeleteLocalRef and PopLocalFrame",
                                   isLocalUseFunction),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        const FnTraits &Traits = Ctx.call().traits();
        for (int I = 0; I < Traits.NumParams && !Ctx.aborted(); ++I)
          if (Traits.Params[I].Cls == ArgClass::Ref)
            useCheck(Ctx, Ctx.call().refWord(I), I + 1);
      }));

  // Use at Return:C->Java: a native method returning a reference. Listed
  // before the Release transition (see file comment).
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Error: dangling",
      {{FunctionSelector::nativeMethods("native method returning reference"),
        Direction::ReturnCToJava}},
      [this](TransitionContext &Ctx) {
        if (!Ctx.ret() || !Ctx.method().Sig.Ret.isReference())
          return;
        useCheck(Ctx, jni::handleWord(Ctx.ret()->l), 0);
      }));

  // Release at Call:C->Java of DeleteLocalRef.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::one(jni::FnId::DeleteLocalRef),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        uint64_t Word = Ctx.call().refWord(0);
        if (!Word)
          return;
        ThreadShadow &Shadow = shadowAt(Ctx);
        std::optional<jvm::HandleBits> Bits = jvm::decodeHandle(Word);
        if (SlotEntry *Entry =
                Bits ? Shadow.liveEntry(Word, *Bits) : nullptr) {
          Shadow.erase(*Entry);
          countChanged(Shadow);
          return;
        }
        jvm::Vm::PeekResult Peek = peekRef(Ctx, Word);
        if (Peek.S == jvm::Vm::PeekResult::Status::Live)
          return; // pre-agent reference; the delete is legitimate
        Ctx.reporter().violation(
            Ctx, Spec,
            "DeleteLocalRef of a dead local reference (double free)");
      }));

  // Release at Call:C->Java of PopLocalFrame. The *underflow* (a pop with
  // no explicit frame to match) is owned by the local-frame nesting
  // machine — a pushdown rule this machine's finite frame shadow cannot
  // express in general — so on underflow the shadow simply declines to pop
  // the base frame and leaves the reporting to that machine, which aborts
  // the call.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::one(jni::FnId::PopLocalFrame),
        Direction::CallCToJava}},
      [this](TransitionContext &Ctx) {
        ThreadShadow &Shadow = shadowAt(Ctx);
        if (Shadow.Frames.empty() || !Shadow.Frames.back().Explicit)
          return;
        Shadow.popFrame();
        countChanged(Shadow);
      }));

  // Release at Return:C->Java: the VM frees the native frame; explicit
  // frames that were never popped leak.
  Spec.Transitions.push_back(makeTransition(
      "Acquired", "Released",
      {{FunctionSelector::nativeMethods("return from any native method"),
        Direction::ReturnCToJava}},
      [this](TransitionContext &Ctx) {
        ThreadShadow &Shadow = shadowOf(Ctx.threadId());
        if (Shadow.EntryDepths.empty())
          return;
        uint32_t Depth = Shadow.EntryDepths.back();
        Shadow.EntryDepths.pop_back();
        size_t ExplicitLeaks = 0;
        while (Shadow.Frames.size() > Depth) {
          if (Shadow.Frames.back().Explicit)
            ++ExplicitLeaks;
          Shadow.popFrame();
        }
        countChanged(Shadow);
        if (ExplicitLeaks > 0)
          Ctx.reporter().violation(
              Ctx, Spec,
              formatString("%zu local reference frame(s) pushed with "
                           "PushLocalFrame were never popped (leak)",
                           ExplicitLeaks));
      }));
}
