//===- trace/Recorder.cpp - Per-thread lock-free boundary recorder -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

#include "jni/JniRuntime.h"
#include "jvm/JThread.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <new>
#include <utility>

#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
#include <x86intrin.h>
#define JINN_TRACE_HAVE_RDTSC 1
#endif

using namespace jinn;
using namespace jinn::trace;

const char *jinn::trace::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::JniPre:
    return "jni-pre";
  case EventKind::JniPost:
    return "jni-post";
  case EventKind::NativeEntry:
    return "native-entry";
  case EventKind::NativeExit:
    return "native-exit";
  case EventKind::NativeBind:
    return "native-bind";
  case EventKind::ThreadAttach:
    return "thread-attach";
  case EventKind::ThreadDetach:
    return "thread-detach";
  case EventKind::GcEpoch:
    return "gc-epoch";
  case EventKind::VmDeath:
    return "vm-death";
  }
  return "unknown";
}

std::string Trace::threadName(uint32_t Id) const {
  auto It = ThreadNames.find(Id);
  if (It != ThreadNames.end() && !It->second.empty())
    return It->second;
  return "thread-" + std::to_string(Id);
}

void Trace::rebuildThreadNames() {
  ThreadNames.clear();
  for (const TraceEvent &Ev : Events)
    if (Ev.Kind == EventKind::ThreadAttach)
      ThreadNames[Ev.ThreadId] = Ev.Name;
}

void jinn::trace::sortMergeKeys(std::vector<MergeKey> &Keys) {
  for (size_t I = 0; I < Keys.size(); ++I)
    Keys[I].Ordinal = static_cast<uint32_t>(I);
  std::sort(Keys.begin(), Keys.end(),
            [](const MergeKey &A, const MergeKey &B) {
              if (A.TimeNs != B.TimeNs)
                return A.TimeNs < B.TimeNs;
              if (A.ThreadId != B.ThreadId)
                return A.ThreadId < B.ThreadId;
              if (A.Seq != B.Seq)
                return A.Seq < B.Seq;
              return A.Ordinal < B.Ordinal;
            });
}

//===----------------------------------------------------------------------===
// Encoded records
//===----------------------------------------------------------------------===

namespace {

using jvmti::BoundarySnapshot;
using jvmti::PeekFact;

constexpr size_t PrefixBytes = offsetof(TraceEvent, Args);
constexpr size_t SnapAt = offsetof(TraceEvent, Snap);
constexpr size_t SnapPrefixBytes = offsetof(BoundarySnapshot, Peeks);

static_assert(PrefixBytes % 8 == 0 && SnapPrefixBytes % 8 == 0 &&
                  sizeof(ArgRecord) % 8 == 0 && sizeof(jvalue) == 8 &&
                  sizeof(TraceEvent::Name) % 8 == 0 &&
                  sizeof(PeekFact) % 8 == 0,
              "every record extent keeps the next one 8-byte aligned");
static_assert(EventChunk::MaxRecordBytes ==
                  PrefixBytes + sizeof(TraceEvent::Args) +
                      sizeof(TraceEvent::NativeArgs) + sizeof(jvalue) +
                      sizeof(TraceEvent::Name) + SnapPrefixBytes +
                      sizeof(BoundarySnapshot::Peeks) +
                      sizeof(BoundarySnapshot::CallArgs),
              "a record with every array full is one TraceEvent");

bool hasNativeRet(EventKind Kind, bool HasReturn) {
  return Kind == EventKind::NativeExit && HasReturn;
}

template <typename T> T loadAt(const unsigned char *Record, size_t Offset) {
  T Value;
  std::memcpy(&Value, Record + Offset, sizeof(T));
  return Value;
}

/// A record's raw tick stamp in nanoseconds since the recorder started.
uint64_t ticksToNs(uint64_t Ticks, double NsPerTick) {
  return static_cast<uint64_t>(static_cast<double>(Ticks) * NsPerTick);
}

} // namespace

EventChunk &EventChunk::operator=(EventChunk &&Other) noexcept {
  Bytes = std::move(Other.Bytes);
  Capacity = std::exchange(Other.Capacity, 0);
  Used = std::exchange(Other.Used, 0);
  Events = std::exchange(Other.Events, 0);
  return *this;
}

void EventChunk::reset(size_t NewCapacity) {
  Used = 0;
  Events = 0;
  if (Capacity >= NewCapacity)
    return;
  Bytes.reset(static_cast<unsigned char *>(std::malloc(NewCapacity)));
  if (!Bytes)
    throw std::bad_alloc();
  Capacity = NewCapacity;
}

void EventChunk::trim() {
  if (Used == Capacity || !Used)
    return;
  // Shrinking in place: the allocator keeps the records and takes back the
  // tail; on failure the block simply stays as large as it was.
  if (void *Shrunk = std::realloc(Bytes.get(), Used)) {
    (void)Bytes.release();
    Bytes.reset(static_cast<unsigned char *>(Shrunk));
    Capacity = Used;
  }
}

void EventChunk::append(const TraceEvent &Ev) {
  assert(!full() && "append to a full chunk");
  // Each array is copied whole and the cursor advanced past its valid
  // extent only: fixed-size copies compile to a few vector moves instead of
  // a library call each, and the next extent (or the next record)
  // overwrites the excess. No copy ends past where the same array would
  // end in a record with every array full, so the room !full() guarantees
  // bounds every write.
  unsigned char *At = Bytes.get() + Used;
  auto Put = [&At](const void *From, size_t Copied, size_t Kept) {
    std::memcpy(At, From, Copied);
    At += Kept;
  };
  Put(&Ev, PrefixBytes, PrefixBytes);
  Put(Ev.Args, sizeof(Ev.Args), Ev.NumArgs * sizeof(ArgRecord));
  if (Ev.NumNativeArgs)
    Put(Ev.NativeArgs, sizeof(Ev.NativeArgs),
        Ev.NumNativeArgs * sizeof(jvalue));
  if (hasNativeRet(Ev.Kind, Ev.HasReturn))
    Put(&Ev.NativeRet, sizeof(jvalue), sizeof(jvalue));
  if (Ev.Kind == EventKind::ThreadAttach)
    Put(Ev.Name, sizeof(Ev.Name), sizeof(Ev.Name));
  Put(&Ev.Snap, SnapPrefixBytes, SnapPrefixBytes);
  Put(Ev.Snap.Peeks, sizeof(Ev.Snap.Peeks),
      Ev.Snap.NumPeeks * sizeof(PeekFact));
  if (Ev.Snap.NumCallArgs)
    Put(Ev.Snap.CallArgs, sizeof(Ev.Snap.CallArgs),
        Ev.Snap.NumCallArgs * sizeof(jvalue));
  Used = static_cast<size_t>(At - Bytes.get());
  ++Events;
}

size_t EventChunk::recordBytes(const unsigned char *Record) {
  const auto Kind = loadAt<EventKind>(Record, offsetof(TraceEvent, Kind));
  const size_t SnapStart =
      PrefixBytes +
      loadAt<uint8_t>(Record, offsetof(TraceEvent, NumArgs)) *
          sizeof(ArgRecord) +
      loadAt<uint8_t>(Record, offsetof(TraceEvent, NumNativeArgs)) *
          sizeof(jvalue) +
      (hasNativeRet(Kind,
                    loadAt<bool>(Record, offsetof(TraceEvent, HasReturn)))
           ? sizeof(jvalue)
           : 0) +
      (Kind == EventKind::ThreadAttach ? sizeof(TraceEvent::Name) : 0);
  const unsigned char *Snap = Record + SnapStart;
  return SnapStart + SnapPrefixBytes +
         loadAt<uint8_t>(Snap, offsetof(BoundarySnapshot, NumPeeks)) *
             sizeof(PeekFact) +
         loadAt<uint8_t>(Snap, offsetof(BoundarySnapshot, NumCallArgs)) *
             sizeof(jvalue);
}

void EventChunk::appendMergeKeys(std::vector<MergeKey> &Keys,
                                 double NsPerTick) const {
  const unsigned char *At = Bytes.get();
  for (size_t I = 0; I < Events; ++I) {
    Keys.push_back(
        {ticksToNs(loadAt<uint64_t>(At, offsetof(TraceEvent, TimeNs)),
                   NsPerTick),
         loadAt<uint64_t>(At, offsetof(TraceEvent, Seq)),
         loadAt<uint32_t>(At, offsetof(TraceEvent, ThreadId)), 0, At});
    At += recordBytes(At);
  }
}

void EventChunk::decode(const unsigned char *Record, TraceEvent &Out,
                        double NsPerTick) {
  // The scalar prefixes go verbatim: beginEvent() zeroed them, padding
  // included. Everything past them is zeroed, then filled member by
  // member, so no padding byte of the scratch event reaches a trace.
  auto *D = reinterpret_cast<unsigned char *>(&Out);
  std::memcpy(D, Record, PrefixBytes);
  std::memset(D + PrefixBytes, 0, SnapAt - PrefixBytes);
  Out.TimeNs = ticksToNs(Out.TimeNs, NsPerTick);
  const unsigned char *At = Record + PrefixBytes;
  for (size_t I = 0; I < Out.NumArgs; ++I, At += sizeof(ArgRecord)) {
    Out.Args[I].Cls = loadAt<uint8_t>(At, offsetof(ArgRecord, Cls));
    Out.Args[I].Word = loadAt<uint64_t>(At, offsetof(ArgRecord, Word));
    Out.Args[I].PtrWord = loadAt<uint64_t>(At, offsetof(ArgRecord, PtrWord));
  }
  std::memcpy(Out.NativeArgs, At, Out.NumNativeArgs * sizeof(jvalue));
  At += Out.NumNativeArgs * sizeof(jvalue);
  if (hasNativeRet(Out.Kind, Out.HasReturn)) {
    std::memcpy(&Out.NativeRet, At, sizeof(jvalue));
    At += sizeof(jvalue);
  }
  if (Out.Kind == EventKind::ThreadAttach) {
    const char *Name = reinterpret_cast<const char *>(At);
    std::memcpy(Out.Name, Name, strnlen(Name, TraceEvent::MaxNameLen));
    At += sizeof(Out.Name);
  }

  std::memcpy(D + SnapAt, At, SnapPrefixBytes);
  std::memset(D + SnapAt + SnapPrefixBytes, 0,
              sizeof(TraceEvent) - SnapAt - SnapPrefixBytes);
  At += SnapPrefixBytes;
  BoundarySnapshot &Snap = Out.Snap;
  for (size_t I = 0; I < Snap.NumPeeks; ++I, At += sizeof(PeekFact)) {
    PeekFact &To = Snap.Peeks[I];
    To.Word = loadAt<uint64_t>(At, offsetof(PeekFact, Word));
    To.Target = loadAt<uint64_t>(At, offsetof(PeekFact, Target));
    To.Status = loadAt<uint8_t>(At, offsetof(PeekFact, Status));
    To.Kind = loadAt<uint8_t>(At, offsetof(PeekFact, Kind));
    To.OwnerThread = loadAt<uint32_t>(At, offsetof(PeekFact, OwnerThread));
  }
  std::memcpy(Snap.CallArgs, At, Snap.NumCallArgs * sizeof(jvalue));
}

void EventChunk::decodeInMergeOrder(std::vector<MergeKey> &Keys, Trace &Out,
                                    double NsPerTick) {
  placeInMergeOrder(Keys, Out, [NsPerTick](TraceEvent &Ev, const void *Rec) {
    decode(static_cast<const unsigned char *>(Rec), Ev, NsPerTick);
  });
}

//===----------------------------------------------------------------------===
// Per-thread buffers
//===----------------------------------------------------------------------===

/// Owned and written by exactly one OS thread; collect() reads it only
/// after that thread quiesced (the join provides the happens-before edge),
/// and retireLocalBuffer() moves it to the free pool from its own owner
/// thread. NextSeq survives retirement so a recycled buffer keeps strictly
/// increasing sequence numbers.
struct TraceRecorder::ThreadBuffer {
  TraceEvent Scratch; ///< the event being captured; stays cache-resident
  EventChunk Chunk;   ///< the chunk records are appended to
  uint64_t NextSeq = 0;
  std::vector<EventChunk> Chunks; ///< sealed full chunks
#ifndef NDEBUG
  bool Capturing = false; ///< between beginEvent() and commitEvent()
#endif
};

namespace {

/// Thread-local pointer to this thread's buffer in the recorder it last
/// recorded into, tagged with the recorder's instance id so a stale cache
/// from a destroyed recorder is never followed.
struct BufferCache {
  uint64_t RecorderId = 0;
  void *Buffer = nullptr;
};
thread_local BufferCache LocalCache;

std::atomic<uint64_t> NextRecorderId{1};

} // namespace

namespace {

/// Raw event timestamp. On x86 this is one rdtsc — a fraction of a
/// clock_gettime, which matters at one stamp per boundary crossing
/// direction. The tick unit is converted to nanoseconds at collect time;
/// elsewhere it falls back to the monotonic clock (ticks == ns).
inline uint64_t readTicks() {
#ifdef JINN_TRACE_HAVE_RDTSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

} // namespace

TraceRecorder::TraceRecorder(jvm::Vm &Vm, TraceRecorderOptions Opts)
    : Vm(Vm), Opts(Opts),
      InstanceId(NextRecorderId.fetch_add(1, std::memory_order_relaxed)),
      Start(std::chrono::steady_clock::now()), StartTicks(readTicks()) {
  if (this->Opts.RingCapacity == 0)
    this->Opts.RingCapacity = 1;
}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::ThreadBuffer &TraceRecorder::localBuffer() {
  if (LocalCache.RecorderId == InstanceId)
    return *static_cast<ThreadBuffer *>(LocalCache.Buffer);
  std::lock_guard<std::mutex> Lock(RegistryMu);
  // Prefer a buffer a retired thread left behind: attach/detach churn in a
  // server workload then reuses a bounded buffer pool instead of growing
  // the registry by a buffer per short-lived thread.
  std::unique_ptr<ThreadBuffer> Recycled;
  if (!FreeBuffers.empty()) {
    Recycled = std::move(FreeBuffers.back());
    FreeBuffers.pop_back();
  } else {
    Recycled = std::make_unique<ThreadBuffer>();
  }
  Buffers.push_back(std::move(Recycled));
  ThreadBuffer &Buffer = *Buffers.back();
  Buffer.Chunk.reset(chunkBytes());
  LocalCache = {InstanceId, &Buffer};
  return Buffer;
}

void TraceRecorder::noteDrop(uint64_t Events) {
  if (!Events)
    return;
  uint64_t Total =
      DroppedTotal.fetch_add(Events, std::memory_order_relaxed) + Events;
  // Surface the loss where operators look: the VM diagnostics counters.
  // Amortized — drops happen at most once per sealed chunk.
  Vm.diags().setCounter("jinn.trace.dropped_events", Total);
}

EventChunk TraceRecorder::pushSealedChunk(EventChunk Chunk) {
  EventChunk Recycled;
  uint64_t Evicted = 0;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    // The queue bound protects streaming runs from a stalled monitor; in
    // batch mode the queue only holds retired threads' chunks (already
    // bounded per thread) and collect() must still see all of them.
    if (Opts.StreamChunks && Opts.MaxQueuedChunks &&
        SealedQueue.size() >= Opts.MaxQueuedChunks) {
      Evicted = SealedQueue.front().events();
      QueueDropped += Evicted;
      Recycled = std::move(SealedQueue.front());
      SealedQueue.pop_front();
    } else if (!FreeChunks.empty()) {
      Recycled = std::move(FreeChunks.back());
      FreeChunks.pop_back();
    }
    SealedQueue.push_back(std::move(Chunk));
  }
  noteDrop(Evicted);
  return Recycled;
}

void TraceRecorder::sealChunk(ThreadBuffer &Buffer) {
  EventChunk Fresh;
  if (Opts.StreamChunks) {
    // Streaming: publish the full chunk to the recorder-level queue (one
    // short lock per chunk) and reuse whatever storage the queue handed
    // back.
    Fresh = pushSealedChunk(std::move(Buffer.Chunk));
  } else {
    // Batch: keep the full chunk in the thread's list. When bounded
    // recording drops the oldest chunk, its storage is recycled as the new
    // chunk, so steady state records with no allocation at all. A thread
    // that never flushes is backstopped by HardChunkCap even in
    // "unbounded" mode.
    size_t Cap = Opts.MaxChunksPerThread
                     ? Opts.MaxChunksPerThread
                     : (Opts.HardChunkCap ? Opts.HardChunkCap : 1);
    if (Buffer.Chunks.size() >= Cap) {
      noteDrop(Buffer.Chunks.front().events());
      Fresh = std::move(Buffer.Chunks.front());
      Buffer.Chunks.erase(Buffer.Chunks.begin());
    }
    Buffer.Chunks.push_back(std::move(Buffer.Chunk));
  }
  Fresh.reset(chunkBytes());
  Buffer.Chunk = std::move(Fresh);
}

TraceEvent &TraceRecorder::beginEvent(ThreadBuffer &Buffer, EventKind Kind) {
#ifndef NDEBUG
  assert(!Buffer.Capturing &&
         "a trace record call nested inside another on the same thread");
  Buffer.Capturing = true;
#endif
  TraceEvent &Ev = Buffer.Scratch;
  // Clear only the scalar prefixes (TraceEvent's layout contract): the
  // payload arrays are governed by counts in the prefix, and only the
  // counted elements reach the chunk.
  std::memset(static_cast<void *>(&Ev), 0, offsetof(TraceEvent, Args));
  std::memset(static_cast<void *>(&Ev.Snap), 0,
              offsetof(jvmti::BoundarySnapshot, Peeks));
  Ev.Kind = Kind;
  Ev.Fn = 0xFFFF;
  // The merge key is (TimeNs, ThreadId, Seq); collect() assigns the global
  // epoch from it. No cross-thread coordination here — a shared atomic
  // counter would put one cache line between every recording thread.
  Ev.Seq = Buffer.NextSeq++;
  Ev.TimeNs = readTicks() - StartTicks; // raw ticks until collect()
  return Ev;
}

void TraceRecorder::commitEvent(ThreadBuffer &Buffer) {
  if (Buffer.Chunk.full())
    sealChunk(Buffer);
  Buffer.Chunk.append(Buffer.Scratch);
#ifndef NDEBUG
  Buffer.Capturing = false;
#endif
}

//===----------------------------------------------------------------------===
// Snapshot capture
//===----------------------------------------------------------------------===

void TraceRecorder::capturePeek(jvmti::BoundarySnapshot &Snap, uint64_t Word,
                                const jvm::JThread *Perspective) {
  if (!Word || Snap.findPeek(Word))
    return;
  jvm::Vm::PeekResult Peek = Vm.peekHandle(Word, Perspective);
  Snap.addPeek(Word, Peek.Target.raw(), static_cast<uint8_t>(Peek.S),
               static_cast<uint8_t>(Peek.Kind), Peek.OwnerThread);
}

void TraceRecorder::captureCommon(jvmti::BoundarySnapshot &Snap,
                                  JNIEnv *Env) {
  jvm::JThread *Thread = Env->thread;
  Snap.ThreadId = Thread->id();
  jvm::JThread *Current = Env->runtime->currentThread();
  Snap.CurThreadId = Current ? Current->id() : 0;
  Snap.EnvWord = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Env));
  Snap.ExceptionPending = !Thread->Pending.isNull();
}

void TraceRecorder::captureJniSnapshot(jvmti::BoundarySnapshot &Snap,
                                       jvmti::CapturedCall &Call,
                                       bool IsPost) {
  JNIEnv *Env = Call.env();
  jvm::JThread *Thread = Env->thread;
  captureCommon(Snap, Env);

  const jni::FnTraits &Traits = Call.traits();

  // Every nonzero reference argument, as the machines would peek it.
  for (size_t I = 0; I < Call.numArgs(); ++I)
    if (uint64_t Word = Call.refWord(I))
      capturePeek(Snap, Word, Thread);
  if (IsPost && Call.returnIsRef() && Call.returnWord())
    capturePeek(Snap, Call.returnWord(), Thread);

  // Entity-ID registry checks.
  int MethodIdx = Traits.firstParam(jni::ArgClass::MethodId);
  if (MethodIdx >= 0) {
    const void *Ptr = Call.arg(MethodIdx).Ptr;
    Snap.MethodIdValid = Ptr && Vm.isMethodId(Ptr);
  }
  int FieldIdx = Traits.firstParam(jni::ArgClass::FieldId);
  if (FieldIdx >= 0) {
    const void *Ptr = Call.arg(FieldIdx).Ptr;
    Snap.FieldIdValid = Ptr && Vm.isFieldId(Ptr);
  }
  if (IsPost && Traits.ProducesFieldId)
    Snap.RetFieldIdValid =
        Call.returnPtr() && Vm.isFieldId(Call.returnPtr());

  // Pin-release buffer lookup (the released pointer is matched against the
  // runtime's outstanding pin records at call time).
  if (!IsPost && Traits.Resource == jni::ResourceRole::PinRelease) {
    int BufIdx = Traits.firstParam(jni::ArgClass::OutPtr);
    if (BufIdx < 0)
      BufIdx = Traits.firstParam(jni::ArgClass::CString);
    const void *Buf = BufIdx >= 0 ? Call.arg(BufIdx).Ptr : nullptr;
    if (const jni::BufferRecord *Record =
            Buf ? Env->runtime->findBuffer(Buf) : nullptr) {
      Snap.BufferFound = true;
      Snap.BufferTarget = Record->Target.raw();
    }
  }

  // Decoded call-argument arrays (CallXMethodA family) plus peeks of the
  // reference formals the entity-typing machine conforms.
  if (IsPost || !Traits.hasParam(jni::ArgClass::JvalueArray))
    return;
  jvm::MethodInfo *Method = Call.methodArg();
  if (!Method)
    return;
  std::optional<std::span<const jvalue>> CallArgs = Call.callArgs(*Method);
  if (!CallArgs || CallArgs->size() > jvmti::BoundarySnapshot::MaxCallArgs)
    return;
  Snap.HasCallArgs = true;
  Snap.NumCallArgs = static_cast<uint8_t>(CallArgs->size());
  std::copy(CallArgs->begin(), CallArgs->end(), Snap.CallArgs);
  for (size_t I = 0; I < CallArgs->size(); ++I)
    if (Method->Sig.Params[I].isReference())
      capturePeek(Snap, jni::handleWord((*CallArgs)[I].l), Thread);
}

//===----------------------------------------------------------------------===
// Event recording
//===----------------------------------------------------------------------===

void TraceRecorder::recordJni(jvmti::CapturedCall &Call, bool IsPost) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev =
      beginEvent(Buffer, IsPost ? EventKind::JniPost : EventKind::JniPre);
  Ev.Fn = static_cast<uint16_t>(Call.id());
  Ev.ThreadId = Call.env()->thread->id();
  Ev.NumArgs = static_cast<uint8_t>(Call.numArgs());
  for (size_t I = 0; I < Call.numArgs(); ++I) {
    const jvmti::CapturedArg &Arg = Call.arg(I);
    Ev.Args[I] = {static_cast<uint8_t>(Arg.Cls), Arg.Word,
                  static_cast<uint64_t>(
                      reinterpret_cast<uintptr_t>(Arg.Ptr))};
  }
  if (IsPost) {
    Ev.HasReturn = Call.hasReturn();
    Ev.RetIsRef = Call.returnIsRef();
    Ev.RetWord = Call.returnWord();
    Ev.RetPtrWord = static_cast<uint64_t>(
        reinterpret_cast<uintptr_t>(Call.returnPtr()));
  }
  captureJniSnapshot(Ev.Snap, Call, IsPost);
  commitEvent(Buffer);
}

void TraceRecorder::installJniHooks(jvmti::InterposeDispatcher &Dispatcher) {
  Dispatcher.addPreAll(
      [this](jvmti::CapturedCall &Call) { recordJni(Call, false); });
  Dispatcher.addPostAll(
      [this](jvmti::CapturedCall &Call) { recordJni(Call, true); });
}

void TraceRecorder::recordThreadAttach(jvm::JThread &Thread) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev = beginEvent(Buffer, EventKind::ThreadAttach);
  Ev.ThreadId = Thread.id();
  std::snprintf(Ev.Name, sizeof(Ev.Name), "%s", Thread.name().c_str());
  Ev.Snap.ThreadId = Thread.id();
  Ev.Snap.EnvWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(Thread.EnvPtr));
  commitEvent(Buffer);
}

void TraceRecorder::recordThreadDetach(jvm::JThread &Thread) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev = beginEvent(Buffer, EventKind::ThreadDetach);
  Ev.ThreadId = Thread.id();
  Ev.Snap.ThreadId = Thread.id();
  commitEvent(Buffer);
}

void TraceRecorder::recordGcEpoch() {
  ThreadBuffer &Buffer = localBuffer();
  beginEvent(Buffer, EventKind::GcEpoch);
  commitEvent(Buffer);
}

void TraceRecorder::recordVmDeath() {
  ThreadBuffer &Buffer = localBuffer();
  beginEvent(Buffer, EventKind::VmDeath);
  commitEvent(Buffer);
}

void TraceRecorder::recordNativeBind(jvm::MethodInfo &Method) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev = beginEvent(Buffer, EventKind::NativeBind);
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
  commitEvent(Buffer);
}

void TraceRecorder::onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env,
                                  jobject Self, const jvalue *Args) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev = beginEvent(Buffer, EventKind::NativeEntry);
  Ev.ThreadId = Env->thread->id();
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
  Ev.SelfWord = jni::handleWord(Self);
  size_t NumParams = Method.Sig.Params.size();
  if (NumParams > TraceEvent::MaxNativeArgs) {
    Ev.NativeArgsTruncated = true;
    NumParams = TraceEvent::MaxNativeArgs;
  }
  if (Args) {
    Ev.NumNativeArgs = static_cast<uint8_t>(NumParams);
    std::copy(Args, Args + NumParams, Ev.NativeArgs);
  }
  captureCommon(Ev.Snap, Env);
  commitEvent(Buffer);
}

void TraceRecorder::onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env,
                                 jobject Self, const jvalue *Args,
                                 const jvalue *Ret, bool EntryAborted) {
  ThreadBuffer &Buffer = localBuffer();
  TraceEvent &Ev = beginEvent(Buffer, EventKind::NativeExit);
  Ev.ThreadId = Env->thread->id();
  Ev.MethodWord =
      static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&Method));
  Ev.SelfWord = jni::handleWord(Self);
  Ev.Aborted = EntryAborted;
  size_t NumParams = Method.Sig.Params.size();
  if (NumParams > TraceEvent::MaxNativeArgs) {
    Ev.NativeArgsTruncated = true;
    NumParams = TraceEvent::MaxNativeArgs;
  }
  if (Args) {
    Ev.NumNativeArgs = static_cast<uint8_t>(NumParams);
    std::copy(Args, Args + NumParams, Ev.NativeArgs);
  }
  if (Ret) {
    Ev.HasReturn = true;
    Ev.NativeRet = *Ret;
  }
  captureCommon(Ev.Snap, Env);
  // The local-ref and global-ref machines peek a returned reference.
  if (Ret && Method.Sig.Ret.isReference())
    capturePeek(Ev.Snap, jni::handleWord(Ret->l), Env->thread);
  commitEvent(Buffer);
}

//===----------------------------------------------------------------------===
// Collection
//===----------------------------------------------------------------------===

double TraceRecorder::nsPerTick() {
  // Calibrate the tick unit against the monotonic clock over the span
  // recorded so far, once, and cache the factor: every segment of one
  // recording (incremental drains and the final collect) must use the
  // *same* monotonic scaling, or cross-segment merge order could invert.
  std::lock_guard<std::mutex> Lock(CalibMu);
  if (CachedNsPerTick == 0.0) {
    uint64_t ElapsedTicks = readTicks() - StartTicks;
    uint64_t ElapsedNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    CachedNsPerTick = ElapsedTicks
                          ? static_cast<double>(ElapsedNs) /
                                static_cast<double>(ElapsedTicks)
                          : 1.0;
  }
  return CachedNsPerTick;
}

Trace TraceRecorder::collect() {
  const double Factor = nsPerTick();
  Trace Out;
  Out.Head.NativeFrameCapacity = Vm.options().NativeFrameCapacity;
  // Queued-but-undrained chunks (streaming mode, retired threads) are part
  // of the recording too; read them non-destructively so a final "drain
  // then collect" harvest sees each event exactly once and a collect()
  // without drains still sees everything. Both locks stay held until every
  // record is decoded: a concurrent drain would otherwise recycle a queued
  // chunk's storage under the decode.
  std::scoped_lock Lock(RegistryMu, QueueMu);
  size_t Total = 0;
  for (const std::unique_ptr<ThreadBuffer> &Buffer : Buffers) {
    for (const EventChunk &Chunk : Buffer->Chunks)
      Total += Chunk.events();
    Total += Buffer->Chunk.events();
  }
  for (const EventChunk &Chunk : SealedQueue)
    Total += Chunk.events();
  std::vector<MergeKey> Keys;
  Keys.reserve(Total);
  for (const std::unique_ptr<ThreadBuffer> &Buffer : Buffers) {
    for (const EventChunk &Chunk : Buffer->Chunks)
      Chunk.appendMergeKeys(Keys, Factor);
    Buffer->Chunk.appendMergeKeys(Keys, Factor);
  }
  for (const EventChunk &Chunk : SealedQueue)
    Chunk.appendMergeKeys(Keys, Factor);
  Out.Head.DroppedEvents = DroppedTotal.load(std::memory_order_relaxed);
  EventChunk::decodeInMergeOrder(Keys, Out, Factor);
  return Out;
}

Trace TraceRecorder::drainSealed() {
  const double Factor = nsPerTick();
  Trace Out;
  Out.Head.NativeFrameCapacity = Vm.options().NativeFrameCapacity;
  std::deque<EventChunk> Popped;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Popped.swap(SealedQueue);
    uint64_t Total = DroppedTotal.load(std::memory_order_relaxed);
    Out.Head.DroppedEvents = Total - DrainReportedDropped;
    DrainReportedDropped = Total;
  }
  size_t TotalEvents = 0;
  for (const EventChunk &Chunk : Popped)
    TotalEvents += Chunk.events();
  std::vector<MergeKey> Keys;
  Keys.reserve(TotalEvents);
  for (const EventChunk &Chunk : Popped)
    Chunk.appendMergeKeys(Keys, Factor);
  EventChunk::decodeInMergeOrder(Keys, Out, Factor);
  {
    // Return full-size drained storage to the recycle pool; sealing
    // threads pick it up instead of allocating fresh chunks. Trimmed
    // (retired) chunks are too small to reuse and are freed.
    std::lock_guard<std::mutex> Lock(QueueMu);
    for (EventChunk &Chunk : Popped)
      if (Chunk.capacity() >= chunkBytes() &&
          FreeChunks.size() < Opts.MaxQueuedChunks)
        FreeChunks.push_back(std::move(Chunk));
  }
  return Out;
}

void TraceRecorder::retireLocalBuffer() {
  if (LocalCache.RecorderId != InstanceId)
    return;
  auto *Buffer = static_cast<ThreadBuffer *>(LocalCache.Buffer);
  LocalCache = {};
  std::unique_ptr<ThreadBuffer> Owned;
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    for (auto It = Buffers.begin(); It != Buffers.end(); ++It)
      if (It->get() == Buffer) {
        Owned = std::move(*It);
        Buffers.erase(It);
        break;
      }
  }
  if (!Owned)
    return;
  // Everything the thread buffered moves to the recorder-level queue: the
  // batch-mode chunks and the partial chunk, trimmed to its used bytes so
  // a queued retirement pins only what the thread recorded.
  for (EventChunk &Chunk : Owned->Chunks)
    pushSealedChunk(std::move(Chunk));
  Owned->Chunks.clear();
  if (Owned->Chunk.events()) {
    Owned->Chunk.trim();
    pushSealedChunk(std::move(Owned->Chunk));
  }
  Owned->Chunk = {};
  {
    std::lock_guard<std::mutex> Lock(RegistryMu);
    FreeBuffers.push_back(std::move(Owned));
  }
}

size_t TraceRecorder::liveThreadBuffers() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  return Buffers.size();
}

uint64_t TraceRecorder::droppedEvents() {
  return DroppedTotal.load(std::memory_order_relaxed);
}

size_t TraceRecorder::queuedChunkBytes() {
  std::lock_guard<std::mutex> Lock(QueueMu);
  size_t Bytes = 0;
  for (const EventChunk &Chunk : SealedQueue)
    Bytes += Chunk.capacity();
  return Bytes;
}
