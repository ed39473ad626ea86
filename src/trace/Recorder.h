//===- trace/Recorder.h - Per-thread lock-free boundary recorder ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace recorder: captures every boundary transition into per-thread
/// byte chunks. The hot path takes no locks and shares no cache lines —
/// each OS thread writes only its own buffer (found through a thread-local
/// cache) and stamps events with the monotonic clock plus a per-thread
/// sequence number. A record call captures into the thread's one scratch
/// TraceEvent, which stays cache-resident, then appends only the event's
/// valid extents to the current chunk (EventChunk). Full chunks are sealed
/// and kept by the same thread; when bounded, the oldest chunk is dropped
/// and counted.
///
/// Two consumption models:
///
///  - Batch (the default): collect() merges all buffers into one
///    epoch-ordered Trace. It must only be called when recording threads
///    are quiesced (joined), which gives the necessary happens-before edge
///    without any locking on the record path.
///  - Streaming (StreamChunks): sealed chunks are published to a bounded
///    recorder-level queue (one short lock per chunk), and a monitor
///    thread drains them incrementally with drainSealed() while recording
///    continues — the production-monitoring mode. Queue overflow drops the
///    oldest chunk and counts it.
///
/// Short-lived threads call retireLocalBuffer() at detach: the partial
/// chunk, trimmed to its used bytes, is sealed into the queue and the
/// buffer returns to a free pool for the next attaching thread, so a server
/// that churns through thousands of request threads holds a bounded number
/// of buffers.
///
/// Every dropped event (per-thread chunk bound, queue bound, or retirement
/// overflow) is surfaced through the VM's "jinn.trace.dropped_events"
/// diagnostics counter.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_TRACE_RECORDER_H
#define JINN_TRACE_RECORDER_H

#include "trace/TraceEvent.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>

namespace jinn::trace {

struct TraceRecorderOptions {
  /// Sizes every chunk: RingCapacity worst-case events, that is
  /// RingCapacity * sizeof(TraceEvent) bytes. Records hold only their
  /// valid extents, so a chunk usually carries two to three times as many
  /// events; it seals when a worst-case record might no longer fit (at 1,
  /// after every event). The default keeps one chunk under glibc's 128 KiB
  /// mmap threshold so chunk churn stays in the (per-thread, lock-free)
  /// malloc arenas — large chunks turn every seal into an mmap/munmap pair,
  /// which serializes recording threads on the kernel's address-space lock
  /// and pays a page fault per touched page.
  size_t RingCapacity = 128;
  /// Sealed chunks kept per thread; 0 = full-fidelity traces, still
  /// backstopped by HardChunkCap. When the bound is hit, the oldest chunk
  /// is dropped and counted, which keeps long runs from holding the entire
  /// event stream in memory.
  size_t MaxChunksPerThread = 0;
  /// Hard per-thread backstop applied when MaxChunksPerThread is 0: no
  /// thread may retain more than this many sealed chunks, ever. A thread
  /// that records forever without a flush previously grew without bound;
  /// now it recycles the oldest chunk past this cap (drops are counted and
  /// published). Large enough (over 1M events at the default chunk size)
  /// that full-fidelity replay runs never hit it.
  size_t HardChunkCap = 8192;
  /// Streaming mode: publish sealed chunks to the recorder-level queue for
  /// incremental drainSealed() consumption instead of accumulating them
  /// per thread.
  bool StreamChunks = false;
  /// Sealed chunks the streaming queue holds before dropping the oldest
  /// (counted). Bounds recorder memory when the monitor falls behind.
  size_t MaxQueuedChunks = 256;
};

/// Recorder storage: encoded events packed back to back in one malloc'd
/// block that is never zero-filled. A record holds exactly an event's
/// valid extents (TraceEvent's layout contract), in member order: the
/// scalar prefix up to Args, Args[NumArgs], NativeArgs[NumNativeArgs],
/// NativeRet (NativeExit with a return only), Name (ThreadAttach only), the
/// snapshot prefix up to Peeks, Peeks[NumPeeks] and CallArgs[NumCallArgs].
/// Every extent is a multiple of 8 bytes, so records stay aligned, and the
/// counts in the two prefixes say where each record ends.
class EventChunk {
public:
  /// The largest record: an event with every array full.
  static constexpr size_t MaxRecordBytes = sizeof(TraceEvent);

  EventChunk() = default;
  EventChunk(EventChunk &&Other) noexcept { *this = std::move(Other); }
  EventChunk &operator=(EventChunk &&Other) noexcept;

  /// Forgets every record and makes room for \p Capacity bytes, keeping
  /// the storage when it is already that large.
  void reset(size_t Capacity);
  /// Shrinks the storage to the used bytes: a retired thread's partial
  /// chunk then pins only what it recorded.
  void trim();

  /// True when a worst-case record might no longer fit.
  bool full() const { return Capacity - Used < MaxRecordBytes; }
  size_t events() const { return Events; }
  size_t capacity() const { return Capacity; }

  /// Appends the valid extents of \p Ev. Requires !full().
  void append(const TraceEvent &Ev);

  /// Adds the merge key of every record to \p Keys, the record being the
  /// key's Source, with its tick stamp converted at \p NsPerTick.
  void appendMergeKeys(std::vector<MergeKey> &Keys, double NsPerTick) const;
  /// Fills \p Out.Events from the records keyed by \p Keys, in merge order
  /// (placeInMergeOrder()): each record is decoded once, at its epoch, into
  /// canonical form (every valid extent member by member, zero elsewhere,
  /// padding included) with its tick stamp converted at \p NsPerTick.
  static void decodeInMergeOrder(std::vector<MergeKey> &Keys, Trace &Out,
                                 double NsPerTick);

private:
  static size_t recordBytes(const unsigned char *Record);
  static void decode(const unsigned char *Record, TraceEvent &Out,
                     double NsPerTick);

  struct FreeBytes {
    void operator()(unsigned char *P) const { std::free(P); }
  };
  std::unique_ptr<unsigned char, FreeBytes> Bytes;
  size_t Capacity = 0; ///< bytes allocated
  size_t Used = 0;     ///< bytes holding records
  size_t Events = 0;   ///< records held
};

/// Records boundary crossings. One recorder per agent; installJniHooks()
/// attaches it to the interposed table, setBoundaryObserver() on the
/// synthesizer routes native-method crossings here.
class TraceRecorder : public jvmti::NativeBoundaryObserver {
public:
  explicit TraceRecorder(jvm::Vm &Vm, TraceRecorderOptions Opts = {});
  ~TraceRecorder() override;

  /// Installs the recording pre/post hooks on \p Dispatcher. They are
  /// all-function hooks, which the dispatcher runs before any per-function
  /// machine hook — so each snapshot freezes the state the machines were
  /// about to observe.
  void installJniHooks(jvmti::InterposeDispatcher &Dispatcher);

  void recordThreadAttach(jvm::JThread &Thread);
  void recordThreadDetach(jvm::JThread &Thread);
  void recordGcEpoch();
  void recordVmDeath();
  void recordNativeBind(jvm::MethodInfo &Method);

  // NativeBoundaryObserver: the synthesized native-method wrapper fires
  // these around the original body.
  void onNativeEntry(jvm::MethodInfo &Method, JNIEnv *Env, jobject Self,
                     const jvalue *Args) override;
  void onNativeExit(jvm::MethodInfo &Method, JNIEnv *Env, jobject Self,
                    const jvalue *Args, const jvalue *Ret,
                    bool EntryAborted) override;

  /// Merges every per-thread buffer, retired/queued chunk, into one trace
  /// and assigns the global epoch in the merge order of placeInMergeOrder():
  /// (TimeNs, ThreadId, Seq), a deterministic total order that follows
  /// real time and breaks clock ties stably. Non-destructive (each record
  /// is decoded once, with zero slack past every count); recording may
  /// continue after. Caller must ensure other recording threads are
  /// quiesced.
  Trace collect();

  /// Streaming harvest: destructively pops every chunk currently in the
  /// sealed queue and returns them as one merged, epoch-ordered segment,
  /// decoded with zero slack like collect().
  /// Safe to call concurrently with recording threads (this is the
  /// monitor's tick path). The segment header's DroppedEvents carries the
  /// drops since the previous drain.
  Trace drainSealed();

  /// Seals the calling OS thread's partial chunk, trimmed to its used
  /// bytes, into the queue and retires
  /// its buffer to the free pool (reused by the next attaching thread).
  /// Called from the agent's ThreadEnd callback — which runs on the
  /// detaching thread — so short-lived request threads leave no buffered
  /// state behind.
  void retireLocalBuffer();

  /// Number of live (non-retired) per-thread buffers.
  size_t liveThreadBuffers();

  /// Events lost to bounded recording so far, across live buffers, retired
  /// buffers, and the streaming queue.
  uint64_t droppedEvents();

  /// Bytes allocated by the chunks waiting in the recorder-level queue
  /// (streaming chunks and retired threads' chunks).
  size_t queuedChunkBytes();

private:
  struct ThreadBuffer;

  ThreadBuffer &localBuffer();
  /// Starts capturing an event of \p Kind into \p Buffer's scratch event;
  /// commitEvent() appends it to the current chunk. Record calls must not
  /// nest on one thread: they share the scratch event.
  TraceEvent &beginEvent(ThreadBuffer &Buffer, EventKind Kind);
  void commitEvent(ThreadBuffer &Buffer);
  /// Seals \p Buffer's full chunk and gives it a fresh one.
  void sealChunk(ThreadBuffer &Buffer);
  size_t chunkBytes() const { return Opts.RingCapacity * sizeof(TraceEvent); }
  void recordJni(jvmti::CapturedCall &Call, bool IsPost);
  void capturePeek(jvmti::BoundarySnapshot &Snap, uint64_t Word,
                   const jvm::JThread *Perspective);
  void captureCommon(jvmti::BoundarySnapshot &Snap, JNIEnv *Env);
  void captureJniSnapshot(jvmti::BoundarySnapshot &Snap,
                          jvmti::CapturedCall &Call, bool IsPost);
  /// Publishes a sealed (full or partial) chunk to the streaming queue,
  /// enforcing MaxQueuedChunks. Returns recycled storage for the caller's
  /// next chunk: an evicted chunk or one from the free pool. Caller must
  /// not hold QueueMu.
  EventChunk pushSealedChunk(EventChunk Chunk);
  /// Tick-to-nanosecond factor, calibrated once against the monotonic
  /// clock and cached so every segment of one recording uses the same
  /// monotonic scaling (per-drain factors could reorder events across
  /// segments).
  double nsPerTick();
  void noteDrop(uint64_t Events);

  jvm::Vm &Vm;
  TraceRecorderOptions Opts;
  uint64_t InstanceId; ///< tags the thread-local buffer cache
  // Events are stamped with raw timestamp-counter ticks on the hot path
  // (one rdtsc instead of a clock_gettime per event); consumers convert
  // to nanoseconds with a calibration measured between these anchors and
  // the first conversion point.
  std::chrono::steady_clock::time_point Start;
  uint64_t StartTicks;
  std::mutex CalibMu;
  double CachedNsPerTick = 0.0;
  std::mutex RegistryMu; ///< guards Buffers and FreeBuffers
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  std::vector<std::unique_ptr<ThreadBuffer>> FreeBuffers;
  /// Sealed chunks not owned by any live thread buffer: the streaming
  /// queue (StreamChunks) plus everything retired threads left behind.
  std::mutex QueueMu;
  std::deque<EventChunk> SealedQueue;
  std::vector<EventChunk> FreeChunks; ///< recycled full-size storage
  uint64_t QueueDropped = 0;   ///< events evicted from the queue
  uint64_t RetiredDropped = 0; ///< drops carried over from retired buffers
  uint64_t DrainReportedDropped = 0; ///< drops already reported by drains
  /// Running total of every dropped event, mirrored into the
  /// "jinn.trace.dropped_events" diagnostics counter.
  std::atomic<uint64_t> DroppedTotal{0};
};

} // namespace jinn::trace

#endif // JINN_TRACE_RECORDER_H
