//===- trace/TraceEvent.h - Boundary-crossing trace events ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event model of the boundary-crossing trace subsystem. One TraceEvent
/// is recorded per language transition (JNI call/return, native-method
/// entry/exit/bind) plus VM lifecycle points (thread attach/detach, GC
/// epochs, VM death). Events are flat, fixed-size PODs so a trace
/// serializes as a raw record stream; every volatile VM observation a
/// synthesized machine could make at the crossing is frozen into the
/// embedded BoundarySnapshot, which is what makes offline replay reproduce
/// the inline checker's verdicts deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_TRACE_TRACEEVENT_H
#define JINN_TRACE_TRACEEVENT_H

#include "jvmti/Interpose.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jinn::trace {

/// What kind of boundary crossing (or lifecycle point) an event records.
enum class EventKind : uint8_t {
  JniPre,       ///< C about to call a JNI function (C -> Java)
  JniPost,      ///< JNI function returned (Java -> C); absent if suppressed
  NativeEntry,  ///< Java called into a bound native method (Java -> C)
  NativeExit,   ///< native method returned to Java (C -> Java)
  NativeBind,   ///< a native method implementation was bound
  ThreadAttach, ///< a thread became known to the VM
  ThreadDetach, ///< a thread ended
  GcEpoch,      ///< a garbage collection finished
  VmDeath,      ///< VM shutdown (machines emit leak reports here)
};

inline constexpr size_t NumEventKinds = 9;

/// Readable name of \p Kind ("jni-pre", "native-entry", ...).
const char *eventKindName(EventKind Kind);

/// One classified JNI argument, as captured by the interposed wrapper.
struct ArgRecord {
  uint8_t Cls = 0;      ///< jni::ArgClass
  uint64_t Word = 0;    ///< handle bits, ID bits, or scalar payload
  uint64_t PtrWord = 0; ///< pointer operand identity (cstring, jvalue*, ...)
};

/// One recorded boundary crossing. Fixed-size POD: the trace file writes
/// these records verbatim.
///
/// Layout contract: every scalar comes before the payload arrays, and each
/// array's valid extent is governed by a count/flag in that scalar prefix
/// (NumArgs, NumNativeArgs, Kind and HasReturn for NativeRet, Kind for
/// Name, Snap.NumPeeks, Snap.NumCallArgs). The recorder's storage holds no
/// TraceEvent slots: it packs each event's valid extents, element padding
/// as captured, into an encoded record (EventChunk, trace/Recorder.h),
/// which only the recorder's decoder reads. Every Trace that leaves the
/// recorder (collect(), drainSealed()), and so every trace file and every
/// trace read back from one, holds the events decoded in canonical form:
/// each array member-wise up to its count and zero elsewhere, padding
/// included.
struct TraceEvent {
  static constexpr size_t MaxArgs = 5;       ///< JNI functions take <= 5
  static constexpr size_t MaxNativeArgs = 8; ///< native formals kept per event
  static constexpr size_t MaxNameLen = 31;   ///< thread name at attach

  uint64_t Epoch = 0;  ///< global order across threads (merge key)
  uint64_t Seq = 0;    ///< per-recording-thread sequence number
  uint64_t TimeNs = 0; ///< nanoseconds since the recorder started
  uint32_t ThreadId = 0; ///< VM thread the crossing belongs to
  EventKind Kind = EventKind::JniPre;
  uint8_t NumArgs = 0;
  uint16_t Fn = 0xFFFF; ///< jni::FnId for JniPre/JniPost events

  bool HasReturn = false; ///< JniPost/NativeExit carries a return value
  bool RetIsRef = false;
  bool Aborted = false; ///< NativeExit: entry actions suppressed the body
  bool NativeArgsTruncated = false; ///< more formals than MaxNativeArgs
  uint8_t NumNativeArgs = 0;
  uint64_t RetWord = 0;
  uint64_t RetPtrWord = 0;

  uint64_t MethodWord = 0; ///< MethodInfo identity at native sites / binds
  uint64_t SelfWord = 0;   ///< receiver handle word at native sites

  ArgRecord Args[MaxArgs];          ///< classified JNI arguments
  jvalue NativeArgs[MaxNativeArgs]; ///< native-method actuals
  jvalue NativeRet;                 ///< NativeExit return value

  char Name[MaxNameLen + 1]; ///< thread name (ThreadAttach only)

  jvmti::BoundarySnapshot Snap; ///< frozen VM observations
};

/// Allocator for trace-event storage that is written before it is read:
/// constructing an element without arguments (resize(), the sized
/// constructor) leaves its bytes indeterminate instead of zero-filling
/// 592 bytes an event. TraceEvent is a trivially copyable aggregate, so
/// the allocated storage already holds its objects; copies construct as
/// usual. To grow an EventVector by zeroed events, pass the value:
/// resize(N, TraceEvent{}).
template <typename T> struct UninitAllocator {
  using value_type = T;

  UninitAllocator() = default;
  template <typename U> UninitAllocator(const UninitAllocator<U> &) noexcept {}

  T *allocate(size_t N) { return std::allocator<T>().allocate(N); }
  void deallocate(T *P, size_t N) noexcept {
    std::allocator<T>().deallocate(P, N);
  }
  template <typename U> void construct(U *) noexcept {
    static_assert(std::is_trivially_copyable_v<U> && std::is_aggregate_v<U>,
                  "only implicit-lifetime records may skip construction");
  }
  template <typename U, typename... Args>
  void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }

  friend bool operator==(UninitAllocator, UninitAllocator) { return true; }
};

/// Trace-event storage: Trace::Events.
using EventVector = std::vector<TraceEvent, UninitAllocator<TraceEvent>>;

/// A complete recording: header facts, epoch-ordered events, and the
/// thread-name table rebuilt from attach events.
struct Trace {
  struct Header {
    uint32_t Version = 1;
    uint32_t NativeFrameCapacity = 16; ///< VM option at record time
    uint64_t DroppedEvents = 0; ///< lost to bounded recording, oldest first
  };

  Header Head;
  EventVector Events; ///< in Epoch order
  std::unordered_map<uint32_t, std::string> ThreadNames;

  /// Name of thread \p Id from the attach table ("thread-<id>" fallback).
  std::string threadName(uint32_t Id) const;

  /// Repopulates ThreadNames from ThreadAttach events.
  void rebuildThreadNames();
};

/// One event's place in the merge order of every trace that leaves the
/// recorder or a sink: real time, then VM thread, then per-thread sequence
/// (a deterministic total order that follows real time and breaks clock
/// ties stably), then input position. Source is where the caller finds
/// the event.
struct MergeKey {
  uint64_t TimeNs;
  uint64_t Seq;
  uint32_t ThreadId;
  uint32_t Ordinal; ///< input position, numbered by sortMergeKeys()
  const void *Source;
};

/// Numbers \p Keys in input order and sorts them into the merge order.
void sortMergeKeys(std::vector<MergeKey> &Keys);

/// Sorts \p Keys into the merge order and fills \p Out.Events with one
/// event per key: Place(Event, Source) writes each event once, at its
/// epoch, which this then stamps. Rebuilds Out's thread-name table.
template <typename PlaceFn>
void placeInMergeOrder(std::vector<MergeKey> &Keys, Trace &Out,
                       PlaceFn &&Place) {
  sortMergeKeys(Keys);
  Out.Events.resize(Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    Place(Out.Events[I], Keys[I].Source);
    Out.Events[I].Epoch = I;
  }
  Out.rebuildThreadNames();
}

} // namespace jinn::trace

#endif // JINN_TRACE_TRACEEVENT_H
