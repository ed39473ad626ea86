//===- trace/TraceFile.cpp - Compact binary trace file format ------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceFile.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <type_traits>

using namespace jinn;
using namespace jinn::trace;

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events are written to disk as raw records");

namespace {

constexpr char FileMagic[8] = {'J', 'I', 'N', 'N', 'T', 'R', 'C', '1'};
constexpr uint32_t FileVersion = 1;

struct FileHeader {
  char Magic[8];
  uint32_t Version;
  uint32_t EventSize; ///< sizeof(TraceEvent) at write time
  uint32_t NativeFrameCapacity;
  uint32_t ThreadCount;
  uint64_t EventCount;
  uint64_t DroppedEvents;
};

struct ThreadEntry {
  uint32_t Id;
  char Name[32];
};

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

struct FileCloser {
  void operator()(std::FILE *File) const {
    if (File)
      std::fclose(File);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Whether events of kind \p Kind belong to a thread. Bind, GC and
/// VM-death events carry no thread id.
bool namesThread(EventKind Kind) {
  switch (Kind) {
  case EventKind::JniPre:
  case EventKind::JniPost:
  case EventKind::NativeEntry:
  case EventKind::NativeExit:
  case EventKind::ThreadAttach:
  case EventKind::ThreadDetach:
    return true;
  case EventKind::NativeBind:
  case EventKind::GcEpoch:
  case EventKind::VmDeath:
    return false;
  }
  return false;
}

/// Why \p Ev cannot be a recorded event (its enum fields out of range, a
/// count past its array, or JNI arguments that are not the ones the
/// wrapper of its function captures), or null when every field is in
/// range. Replay and the lifter index arrays by these counts, cast these
/// enums unchecked, and read a JNI event's arguments at the positions its
/// function's traits name.
const char *malformedField(const TraceEvent &Ev) {
  if (static_cast<size_t>(Ev.Kind) >= NumEventKinds)
    return "event kind out of range";
  bool IsJni = Ev.Kind == EventKind::JniPre || Ev.Kind == EventKind::JniPost;
  if (IsJni && Ev.Fn >= jni::NumJniFunctions)
    return "JNI function id out of range";
  if (Ev.NumArgs > TraceEvent::MaxArgs)
    return "argument count above its cap";
  for (size_t I = 0; I < Ev.NumArgs; ++I)
    if (Ev.Args[I].Cls > static_cast<uint8_t>(jni::ArgClass::OutPtr))
      return "argument class out of range";
  if (IsJni) {
    const jni::FnTraits &Traits = jni::fnTraits(static_cast<jni::FnId>(Ev.Fn));
    if (Ev.NumArgs != Traits.NumParams)
      return "argument count differs from the function's arity";
    for (size_t I = 0; I < Ev.NumArgs; ++I)
      if (Ev.Args[I].Cls != static_cast<uint8_t>(Traits.Params[I].Cls))
        return "argument class differs from the function's parameter";
  }
  if (Ev.NumNativeArgs > TraceEvent::MaxNativeArgs)
    return "native argument count above its cap";
  if (Ev.Snap.NumPeeks > jvmti::BoundarySnapshot::MaxPeeks)
    return "snapshot peek count above its cap";
  if (Ev.Snap.NumCallArgs > jvmti::BoundarySnapshot::MaxCallArgs)
    return "snapshot call-argument count above its cap";
  return nullptr;
}

} // namespace

bool jinn::trace::writeTraceFile(const Trace &T, const std::string &Path,
                                 std::string *Err) {
  FilePtr File(std::fopen(Path.c_str(), "wb"));
  if (!File)
    return fail(Err, "cannot open " + Path + " for writing");

  // Every thread an event names gets an entry, named or not: a drained
  // segment or a bounded recording can hold a thread's events without its
  // attach event, and the reader rejects an event whose thread is absent.
  // A thread's events come in runs, so the table is searched once a run.
  std::map<uint32_t, std::string> Threads(T.ThreadNames.begin(),
                                          T.ThreadNames.end());
  std::optional<uint32_t> LastThread;
  for (const TraceEvent &Ev : T.Events)
    if (namesThread(Ev.Kind) && Ev.ThreadId != LastThread) {
      Threads.try_emplace(Ev.ThreadId);
      LastThread = Ev.ThreadId;
    }

  FileHeader Header = {};
  std::memcpy(Header.Magic, FileMagic, sizeof(FileMagic));
  Header.Version = FileVersion;
  Header.EventSize = static_cast<uint32_t>(sizeof(TraceEvent));
  Header.NativeFrameCapacity = T.Head.NativeFrameCapacity;
  Header.ThreadCount = static_cast<uint32_t>(Threads.size());
  Header.EventCount = T.Events.size();
  Header.DroppedEvents = T.Head.DroppedEvents;
  if (std::fwrite(&Header, sizeof(Header), 1, File.get()) != 1)
    return fail(Err, "short write on header");

  for (const auto &[Id, Name] : Threads) {
    ThreadEntry Entry = {};
    Entry.Id = Id;
    std::snprintf(Entry.Name, sizeof(Entry.Name), "%s", Name.c_str());
    if (std::fwrite(&Entry, sizeof(Entry), 1, File.get()) != 1)
      return fail(Err, "short write on thread table");
  }

  if (!T.Events.empty() &&
      std::fwrite(T.Events.data(), sizeof(TraceEvent), T.Events.size(),
                  File.get()) != T.Events.size())
    return fail(Err, "short write on events");
  return true;
}

bool jinn::trace::readTraceFile(Trace &Out, const std::string &Path,
                                std::string *Err) {
  FilePtr File(std::fopen(Path.c_str(), "rb"));
  if (!File)
    return fail(Err, "cannot open " + Path);
  std::error_code SizeErr;
  const uintmax_t FileSize = std::filesystem::file_size(Path, SizeErr);
  if (SizeErr)
    return fail(Err, "cannot size " + Path);

  FileHeader Header = {};
  if (std::fread(&Header, sizeof(Header), 1, File.get()) != 1)
    return fail(Err, "truncated header in " + Path);
  if (std::memcmp(Header.Magic, FileMagic, sizeof(FileMagic)) != 0)
    return fail(Err, Path + " is not a Jinn trace (bad magic)");
  if (Header.Version != FileVersion)
    return fail(Err, "unsupported trace version in " + Path);
  if (Header.EventSize != sizeof(TraceEvent))
    return fail(Err, "trace record layout mismatch in " + Path +
                         " (written by a different build)");

  // The counts must describe this file exactly before anything is sized
  // from them: a corrupt count is an error, not an allocation.
  const uintmax_t Body =
      FileSize - std::min<uintmax_t>(FileSize, sizeof(Header));
  if (Header.ThreadCount > Body / sizeof(ThreadEntry) ||
      Header.EventCount >
          (Body - Header.ThreadCount * sizeof(ThreadEntry)) /
              sizeof(TraceEvent))
    return fail(Err, "header counts exceed the size of " + Path);

  Out = Trace();
  Out.Head.Version = Header.Version;
  Out.Head.NativeFrameCapacity = Header.NativeFrameCapacity;
  Out.Head.DroppedEvents = Header.DroppedEvents;

  for (uint32_t I = 0; I < Header.ThreadCount; ++I) {
    ThreadEntry Entry = {};
    if (std::fread(&Entry, sizeof(Entry), 1, File.get()) != 1)
      return fail(Err, "truncated thread table in " + Path);
    Entry.Name[sizeof(Entry.Name) - 1] = '\0';
    Out.ThreadNames[Entry.Id] = Entry.Name;
  }

  // Uninitialized storage (EventVector): fread writes every byte, and a
  // short read discards the partly filled trace.
  Out.Events.resize(Header.EventCount);
  if (Header.EventCount &&
      std::fread(Out.Events.data(), sizeof(TraceEvent), Header.EventCount,
                 File.get()) != Header.EventCount) {
    Out = Trace();
    return fail(Err, "truncated event stream in " + Path);
  }
  std::optional<uint32_t> LastThread; // checked already; events come in runs
  for (size_t I = 0; I < Out.Events.size(); ++I) {
    const TraceEvent &Ev = Out.Events[I];
    const char *Why = malformedField(Ev);
    if (!Why && namesThread(Ev.Kind) && Ev.ThreadId != LastThread) {
      if (Out.ThreadNames.count(Ev.ThreadId))
        LastThread = Ev.ThreadId;
      else
        Why = "thread id not in the thread table";
    }
    if (Why) {
      Out = Trace();
      return fail(Err, formatString("malformed event %zu in %s: %s", I,
                                    Path.c_str(), Why));
    }
  }
  return true;
}
