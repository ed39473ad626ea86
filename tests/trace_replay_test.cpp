//===- tests/trace_replay_test.cpp - Trace record/replay determinism -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism guarantee of the boundary-crossing trace subsystem:
/// replaying a record+replay trace — directly or after a round trip
/// through the binary trace file — reproduces the inline checker's report
/// list byte-for-byte, for every microbenchmark and for the concurrent
/// workload driver. Also covers record-only traces (replay is the only
/// checker), zero slack in every trace that leaves the recorder, the file
/// format's rejection of corrupt input, and the Chrome-trace and counters
/// exporters, and the recorder's chunk codec at every event kind's count
/// extremes. Meant to run clean under -fsanitize=thread (configure with
/// -DJINN_TSAN=ON).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "scenarios/Scenarios.h"
#include "support/Format.h"
#include "trace/Export.h"
#include "trace/Recorder.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"
#include "workloads/ServerSoak.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>

using namespace jinn;
using namespace jinn::scenarios;

namespace {

WorldConfig recordingConfig(agent::TraceMode Mode) {
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnMode = Mode;
  return Config;
}

/// gtest-friendly equality over full report structs.
void expectReportsEqual(const std::vector<agent::JinnReport> &Expected,
                        const std::vector<agent::JinnReport> &Actual,
                        const char *Label) {
  ASSERT_EQ(Expected.size(), Actual.size()) << Label;
  for (size_t I = 0; I < Expected.size(); ++I) {
    EXPECT_EQ(Expected[I].Machine, Actual[I].Machine) << Label << " #" << I;
    EXPECT_EQ(Expected[I].Function, Actual[I].Function) << Label << " #" << I;
    EXPECT_EQ(Expected[I].Message, Actual[I].Message) << Label << " #" << I;
    EXPECT_EQ(Expected[I].EndOfRun, Actual[I].EndOfRun) << Label << " #" << I;
  }
}

std::vector<agent::JinnReport> sorted(std::vector<agent::JinnReport> Reports) {
  std::sort(Reports.begin(), Reports.end(),
            [](const agent::JinnReport &A, const agent::JinnReport &B) {
              return std::make_tuple(A.Machine, A.Function, A.Message,
                                     A.EndOfRun) <
                     std::make_tuple(B.Machine, B.Function, B.Message,
                                     B.EndOfRun);
            });
  return Reports;
}

/// A scratch trace-file path unique to this test binary.
std::string tracePath(const char *Tag) {
  return std::string("trace_replay_test_") + Tag + ".jinntrace";
}

// Every microbenchmark, recorded in record+replay mode, must replay to the
// inline checker's exact report list — both from the in-memory trace and
// after a round trip through the binary file format.
TEST(ReplayDeterminism, AllMicrosByteIdentical) {
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    SCOPED_TRACE(Info.ClassName);
    ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
    runMicrobenchmark(Info.Id, World);
    World.shutdown();

    const std::vector<agent::JinnReport> &Inline =
        World.Jinn->reporter().reports();
    if (Info.DetectableAtBoundary) {
      EXPECT_FALSE(Inline.empty()) << "inline checker missed the bug";
    }

    trace::Trace Recorded = World.Jinn->recorder()->collect();
    EXPECT_FALSE(Recorded.Events.empty());

    trace::ReplayResult Direct = trace::replayTrace(Recorded, World.Vm);
    expectReportsEqual(Inline, Direct.Reports, "direct replay");

    std::string Path = tracePath(Info.ClassName);
    std::string Err;
    ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
    trace::Trace FromDisk;
    ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
    std::remove(Path.c_str());

    trace::ReplayResult RoundTrip = trace::replayTrace(FromDisk, World.Vm);
    expectReportsEqual(Inline, RoundTrip.Reports, "file round-trip replay");
  }
}

// Record-only traces carry no inline verdicts (no machines ran), but
// replaying them must still catch every boundary-detectable bug.
TEST(ReplayDeterminism, RecordOnlyReplayCatchesBugs) {
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    SCOPED_TRACE(Info.ClassName);
    ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
    runMicrobenchmark(Info.Id, World);
    World.shutdown();

    EXPECT_TRUE(World.Jinn->reporter().reports().empty())
        << "record-only must not check inline";

    trace::Trace Recorded = World.Jinn->recorder()->collect();
    trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
    if (Info.DetectableAtBoundary)
      EXPECT_GT(Replayed.Reports.size(), 0u)
          << "offline replay missed a detectable bug";
    else
      EXPECT_EQ(Replayed.Reports.size(), 0u);
  }
}

// The concurrent workload driver: record+replay across several OS threads,
// deterministic-merge the trace, and verify the replay reproduces the
// inline reports. Cross-thread inline report order is scheduler-dependent,
// so the comparison is over sorted lists (the workload is correct JNI, so
// both lists are normally empty — the assertion is that replay invents
// nothing and loses nothing).
TEST(ReplayDeterminism, ConcurrentWorkloadRecordReplay) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  workloads::prepareWorkloadWorld(World);
  const workloads::WorkloadInfo &Info = *workloads::workloadByName("jack");
  workloads::WorkloadRun Run =
      workloads::runWorkloadConcurrent(Info, World, /*ScaleDivisor=*/8192,
                                       /*NumThreads=*/4);
  World.shutdown();
  EXPECT_GT(Run.JniCalls + Run.NativeTransitions, 0u);

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  EXPECT_GT(Recorded.Events.size(), 0u);

  // The merged order must be a valid total order: per-thread sequence
  // numbers strictly increase along the epoch order.
  std::map<uint32_t, uint64_t> LastSeq;
  for (size_t I = 0; I < Recorded.Events.size(); ++I) {
    const trace::TraceEvent &Ev = Recorded.Events[I];
    EXPECT_EQ(Ev.Epoch, I);
    auto It = LastSeq.find(Ev.ThreadId);
    if (It != LastSeq.end()) {
      EXPECT_GT(Ev.Seq, It->second) << "per-thread order broken at " << I;
    }
    LastSeq[Ev.ThreadId] = Ev.Seq;
  }

  trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
  EXPECT_EQ(Replayed.EventsReplayed, Recorded.Events.size());
  expectReportsEqual(sorted(World.Jinn->reporter().reports()),
                     sorted(Replayed.Reports), "concurrent replay");
}

// The binary file format: a round trip preserves the header, the thread
// names, and every event byte.
TEST(TraceFileFormat, RoundTripPreservesEverything) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = tracePath("roundtrip");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  trace::Trace FromDisk;
  ASSERT_TRUE(trace::readTraceFile(FromDisk, Path, &Err)) << Err;
  std::remove(Path.c_str());

  EXPECT_EQ(Recorded.Head.Version, FromDisk.Head.Version);
  EXPECT_EQ(Recorded.Head.NativeFrameCapacity,
            FromDisk.Head.NativeFrameCapacity);
  EXPECT_EQ(Recorded.Head.DroppedEvents, FromDisk.Head.DroppedEvents);
  EXPECT_EQ(Recorded.ThreadNames, FromDisk.ThreadNames);
  ASSERT_EQ(Recorded.Events.size(), FromDisk.Events.size());
  // Records are written verbatim, so every byte survives, the zeroed slack
  // past each array's count included: memcmp is exact.
  for (size_t I = 0; I < Recorded.Events.size(); ++I)
    EXPECT_EQ(std::memcmp(&Recorded.Events[I], &FromDisk.Events[I],
                          sizeof(trace::TraceEvent)),
              0)
        << "event " << I;
}

/// The first byte range of \p Ev that TraceEvent's layout contract leaves
/// outside every valid extent (past a count, or padding) and that is not
/// all zero, as "field: bytes [from, to)"; "" when there is none.
std::string nonzeroSlack(const trace::TraceEvent &Ev) {
  using trace::ArgRecord;
  using trace::TraceEvent;
  using jvmti::BoundarySnapshot;
  using jvmti::PeekFact;
  const auto *Bytes = reinterpret_cast<const unsigned char *>(&Ev);
  std::string Where;
  auto Zero = [&](const char *Field, size_t From, size_t To) {
    if (Where.empty() && std::any_of(Bytes + From, Bytes + To,
                                     [](unsigned char B) { return B != 0; }))
      Where = formatString("%s: bytes [%zu, %zu)", Field, From, To);
  };
  Zero("prefix padding", offsetof(TraceEvent, NumNativeArgs) + 1,
       offsetof(TraceEvent, RetWord));
  for (size_t I = 0; I < TraceEvent::MaxArgs; ++I) {
    const size_t At = offsetof(TraceEvent, Args) + I * sizeof(ArgRecord);
    if (I < Ev.NumArgs)
      Zero("Args padding", At + 1, At + offsetof(ArgRecord, Word));
    else
      Zero("Args", At, At + sizeof(ArgRecord));
  }
  Zero("NativeArgs",
       offsetof(TraceEvent, NativeArgs) + Ev.NumNativeArgs * sizeof(jvalue),
       offsetof(TraceEvent, NativeRet));
  if (Ev.Kind != trace::EventKind::NativeExit || !Ev.HasReturn)
    Zero("NativeRet", offsetof(TraceEvent, NativeRet),
         offsetof(TraceEvent, Name));
  Zero("Name",
       offsetof(TraceEvent, Name) +
           (Ev.Kind == trace::EventKind::ThreadAttach ? std::strlen(Ev.Name)
                                                      : 0),
       offsetof(TraceEvent, Snap));
  const size_t Snap = offsetof(TraceEvent, Snap);
  Zero("snapshot padding", Snap + offsetof(BoundarySnapshot, HasCallArgs) + 1,
       Snap + offsetof(BoundarySnapshot, BufferTarget));
  for (size_t I = 0; I < BoundarySnapshot::MaxPeeks; ++I) {
    const size_t At =
        Snap + offsetof(BoundarySnapshot, Peeks) + I * sizeof(PeekFact);
    if (I < Ev.Snap.NumPeeks)
      Zero("Peeks padding", At + offsetof(PeekFact, Kind) + 1,
           At + offsetof(PeekFact, OwnerThread));
    else
      Zero("Peeks", At, At + sizeof(PeekFact));
  }
  Zero("CallArgs",
       Snap + offsetof(BoundarySnapshot, CallArgs) +
           Ev.Snap.NumCallArgs * sizeof(jvalue),
       Snap + sizeof(BoundarySnapshot));
  Zero("tail padding", Snap + sizeof(BoundarySnapshot), sizeof(TraceEvent));
  return Where;
}

void expectZeroSlack(const trace::Trace &T, const char *Label) {
  EXPECT_GT(T.Events.size(), 0u) << Label;
  for (size_t I = 0; I < T.Events.size(); ++I) {
    std::string Where = nonzeroSlack(T.Events[I]);
    if (!Where.empty()) {
      ADD_FAILURE() << Label << " event " << I << " ("
                    << trace::eventKindName(T.Events[I].Kind)
                    << "): nonzero slack in " << Where;
      return;
    }
  }
}

/// Frees heap blocks the size of a \p Events-event ring filled with 0xA5,
/// so recorder storage that is not zero-filled likely starts out dirty.
void dirtyHeap(size_t Events) {
  const size_t Size = Events * sizeof(trace::TraceEvent);
  std::vector<std::unique_ptr<unsigned char[]>> Blocks;
  for (int I = 0; I < 16; ++I) {
    Blocks.emplace_back(new unsigned char[Size]);
    volatile unsigned char *Block = Blocks.back().get();
    for (size_t B = 0; B < Size; ++B)
      Block[B] = 0xA5;
  }
}

// Traces leaving the recorder (collect(), drainSealed()) carry zero slack
// past every count, whichever storage held the events: batch rings and
// chunks, a bounded recording's recycled chunk, streaming rings recycled
// from drained chunks, and retired threads' partial rings.
TEST(TraceFileFormat, CollectedAndDrainedSlackIsZero) {
  const workloads::WorkloadInfo &Db = *workloads::workloadByName("db");
  {
    WorldConfig Config = recordingConfig(agent::TraceMode::RecordOnly);
    Config.JinnRecorder.RingCapacity = 16;
    dirtyHeap(16);
    ScenarioWorld World(Config);
    workloads::prepareWorkloadWorld(World);
    workloads::runWorkload(Db, World, /*ScaleDivisor=*/4096);
    World.shutdown();
    expectZeroSlack(World.Jinn->recorder()->collect(), "batch");
  }
  {
    WorldConfig Config = recordingConfig(agent::TraceMode::RecordOnly);
    Config.JinnRecorder.RingCapacity = 8;
    Config.JinnRecorder.MaxChunksPerThread = 2;
    ScenarioWorld World(Config);
    workloads::prepareWorkloadWorld(World);
    workloads::runWorkload(Db, World, /*ScaleDivisor=*/4096);
    World.shutdown();
    trace::Trace Bounded = World.Jinn->recorder()->collect();
    EXPECT_GT(Bounded.Head.DroppedEvents, 0u);
    expectZeroSlack(Bounded, "bounded");
  }
  {
    WorldConfig Config = recordingConfig(agent::TraceMode::RecordOnly);
    Config.JinnRecorder.RingCapacity = 8;
    Config.JinnRecorder.StreamChunks = true;
    Config.JinnRecorder.MaxQueuedChunks = 4096;
    ScenarioWorld World(Config);
    workloads::prepareWorkloadWorld(World);
    trace::TraceRecorder &Recorder = *World.Jinn->recorder();
    workloads::runWorkload(Db, World, /*ScaleDivisor=*/4096);
    expectZeroSlack(Recorder.drainSealed(), "first drain");
    // The drained chunks are the free pool the next rings come from.
    workloads::runWorkload(Db, World, /*ScaleDivisor=*/4096);
    expectZeroSlack(Recorder.drainSealed(), "second drain");
    World.shutdown();
    EXPECT_EQ(Recorder.droppedEvents(), 0u);
    expectZeroSlack(Recorder.collect(), "streaming collect");
  }
  {
    dirtyHeap(trace::TraceRecorderOptions().RingCapacity);
    ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
    workloads::SoakOptions Opts;
    Opts.Workers = 2;
    Opts.Requests = 16;
    Opts.OpsPerRequest = 12;
    workloads::runServerSoak(World, Opts);
    // Every request thread retired its partial ring into the queue.
    EXPECT_LE(World.Jinn->recorder()->liveThreadBuffers(), 1u);
    World.shutdown();
    expectZeroSlack(World.Jinn->recorder()->collect(), "retired threads");
  }
}

namespace {

/// An event as a record call leaves the recorder's scratch event: stale
/// bytes everywhere, the two scalar prefixes cleared, then \p Fill's
/// captures.
template <typename FillT>
trace::TraceEvent capturedEvent(trace::EventKind Kind, uint64_t Time,
                                FillT Fill) {
  trace::TraceEvent Ev;
  std::memset(static_cast<void *>(&Ev), 0xA5, sizeof(Ev));
  std::memset(static_cast<void *>(&Ev), 0, offsetof(trace::TraceEvent, Args));
  std::memset(static_cast<void *>(&Ev.Snap), 0,
              offsetof(jvmti::BoundarySnapshot, Peeks));
  Ev.Kind = Kind;
  Ev.Fn = 0xFFFF;
  Ev.TimeNs = Time;
  Ev.Seq = Time;
  Ev.ThreadId = 7;
  Fill(Ev);
  return Ev;
}

void fillArgs(trace::TraceEvent &Ev, size_t N) {
  Ev.NumArgs = static_cast<uint8_t>(N);
  for (size_t I = 0; I < N; ++I)
    Ev.Args[I] = {static_cast<uint8_t>(I + 1), 0x1000 + I, 0x2000 + I};
}

void fillNativeArgs(trace::TraceEvent &Ev) {
  Ev.MethodWord = 0xBEEF;
  Ev.SelfWord = 0xCAFE;
  Ev.NativeArgsTruncated = true;
  Ev.NumNativeArgs = trace::TraceEvent::MaxNativeArgs;
  for (size_t I = 0; I < trace::TraceEvent::MaxNativeArgs; ++I)
    Ev.NativeArgs[I].j = static_cast<jlong>(0x3000 + I);
}

void fillSnapshot(trace::TraceEvent &Ev) {
  jvmti::BoundarySnapshot &Snap = Ev.Snap;
  Snap.ThreadId = 7;
  Snap.CurThreadId = 8;
  Snap.EnvWord = 0x4000;
  Snap.ExceptionPending = Snap.MethodIdValid = Snap.BufferFound = true;
  Snap.BufferTarget = 0x5000;
  for (uint64_t W = 1; W <= jvmti::BoundarySnapshot::MaxPeeks + 1; ++W)
    Snap.addPeek(0x6000 + W, 0x7000 + W, 2, 1, static_cast<uint32_t>(W));
  Snap.HasCallArgs = true;
  Snap.NumCallArgs = jvmti::BoundarySnapshot::MaxCallArgs;
  for (size_t I = 0; I < jvmti::BoundarySnapshot::MaxCallArgs; ++I)
    Snap.CallArgs[I].j = static_cast<jlong>(0x8000 + I);
}

/// Every event kind, each count at its extremes.
std::vector<trace::TraceEvent> extremeEvents() {
  using trace::EventKind;
  using trace::TraceEvent;
  std::vector<TraceEvent> Events;
  uint64_t Time = 100;
  auto Add = [&](EventKind Kind, auto Fill) {
    Events.push_back(capturedEvent(Kind, Time++, Fill));
  };
  Add(EventKind::JniPre, [](TraceEvent &Ev) { Ev.Fn = 3; });
  Add(EventKind::JniPre, [](TraceEvent &Ev) {
    Ev.Fn = 4;
    fillArgs(Ev, TraceEvent::MaxArgs);
    fillSnapshot(Ev);
  });
  Add(EventKind::JniPost, [](TraceEvent &Ev) { Ev.Fn = 3; });
  Add(EventKind::JniPost, [](TraceEvent &Ev) {
    Ev.Fn = 4;
    fillArgs(Ev, TraceEvent::MaxArgs);
    Ev.HasReturn = Ev.RetIsRef = true;
    Ev.RetWord = 0x9000;
    Ev.RetPtrWord = 0x9001;
    fillSnapshot(Ev);
  });
  Add(EventKind::NativeEntry, [](TraceEvent &Ev) {
    fillNativeArgs(Ev);
    fillSnapshot(Ev);
  });
  Add(EventKind::NativeExit, [](TraceEvent &Ev) {
    fillNativeArgs(Ev);
    Ev.HasReturn = true;
    Ev.NativeRet.j = 0xA000;
    fillSnapshot(Ev);
  });
  Add(EventKind::NativeExit, [](TraceEvent &Ev) { Ev.Aborted = true; });
  Add(EventKind::NativeBind, [](TraceEvent &Ev) { Ev.MethodWord = 0xBEEF; });
  Add(EventKind::ThreadAttach, [](TraceEvent &Ev) {
    std::memset(Ev.Name, 'n', TraceEvent::MaxNameLen);
    Ev.Name[TraceEvent::MaxNameLen] = 0;
    Ev.Snap.ThreadId = 7;
    Ev.Snap.EnvWord = 0x4000;
  });
  Add(EventKind::ThreadDetach, [](TraceEvent &Ev) { Ev.Snap.ThreadId = 7; });
  Add(EventKind::GcEpoch, [](TraceEvent &) {});
  Add(EventKind::VmDeath, [](TraceEvent &) {});
  return Events;
}

/// \p Got, decoded at epoch \p Epoch, equals captured event \p Want in
/// every member its counts make valid.
void expectSameEvent(const trace::TraceEvent &Want,
                     const trace::TraceEvent &Got, uint64_t Epoch) {
  EXPECT_EQ(Got.Epoch, Epoch);
  EXPECT_EQ(Got.Seq, Want.Seq);
  EXPECT_EQ(Got.TimeNs, Want.TimeNs);
  EXPECT_EQ(Got.ThreadId, Want.ThreadId);
  EXPECT_EQ(Got.Kind, Want.Kind);
  EXPECT_EQ(Got.Fn, Want.Fn);
  EXPECT_EQ(Got.HasReturn, Want.HasReturn);
  EXPECT_EQ(Got.RetIsRef, Want.RetIsRef);
  EXPECT_EQ(Got.Aborted, Want.Aborted);
  EXPECT_EQ(Got.NativeArgsTruncated, Want.NativeArgsTruncated);
  EXPECT_EQ(Got.RetWord, Want.RetWord);
  EXPECT_EQ(Got.RetPtrWord, Want.RetPtrWord);
  EXPECT_EQ(Got.MethodWord, Want.MethodWord);
  EXPECT_EQ(Got.SelfWord, Want.SelfWord);
  ASSERT_EQ(Got.NumArgs, Want.NumArgs);
  for (size_t I = 0; I < Want.NumArgs; ++I) {
    EXPECT_EQ(Got.Args[I].Cls, Want.Args[I].Cls) << "arg " << I;
    EXPECT_EQ(Got.Args[I].Word, Want.Args[I].Word) << "arg " << I;
    EXPECT_EQ(Got.Args[I].PtrWord, Want.Args[I].PtrWord) << "arg " << I;
  }
  ASSERT_EQ(Got.NumNativeArgs, Want.NumNativeArgs);
  for (size_t I = 0; I < Want.NumNativeArgs; ++I)
    EXPECT_EQ(Got.NativeArgs[I].j, Want.NativeArgs[I].j) << "native " << I;
  if (Want.Kind == trace::EventKind::NativeExit && Want.HasReturn) {
    EXPECT_EQ(Got.NativeRet.j, Want.NativeRet.j);
  }
  if (Want.Kind == trace::EventKind::ThreadAttach) {
    EXPECT_STREQ(Got.Name, Want.Name);
  }

  const jvmti::BoundarySnapshot &G = Got.Snap, &W = Want.Snap;
  EXPECT_EQ(G.ThreadId, W.ThreadId);
  EXPECT_EQ(G.CurThreadId, W.CurThreadId);
  EXPECT_EQ(G.EnvWord, W.EnvWord);
  EXPECT_EQ(G.PeeksTruncated, W.PeeksTruncated);
  EXPECT_EQ(G.ExceptionPending, W.ExceptionPending);
  EXPECT_EQ(G.MethodIdValid, W.MethodIdValid);
  EXPECT_EQ(G.FieldIdValid, W.FieldIdValid);
  EXPECT_EQ(G.RetFieldIdValid, W.RetFieldIdValid);
  EXPECT_EQ(G.BufferFound, W.BufferFound);
  EXPECT_EQ(G.HasCallArgs, W.HasCallArgs);
  EXPECT_EQ(G.BufferTarget, W.BufferTarget);
  ASSERT_EQ(G.NumPeeks, W.NumPeeks);
  for (size_t I = 0; I < W.NumPeeks; ++I) {
    EXPECT_EQ(G.Peeks[I].Word, W.Peeks[I].Word) << "peek " << I;
    EXPECT_EQ(G.Peeks[I].Target, W.Peeks[I].Target) << "peek " << I;
    EXPECT_EQ(G.Peeks[I].Status, W.Peeks[I].Status) << "peek " << I;
    EXPECT_EQ(G.Peeks[I].Kind, W.Peeks[I].Kind) << "peek " << I;
    EXPECT_EQ(G.Peeks[I].OwnerThread, W.Peeks[I].OwnerThread) << "peek " << I;
  }
  ASSERT_EQ(G.NumCallArgs, W.NumCallArgs);
  for (size_t I = 0; I < W.NumCallArgs; ++I)
    EXPECT_EQ(G.CallArgs[I].j, W.CallArgs[I].j) << "call arg " << I;
}

} // namespace

// The recorder's chunk codec: every event kind at its count extremes is
// encoded into chunks sized as the recorder sizes them — at RingCapacity
// 1, where every event seals its chunk, and at the default — and decodes
// to the captured event member by member, with zero slack.
TEST(TraceRecorderChunks, EveryKindRoundTripsAtItsCountExtremes) {
  const std::vector<trace::TraceEvent> Events = extremeEvents();
  ASSERT_TRUE(Events[1].Snap.PeeksTruncated);
  ASSERT_EQ(Events[1].Snap.NumPeeks, jvmti::BoundarySnapshot::MaxPeeks);
  ASSERT_EQ(std::strlen(Events[8].Name), trace::TraceEvent::MaxNameLen);
  for (size_t RingCapacity :
       {size_t(1), trace::TraceRecorderOptions().RingCapacity}) {
    SCOPED_TRACE(RingCapacity);
    const size_t Bytes = RingCapacity * sizeof(trace::TraceEvent);
    std::vector<trace::EventChunk> Chunks(1);
    Chunks.back().reset(Bytes);
    for (const trace::TraceEvent &Ev : Events) {
      if (Chunks.back().full()) {
        Chunks.emplace_back();
        Chunks.back().reset(Bytes);
      }
      Chunks.back().append(Ev);
      // At RingCapacity 1 every event seals its chunk.
      EXPECT_EQ(Chunks.back().full(), RingCapacity == 1);
    }
    EXPECT_EQ(Chunks.size(), RingCapacity == 1 ? Events.size() : 1u);

    std::vector<trace::MergeKey> Keys;
    for (const trace::EventChunk &Chunk : Chunks)
      Chunk.appendMergeKeys(Keys, /*NsPerTick=*/1.0);
    trace::Trace Out;
    trace::EventChunk::decodeInMergeOrder(Keys, Out, /*NsPerTick=*/1.0);
    ASSERT_EQ(Out.Events.size(), Events.size());
    for (size_t I = 0; I < Events.size(); ++I) {
      SCOPED_TRACE(trace::eventKindName(Events[I].Kind));
      expectSameEvent(Events[I], Out.Events[I], I);
      EXPECT_EQ(nonzeroSlack(Out.Events[I]), "");
    }
    EXPECT_EQ(Out.threadName(7),
              std::string(trace::TraceEvent::MaxNameLen, 'n'));
  }
}

TEST(TraceFileFormat, RejectsCorruptMagic) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::NullArgument, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = tracePath("corrupt");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  {
    std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(File.is_open());
    File.put('X'); // clobber the first magic byte
  }
  trace::Trace Out;
  EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
  EXPECT_FALSE(Err.empty());
  std::remove(Path.c_str());
}

TEST(TraceFileFormat, RejectsCountsBeyondTheFile) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::NullArgument, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = tracePath("hugecount");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  {
    // The header's event count (after magic and four 32-bit fields).
    std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(File.is_open());
    uint64_t Huge = 1ULL << 40;
    File.seekp(24);
    File.write(reinterpret_cast<const char *>(&Huge), sizeof(Huge));
  }
  trace::Trace Out;
  EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err)); // no bad_alloc
  EXPECT_NE(Err.find("header counts exceed"), std::string::npos) << Err;
  EXPECT_TRUE(Out.Events.empty());
  std::remove(Path.c_str());
}

TEST(TraceFileFormat, RejectsOutOfRangeFields) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  const trace::Trace Recorded = World.Jinn->recorder()->collect();
  size_t Jni = 0;
  while (Jni < Recorded.Events.size() &&
         Recorded.Events[Jni].Kind != trace::EventKind::JniPre)
    ++Jni;
  ASSERT_LT(Jni, Recorded.Events.size());

  using Corruption = void (*)(trace::TraceEvent &);
  const std::pair<const char *, Corruption> Cases[] = {
      {"event kind out of range",
       [](trace::TraceEvent &Ev) {
         Ev.Kind = static_cast<trace::EventKind>(trace::NumEventKinds);
       }},
      {"JNI function id out of range",
       [](trace::TraceEvent &Ev) { Ev.Fn = 0xFFF0; }},
      {"argument count above its cap",
       [](trace::TraceEvent &Ev) {
         Ev.NumArgs = trace::TraceEvent::MaxArgs + 1;
       }},
      {"argument class out of range",
       [](trace::TraceEvent &Ev) {
         Ev.NumArgs = 1;
         Ev.Args[0].Cls = 0xEE;
       }},
      {"native argument count above its cap",
       [](trace::TraceEvent &Ev) {
         Ev.NumNativeArgs = trace::TraceEvent::MaxNativeArgs + 1;
       }},
      {"snapshot peek count above its cap",
       [](trace::TraceEvent &Ev) {
         Ev.Snap.NumPeeks = jvmti::BoundarySnapshot::MaxPeeks + 1;
       }},
      {"snapshot call-argument count above its cap",
       [](trace::TraceEvent &Ev) {
         Ev.Snap.NumCallArgs = jvmti::BoundarySnapshot::MaxCallArgs + 1;
       }},
  };
  std::string Path = tracePath("badfield");
  for (const auto &[Why, Corrupt] : Cases) {
    SCOPED_TRACE(Why);
    trace::Trace Bad = Recorded;
    Corrupt(Bad.Events[Jni]);
    std::string Err;
    ASSERT_TRUE(trace::writeTraceFile(Bad, Path, &Err)) << Err;
    trace::Trace Out;
    EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
    EXPECT_NE(Err.find(Why), std::string::npos) << Err;
    EXPECT_TRUE(Out.Events.empty());
  }
  std::remove(Path.c_str());
}

namespace {

/// The argument classes the interposed wrapper of a function captures,
/// derived from the wrapper's own parameter types.
template <typename F> struct WrapperCapture;
template <typename Ret, typename... Params>
struct WrapperCapture<Ret (*)(JNIEnv *, Params...)> {
  static jvmti::CapturedCall capture(jni::FnId Id) {
    jvmti::CapturedCall Call(Id, nullptr);
    (Call.captureOne(Params{}), ...);
    return Call;
  }
};

/// Overwrites \p Size bytes at \p Offset of event \p Index in the trace
/// file at \p Path, past the 40-byte header and the thread table.
void patchEvent(const std::string &Path, size_t Index, size_t Offset,
                const void *Bytes, size_t Size) {
  std::fstream File(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(File.is_open());
  uint32_t Threads = 0;
  File.seekg(20);
  File.read(reinterpret_cast<char *>(&Threads), sizeof(Threads));
  File.seekp(40 + Threads * 36 + Index * sizeof(trace::TraceEvent) + Offset);
  File.write(static_cast<const char *>(Bytes), Size);
}

} // namespace

// The reader rejects a JNI event whose arguments are not the ones its
// function's wrapper captures; that is only sound if every wrapper's
// capture agrees with the traits table.
TEST(TraceFileFormat, EveryWrapperCaptureMatchesTheTraits) {
  size_t Checked = 0;
#define JNI_FN(Name, Ret, Signature, Args)                                   \
  {                                                                          \
    SCOPED_TRACE(#Name);                                                     \
    jvmti::CapturedCall Call =                                               \
        WrapperCapture<Ret(*) Signature>::capture(jni::FnId::Name);          \
    const jni::FnTraits &Traits = jni::fnTraits(jni::FnId::Name);            \
    ASSERT_EQ(Call.numArgs(), Traits.NumParams);                             \
    for (size_t I = 0; I < Call.numArgs(); ++I)                              \
      EXPECT_EQ(Call.arg(I).Cls, Traits.Params[I].Cls) << "argument " << I;  \
    ++Checked;                                                               \
  }
#define JNI_FN_VA(Name, Ret, Params, Args)
#define JNI_FN_VL(Name, Ret, Params, Args)
#include "jni/JniFunctions.def"
#undef JNI_FN_VL
#undef JNI_FN_VA
#undef JNI_FN
  EXPECT_GT(Checked, 150u);
}

TEST(TraceFileFormat, RejectsArgumentsThatDisagreeWithTheFunction) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  const trace::Trace Recorded = World.Jinn->recorder()->collect();
  size_t Jni = 0;
  while (Jni < Recorded.Events.size() &&
         (Recorded.Events[Jni].Kind != trace::EventKind::JniPre ||
          Recorded.Events[Jni].NumArgs == 0))
    ++Jni;
  ASSERT_LT(Jni, Recorded.Events.size());

  using Corruption = void (*)(trace::TraceEvent &);
  const std::pair<const char *, Corruption> Cases[] = {
      {"argument count differs from the function's arity",
       [](trace::TraceEvent &Ev) { --Ev.NumArgs; }},
      {"argument class differs from the function's parameter",
       [](trace::TraceEvent &Ev) {
         Ev.Args[0].Cls =
             Ev.Args[0].Cls == static_cast<uint8_t>(jni::ArgClass::Ref)
                 ? static_cast<uint8_t>(jni::ArgClass::Scalar)
                 : static_cast<uint8_t>(jni::ArgClass::Ref);
       }},
  };
  std::string Path = tracePath("badarity");
  for (const auto &[Why, Corrupt] : Cases) {
    SCOPED_TRACE(Why);
    trace::Trace Bad = Recorded;
    Corrupt(Bad.Events[Jni]);
    std::string Err;
    ASSERT_TRUE(trace::writeTraceFile(Bad, Path, &Err)) << Err;
    trace::Trace Out;
    EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
    EXPECT_NE(Err.find(Why), std::string::npos) << Err;
    EXPECT_TRUE(Out.Events.empty());
  }
  std::remove(Path.c_str());
}

TEST(TraceFileFormat, RejectsAThreadMissingFromTheThreadTable) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  const trace::Trace Recorded = World.Jinn->recorder()->collect();
  size_t Jni = 0;
  while (Jni < Recorded.Events.size() &&
         Recorded.Events[Jni].Kind != trace::EventKind::JniPre)
    ++Jni;
  ASSERT_LT(Jni, Recorded.Events.size());

  std::string Path = tracePath("badthread");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Recorded, Path, &Err)) << Err;
  const uint32_t Unknown = 0x7FFFFFF0;
  ASSERT_EQ(Recorded.ThreadNames.count(Unknown), 0u);
  patchEvent(Path, Jni, offsetof(trace::TraceEvent, ThreadId), &Unknown,
             sizeof(Unknown));
  trace::Trace Out;
  EXPECT_FALSE(trace::readTraceFile(Out, Path, &Err));
  EXPECT_NE(Err.find("thread id not in the thread table"), std::string::npos)
      << Err;
  EXPECT_TRUE(Out.Events.empty());
  std::remove(Path.c_str());
}

// A drained segment can hold a thread's events without its attach event;
// the writer still lists that thread, so the file reads back.
TEST(TraceFileFormat, WriterListsEveryThreadItsEventsName) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordOnly));
  runMicrobenchmark(MicroId::LocalDangling, World);
  World.shutdown();
  trace::Trace Segment = World.Jinn->recorder()->collect();
  std::erase_if(Segment.Events, [](const trace::TraceEvent &Ev) {
    return Ev.Kind == trace::EventKind::ThreadAttach;
  });
  Segment.rebuildThreadNames();
  ASSERT_TRUE(Segment.ThreadNames.empty());

  std::string Path = tracePath("noattach");
  std::string Err;
  ASSERT_TRUE(trace::writeTraceFile(Segment, Path, &Err)) << Err;
  trace::Trace Out;
  ASSERT_TRUE(trace::readTraceFile(Out, Path, &Err)) << Err;
  std::remove(Path.c_str());
  ASSERT_EQ(Out.Events.size(), Segment.Events.size());
  for (const trace::TraceEvent &Ev : Out.Events)
    if (Ev.Kind == trace::EventKind::JniPre) {
      EXPECT_EQ(Out.ThreadNames.count(Ev.ThreadId), 1u);
      EXPECT_EQ(Out.threadName(Ev.ThreadId),
                "thread-" + std::to_string(Ev.ThreadId));
    }
}

TEST(TraceFileFormat, MissingFileFails) {
  trace::Trace Out;
  std::string Err;
  EXPECT_FALSE(
      trace::readTraceFile(Out, "trace_replay_test_nonexistent.jinntrace",
                           &Err));
  EXPECT_FALSE(Err.empty());
}

// The exporters: chrome trace JSON materializes with the expected
// skeleton, and the counters add up.
TEST(TraceExport, ChromeTraceAndCounters) {
  ScenarioWorld World(recordingConfig(agent::TraceMode::RecordAndReplay));
  runMicrobenchmark(MicroId::LocalOverflow, World);
  World.shutdown();
  trace::Trace Recorded = World.Jinn->recorder()->collect();

  std::string Path = "trace_replay_test_chrome.json";
  std::string Err;
  ASSERT_TRUE(trace::writeChromeTrace(Recorded, Path, &Err)) << Err;
  std::ifstream File(Path);
  std::string Text((std::istreambuf_iterator<char>(File)),
                   std::istreambuf_iterator<char>());
  std::remove(Path.c_str());
  EXPECT_NE(Text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Text.find("thread_name"), std::string::npos);

  trace::TraceCounters Counters = trace::computeCounters(Recorded);
  EXPECT_EQ(Counters.TotalEvents, Recorded.Events.size());
  uint64_t KindSum = 0;
  for (size_t K = 0; K < trace::NumEventKinds; ++K)
    KindSum += Counters.KindCounts[K];
  EXPECT_EQ(KindSum, Counters.TotalEvents);
  EXPECT_EQ(Counters.DroppedEvents, Recorded.Head.DroppedEvents);
}

// Bounded recording drops whole chunks (oldest first) and reports the
// loss; the remaining suffix still replays without crashing.
TEST(TraceExport, BoundedRecordingCountsDrops) {
  WorldConfig Config = recordingConfig(agent::TraceMode::RecordOnly);
  Config.JinnRecorder.RingCapacity = 8;
  Config.JinnRecorder.MaxChunksPerThread = 2;
  ScenarioWorld World(Config);
  workloads::prepareWorkloadWorld(World);
  const workloads::WorkloadInfo &Info = *workloads::workloadByName("db");
  workloads::runWorkload(Info, World, /*ScaleDivisor=*/4096);
  World.shutdown();

  trace::Trace Recorded = World.Jinn->recorder()->collect();
  EXPECT_GT(Recorded.Head.DroppedEvents, 0u);
  trace::ReplayResult Replayed = trace::replayTrace(Recorded, World.Vm);
  EXPECT_EQ(Replayed.EventsReplayed, Recorded.Events.size());
}

} // namespace
