//===- tests/monitor_soak_test.cpp - Production monitoring soak tests ----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production-monitoring contract under attach/detach churn: the
/// multi-tenant server soak runs thousands of short-lived request threads
/// while a monitor drains the streaming recorder into a bounded sink.
/// Asserts (1) deterministic sampled report merge — the same seed and
/// request schedule produce the same report list twice; (2) sampled-report
/// replay: every inline report of a sampled run is reproduced by replaying
/// the sink's retained trace; (3) bounded memory — per-thread recorder and
/// reporter buffers retire at detach, queue overflow surfaces in the
/// jinn.trace.dropped_events diagnostics counter, retired partial chunks
/// are queued trimmed, and RSS stays under the soak ceiling; (4) the sink
/// implementations retain, rotate, and prune as configured, a segment file
/// that no longer reads back is reported, not silently dropped, and sinks
/// merge segments in the recorder's order. Meant to run clean under
/// -fsanitize=thread (JINN_TSAN).
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"
#include "monitor/Monitor.h"
#include "monitor/TraceSink.h"
#include "support/Resource.h"
#include "trace/Recorder.h"
#include "trace/Replay.h"
#include "workloads/ServerSoak.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

#include <unistd.h>

using namespace jinn;
using namespace jinn::scenarios;
using namespace jinn::workloads;

namespace {

/// Sanitizer builds inflate RSS by design; the absolute-memory assertions
/// are only meaningful on plain builds.
constexpr bool SanitizedBuild =
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

WorldConfig sampledConfig(uint32_t SampleRate) {
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  Config.JinnSampleRate = SampleRate;
  // Record even at rate 1, so every configuration streams a trace for the
  // monitor to drain (sampling > 1 would force this promotion itself).
  Config.JinnMode = agent::TraceMode::RecordAndReplay;
  Config.JinnRecorder.StreamChunks = true;
  Config.JinnRecorder.MaxQueuedChunks = 4096;
  return Config;
}

SoakOptions smallSoak() {
  SoakOptions Opts;
  Opts.Workers = 2;
  Opts.Requests = 128;
  Opts.OpsPerRequest = 12;
  Opts.Tenants = 3;
  Opts.BugEveryNRequests = 4;
  return Opts;
}

std::vector<agent::JinnReport>
violations(const std::vector<agent::JinnReport> &Reports) {
  std::vector<agent::JinnReport> Out;
  for (const agent::JinnReport &R : Reports)
    if (!R.EndOfRun)
      Out.push_back(R);
  return Out;
}

/// Multiset inclusion of \p Sub in \p Super over (Machine, Function,
/// Message).
bool includedIn(const std::vector<agent::JinnReport> &Sub,
                std::vector<agent::JinnReport> Super) {
  for (const agent::JinnReport &R : Sub) {
    auto It = std::find_if(Super.begin(), Super.end(),
                           [&](const agent::JinnReport &S) {
                             return S.Machine == R.Machine &&
                                    S.Function == R.Function &&
                                    S.Message == R.Message;
                           });
    if (It == Super.end())
      return false;
    Super.erase(It);
  }
  return true;
}

/// Segment \p I of a synthetic recording: \p N zeroed GC events of thread
/// 1 stamped I*100, I*100+1, ...
trace::Trace gcSegment(uint64_t I, size_t N) {
  trace::Trace Seg;
  Seg.Events.resize(N, trace::TraceEvent{});
  for (size_t E = 0; E < N; ++E) {
    Seg.Events[E].TimeNs = I * 100 + E;
    Seg.Events[E].ThreadId = 1;
    Seg.Events[E].Seq = I * 100 + E;
    Seg.Events[E].Kind = trace::EventKind::GcEpoch;
  }
  return Seg;
}

} // namespace

// Same seed, same 1-worker request schedule => byte-identical sampled
// report lists across two fresh worlds. The sampling decision is keyed on
// the deterministic request-thread names, so which requests get checked is
// a pure function of the options.
TEST(MonitorSoak, DeterministicSampledReportMerge) {
  SoakOptions Opts = smallSoak();
  Opts.Workers = 1; // one worker => a deterministic request schedule
  Opts.Requests = 96;
  std::vector<agent::JinnReport> Lists[2];
  uint64_t Bugs[2] = {0, 0};
  for (int Round = 0; Round < 2; ++Round) {
    ScenarioWorld World(sampledConfig(8));
    SoakStats Stats = runServerSoak(World, Opts);
    Bugs[Round] = Stats.SeededBugs;
    Lists[Round] = violations(World.Jinn->reporter().reports());
    World.shutdown();
  }
  EXPECT_EQ(Bugs[0], Bugs[1]);
  EXPECT_GT(Bugs[0], 0u);
  ASSERT_EQ(Lists[0].size(), Lists[1].size());
  for (size_t I = 0; I < Lists[0].size(); ++I) {
    EXPECT_EQ(Lists[0][I].Machine, Lists[1][I].Machine) << I;
    EXPECT_EQ(Lists[0][I].Function, Lists[1][I].Function) << I;
    EXPECT_EQ(Lists[0][I].Message, Lists[1][I].Message) << I;
  }
}

// The replay contract of sampled mode: the trace retains the complete
// event stream of every sampled thread (and nothing else), so replaying
// the monitor's retained trace reproduces the inline report list exactly.
TEST(MonitorSoak, SampledReportsReplayFromRetainedTrace) {
  // Rate 4 over ~48 seeded bugs: the chance that no buggy request lands
  // on a sampled thread is (3/4)^48, i.e. negligible.
  ScenarioWorld World(sampledConfig(4));
  // The replay contract holds for reports whose lifecycle the retention
  // window covers; size the ring to hold the whole run so every inline
  // report is in scope no matter how many ticks elapse.
  monitor::RingSink::Options SinkOpts;
  SinkOpts.MaxSegments = 1u << 20;
  SinkOpts.MaxBytes = 1ull << 32;
  monitor::RingSink Sink(SinkOpts);
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink,
                               {.IntervalMs = 5, .SnapshotPath = {}});
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 192;
  SoakStats Stats = runServerSoak(World, Opts);
  Monitor.finish();
  EXPECT_GT(Stats.SeededBugs, 0u);

  std::vector<agent::JinnReport> Inline =
      violations(World.Jinn->reporter().reports());
  World.shutdown();

  trace::Trace Retained = Sink.retained();
  EXPECT_GT(Retained.Events.size(), 0u);
  trace::ReplayResult Replayed = trace::replayTrace(Retained, World.Vm);
  std::vector<agent::JinnReport> Offline = violations(Replayed.Reports);

  // Replay reproduces the inline reports exactly — same multiset in both
  // directions (order may differ: inline merges per-thread buffers,
  // replay walks the global time order).
  EXPECT_GT(Inline.size(), 0u);
  EXPECT_EQ(Inline.size(), Offline.size());
  EXPECT_TRUE(includedIn(Inline, Offline))
      << Inline.size() << " inline vs " << Offline.size() << " replayed";
  EXPECT_TRUE(includedIn(Offline, Inline));

  // The monitor aggregated the sampled threads' crossings.
  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  EXPECT_GT(Snap.Crossings, 0u);
  EXPECT_GT(Snap.LatencySamples, 0u);
  EXPECT_GE(Snap.Reports, Inline.size());
}

// Attach/detach churn must not accumulate per-thread state: recorder and
// reporter buffers retire at DetachCurrentThread and their storage is
// recycled, so after thousands of request threads only the still-attached
// threads (main) hold buffers.
TEST(MonitorSoak, DetachRetiresPerThreadBuffers) {
  ScenarioWorld World(sampledConfig(16));
  monitor::RingSink Sink;
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink,
                               {.IntervalMs = 5, .SnapshotPath = {}});
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 256;
  runServerSoak(World, Opts);
  Monitor.finish();

  // Request threads are detached; only main (and no retired ghosts) may
  // still own a recorder or reporter buffer.
  EXPECT_LE(World.Jinn->recorder()->liveThreadBuffers(), 1u);
  EXPECT_LE(World.Jinn->reporter().liveThreadBuffers(), 1u);
  World.shutdown();
}

// Queue overflow in streaming mode (a monitor that never drains) must be
// bounded and surface in the jinn.trace.dropped_events counter rather
// than growing without limit or passing silently.
TEST(MonitorSoak, DroppedEventsSurfaceInDiagnostics) {
  WorldConfig Config = sampledConfig(1); // record every request thread
  Config.JinnRecorder.MaxQueuedChunks = 4; // tiny queue, no drainer
  ScenarioWorld World(Config);
  SoakOptions Opts = smallSoak();
  Opts.Requests = 96;
  runServerSoak(World, Opts);

  trace::TraceRecorder *Recorder = World.Jinn->recorder();
  EXPECT_GT(Recorder->droppedEvents(), 0u);
  EXPECT_EQ(World.Vm.diags().counter("jinn.trace.dropped_events"),
            Recorder->droppedEvents());
  // The drained view reports the drop delta it observed.
  trace::Trace Segment = Recorder->drainSealed();
  EXPECT_GT(Segment.Head.DroppedEvents, 0u);
  World.shutdown();
}

// A retired request thread's partial chunk is queued trimmed to its used
// bytes, so churning through request threads pins what they recorded, not
// a full chunk per retirement.
TEST(MonitorSoak, RetiredPartialChunksAreTrimmed) {
  ScenarioWorld World(sampledConfig(1)); // record every request thread
  SoakOptions Opts = smallSoak();
  Opts.Requests = 64;
  Opts.OpsPerRequest = 2;
  runServerSoak(World, Opts);

  trace::TraceRecorder &Recorder = *World.Jinn->recorder();
  const size_t Queued = Recorder.queuedChunkBytes();
  trace::Trace Drained = Recorder.drainSealed();
  EXPECT_EQ(Recorder.droppedEvents(), 0u);
  ASSERT_GT(Drained.Events.size(), Opts.Requests);
  // No record is larger than a TraceEvent. Untrimmed, each retirement
  // would hold a whole RingCapacity-event chunk.
  EXPECT_LE(Queued, Drained.Events.size() * sizeof(trace::TraceEvent));
  EXPECT_LT(Queued, Opts.Requests * trace::TraceRecorderOptions().RingCapacity *
                        sizeof(trace::TraceEvent) / 4);
  World.shutdown();
}

// The soak must hold RSS under the production ceiling: bounded recorder
// queue, bounded sink, retired buffers. (Absolute RSS is only meaningful
// on non-sanitized builds.)
TEST(MonitorSoak, RssStaysUnderCeiling) {
  if (SanitizedBuild)
    GTEST_SKIP() << "RSS ceiling not meaningful under sanitizers";
  if (currentRssBytes() == 0)
    GTEST_SKIP() << "RSS probe unavailable on this platform";
  constexpr uint64_t CeilingBytes = 768ull << 20;
  ScenarioWorld World(sampledConfig(16));
  monitor::RingSink::Options SinkOpts;
  SinkOpts.MaxSegments = 64;
  SinkOpts.MaxBytes = 64ull << 20;
  monitor::RingSink Sink(SinkOpts);
  monitor::MonitorOptions MonOpts;
  MonOpts.IntervalMs = 5;
  MonOpts.RssCeilingBytes = CeilingBytes;
  monitor::JinnMonitor Monitor(World.Vm, *World.Jinn, Sink, MonOpts);
  Monitor.start();
  SoakOptions Opts = smallSoak();
  Opts.Requests = 512;
  SoakStats Stats = runServerSoak(World, Opts);
  Monitor.finish();
  monitor::MonitorSnapshot Snap = Monitor.snapshot();
  EXPECT_LT(Snap.PeakRssBytes, CeilingBytes);
  EXPECT_LT(Stats.PeakRssBytes, CeilingBytes);
  World.shutdown();
}

// RingSink honors its segment-count bound, drop-oldest.
TEST(MonitorSoak, RingSinkEvictsOldest) {
  monitor::RingSink::Options Opts;
  Opts.MaxSegments = 3;
  monitor::RingSink Sink(Opts);
  for (uint64_t I = 0; I < 6; ++I) {
    Sink.append(gcSegment(I, 4));
  }
  monitor::SinkStats Stats = Sink.stats();
  EXPECT_EQ(Stats.AppendedSegments, 6u);
  EXPECT_EQ(Stats.RetainedSegments, 3u);
  EXPECT_EQ(Stats.DroppedSegments, 3u);
  EXPECT_EQ(Stats.DroppedEvents, 12u);
  trace::Trace Merged = Sink.retained();
  ASSERT_EQ(Merged.Events.size(), 12u);
  // Oldest-first global order with fresh epochs.
  for (size_t E = 0; E + 1 < Merged.Events.size(); ++E) {
    EXPECT_LE(Merged.Events[E].TimeNs, Merged.Events[E + 1].TimeNs);
    EXPECT_EQ(Merged.Events[E].Epoch, E);
  }
  EXPECT_EQ(Merged.Events.front().TimeNs, 300u); // segments 0-2 evicted
}

// Equal timestamps across threads order by thread id, then per-thread
// sequence, in both merge paths: the recorder's (encoded chunks, merged as
// collect() and drainSealed() merge them) and mergeSegments().
TEST(MonitorSoak, EqualTimesMergeByThreadThenSequence) {
  struct Stamp {
    uint64_t TimeNs;
    uint32_t ThreadId;
    uint64_t Seq;
  };
  // Input order; the merged order is Expected.
  const Stamp Input[] = {{500, 3, 1}, {500, 2, 5}, {500, 3, 0},
                         {500, 1, 9}, {499, 9, 0}, {500, 2, 4},
                         {500, 1, 8}};
  const Stamp Expected[] = {{499, 9, 0}, {500, 1, 8}, {500, 1, 9},
                            {500, 2, 4}, {500, 2, 5}, {500, 3, 0},
                            {500, 3, 1}};
  auto event = [](const Stamp &S) {
    trace::TraceEvent Ev{};
    Ev.Kind = trace::EventKind::GcEpoch;
    Ev.TimeNs = S.TimeNs;
    Ev.ThreadId = S.ThreadId;
    Ev.Seq = S.Seq;
    return Ev;
  };
  auto expectMerged = [&](const trace::Trace &T, const char *Path) {
    ASSERT_EQ(T.Events.size(), std::size(Expected)) << Path;
    for (size_t I = 0; I < T.Events.size(); ++I) {
      EXPECT_EQ(T.Events[I].Epoch, I) << Path;
      EXPECT_EQ(T.Events[I].TimeNs, Expected[I].TimeNs) << Path << " #" << I;
      EXPECT_EQ(T.Events[I].ThreadId, Expected[I].ThreadId)
          << Path << " #" << I;
      EXPECT_EQ(T.Events[I].Seq, Expected[I].Seq) << Path << " #" << I;
    }
  };

  std::vector<trace::EventChunk> Chunks(2);
  std::vector<trace::Trace> Segments(2);
  for (size_t I = 0; I < std::size(Input); ++I) {
    trace::EventChunk &Chunk = Chunks[I % 2];
    if (Chunk.capacity() == 0)
      Chunk.reset(trace::TraceRecorderOptions().RingCapacity *
                  sizeof(trace::TraceEvent));
    Chunk.append(event(Input[I]));
    Segments[I % 2].Events.push_back(event(Input[I]));
  }
  std::vector<trace::MergeKey> Keys;
  for (const trace::EventChunk &Chunk : Chunks)
    Chunk.appendMergeKeys(Keys, /*NsPerTick=*/1.0);
  trace::Trace Recorded;
  trace::EventChunk::decodeInMergeOrder(Keys, Recorded, /*NsPerTick=*/1.0);
  expectMerged(Recorded, "recorder chunks");
  expectMerged(monitor::mergeSegments(std::move(Segments)), "mergeSegments");
}

// RotatingFileSink writes segment files, prunes past MaxSegments, and
// retained() reads the survivors (plus pending) back as one trace.
TEST(MonitorSoak, RotatingFileSinkRotatesAndPrunes) {
  // Unique per process so concurrent runs of the same binary don't race
  // on each other's segment files.
  const std::string Dir =
      "monitor_soak_test_segments." + std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  monitor::RotatingFileSink::Options Opts;
  Opts.Directory = Dir;
  Opts.RotateBytes = sizeof(trace::TraceEvent) * 8; // rotate every ~8 events
  Opts.MaxSegments = 2;
  monitor::RotatingFileSink Sink(Opts);
  for (uint64_t I = 0; I < 5; ++I) {
    Sink.append(gcSegment(I, 8));
  }
  EXPECT_EQ(Sink.lastError(), "");
  EXPECT_LE(Sink.segmentFiles().size(), 2u);
  monitor::SinkStats Stats = Sink.stats();
  EXPECT_EQ(Stats.AppendedEvents, 40u);
  EXPECT_GT(Stats.DroppedSegments, 0u);
  trace::Trace Merged = Sink.retained();
  EXPECT_EQ(Merged.Events.size(), Stats.RetainedEvents);
  EXPECT_LE(Merged.Events.size(), 16u + 8u); // 2 files + <=1 pending rotation
  for (size_t E = 0; E + 1 < Merged.Events.size(); ++E)
    EXPECT_LE(Merged.Events[E].TimeNs, Merged.Events[E + 1].TimeNs);
  std::filesystem::remove_all(Dir);
}

// A segment file that no longer reads back is counted once, keeps the
// reader's message, and leaves retention; the other segments still merge.
TEST(MonitorSoak, RotatingFileSinkReportsAnUnreadableSegment) {
  const std::string Dir =
      "monitor_soak_test_unreadable." + std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  monitor::RotatingFileSink::Options Opts;
  Opts.Directory = Dir;
  Opts.RotateBytes = sizeof(trace::TraceEvent) * 8; // one file a segment
  Opts.MaxSegments = 3;
  monitor::RotatingFileSink Sink(Opts);
  for (uint64_t I = 0; I < 3; ++I)
    Sink.append(gcSegment(I, 8));
  const std::vector<std::string> Files = Sink.segmentFiles();
  ASSERT_EQ(Files.size(), 3u);
  std::filesystem::resize_file(Files[1],
                               std::filesystem::file_size(Files[1]) - 1);

  trace::Trace Merged = Sink.retained();
  monitor::SinkStats Stats = Sink.stats();
  EXPECT_EQ(Stats.UnreadableSegments, 1u);
  EXPECT_EQ(Sink.lastError(), "header counts exceed the size of " + Files[1]);
  EXPECT_EQ(Sink.segmentFiles(),
            (std::vector<std::string>{Files[0], Files[2]}));
  ASSERT_EQ(Merged.Events.size(), 16u);
  EXPECT_EQ(Stats.RetainedEvents, 16u);
  for (size_t E = 0; E < 8; ++E) {
    EXPECT_EQ(Merged.Events[E].TimeNs, E);
    EXPECT_EQ(Merged.Events[8 + E].TimeNs, 200 + E);
  }
  Sink.retained();
  EXPECT_EQ(Sink.stats().UnreadableSegments, 1u);
  std::filesystem::remove_all(Dir);
}

// The pure sampling predicate is deterministic, respects rate 1, and the
// request-name scheme actually yields a nonempty strict subset at N=16.
TEST(MonitorSoak, SamplingPredicateIsDeterministicAndNontrivial) {
  ScenarioWorld World(sampledConfig(16));
  agent::JinnAgent &Jinn = *World.Jinn;
  unsigned Sampled = 0;
  const unsigned Names = 512;
  for (unsigned K = 0; K < Names; ++K) {
    std::string Name = "req-0-" + std::to_string(K);
    bool A = Jinn.sampledThread(100 + K, Name);
    bool B = Jinn.sampledThread(100 + K, Name);
    EXPECT_EQ(A, B) << Name;
    Sampled += A ? 1 : 0;
  }
  // ~1/16 of 512 = 32 expected; accept a wide band but not the extremes.
  EXPECT_GT(Sampled, 8u);
  EXPECT_LT(Sampled, 128u);

  ScenarioWorld Full(sampledConfig(1));
  EXPECT_TRUE(Full.Jinn->sampledThread(7, "anything"));
  World.shutdown();
  Full.shutdown();
}
