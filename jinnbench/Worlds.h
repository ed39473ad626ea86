//===- jinnbench/Worlds.h - Benchmark worlds and their native programs ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One BenchWorld is a ScenarioWorld under one boundary configuration, with
/// the benchmark's classes defined and their natives bound:
///
///  - bench/WorkUnit.unit(I)I: the Table 3 stand-in transition (about 2 us
///    of application work plus 2.5 JNI calls), bound by the benchmark so
///    its argument comes from the benchmark's seed;
///  - jinnbench/Storm.run(IIII)I: back-to-back JNI calls over a working set
///    of hundreds of live locals in nested frames, in one of nine operation
///    classes or a balanced seeded mix of all nine (optionally with seeded
///    pending-exception bugs);
///  - jinnbench/Server.handle(IIII)I: one tenant request of global-ref
///    churn, monitor-guarded counters and pinned arrays against shared
///    tenant objects, optionally prefixed by a pending-exception bug;
///  - jinnbench/Storm.nop()V: an empty native transition.
///
/// Every Jinn configuration is checked at construction to run on the fused
/// tier with the expected number of active machines.
///
//===----------------------------------------------------------------------===//

#ifndef JINNBENCH_WORLDS_H
#define JINNBENCH_WORLDS_H

#include "Stats.h"

#include "scenarios/Scenarios.h"

#include <cstdint>
#include <memory>
#include <string>

namespace jinnbench {

/// Boundary configurations, from no interposition to full checking.
enum class Config : uint8_t {
  Bare,       ///< production run: no dispatcher
  Interpose,  ///< wrapped JNIEnv table, empty dispatcher (paper's column 4)
  Xcheck,     ///< -Xcheck:jni stand-in (paper's column 3)
  JinnZero,   ///< Jinn, fused tier, no machine enabled
  JinnSingle, ///< Jinn, fused tier, one machine enabled
  JinnFull,   ///< Jinn, fused tier, all fourteen machines
  RecordOnly, ///< Jinn recorder only; checking happens offline
  Count,
};

inline constexpr const char *ConfigNames[] = {
    "bare", "interpose", "xcheck", "jinn_zero", "jinn_single", "jinn_full",
    "record_only"};

/// The nine operation classes of the crossing storm.
enum StormOp : int {
  StringUse,
  LocalChurn,
  FramePushPop,
  GlobalChurn,
  FieldAccess,
  Callback,
  ArrayPin,
  ArrayCritical,
  MonitorEnterExit,
  NumStormOps,
};
/// Storm.run op-class arguments beyond the nine single classes.
inline constexpr int StormMix = -1;         ///< balanced seeded mix
inline constexpr int StormMixWithBugs = -2; ///< mix plus seeded bugs

inline constexpr const char *StormOpNames[] = {
    "string_use",  "local_churn", "frame_push_pop",
    "global_churn", "field_access", "callback",
    "array_pin",   "array_critical", "monitor_enter_exit"};

/// Seeded bugs per StormMixWithBugs op: one every this many operations.
inline constexpr int StormBugEvery = 64;

/// What the natives of one benchmark thread produced. Each harness thread
/// installs its own instance with threadStats() before invoking natives.
struct CallStats {
  uint64_t Checksum = 0;
  /// JNI calls the program issues on its clean path: no seeded bug firing
  /// and no monitor contended.
  uint64_t Calls = 0;
  uint64_t LoopNs = 0;  ///< time inside Storm.run's operation loop
  uint64_t Ops = 0;     ///< Storm.run operations executed
  uint64_t MonitorAcquired = 0;
  uint64_t MonitorRefused = 0; ///< contended MonitorEnter -> JNI_ERR
  uint64_t SeededBugs = 0;
  /// When set, Storm.run adds the time of each StormBatchOps-operation
  /// batch here: a request unit short enough that a rare stall of the host
  /// reaches few of them.
  LatencyHistogram *Batches = nullptr;
};

inline constexpr int StormBatchOps = 64;
CallStats *&threadStats();

struct WorldContext;

/// [[noreturn]]: prints "jinnbench: error: <Message>" and exits 2. Used for
/// set-up failures (a refused tier, a missing slug), which void the run.
[[noreturn]] void fatal(const std::string &Message);

class BenchWorld {
public:
  /// Builds the world for \p Cfg (\p Machine names the machine of a
  /// JinnSingle world) and checks its dispatch tier.
  explicit BenchWorld(Config Cfg, const std::string &Machine = "");
  ~BenchWorld();
  BenchWorld(const BenchWorld &) = delete;
  BenchWorld &operator=(const BenchWorld &) = delete;

  /// Fails the run unless a Jinn world still dispatches on its fused table
  /// and has never demoted.
  void checkTier() const;

  /// Runs \p N Table 3 transitions on the main thread, arguments drawn
  /// from \p Seed; each transition's time is added to \p Lat.
  void transitions(uint64_t N, uint64_t Seed, LatencyHistogram &Lat);
  /// One Storm.run call on the main thread.
  void storm(uint32_t Seed, int Ops, int OpClass);
  /// \p N empty native transitions on the main thread.
  void nops(uint64_t N);
  /// One server request on \p Thread.
  void request(jinn::jvm::JThread &Thread, uint32_t Tenant, uint32_t Seed,
               int Ops, bool Buggy);

  /// True once the VM has simulated a crash, a fatal error or a deadlock:
  /// the thread that hit it is poisoned and returns from every later call
  /// at once, so timings after it measure nothing.
  bool crashed();
  /// Jinn reports so far (0 without an agent); thread-safe.
  size_t reportCount() const;
  /// -Xcheck:jni detections so far (0 without that checker).
  size_t xcheckDetections() const;
  /// Sum of the tenant counters, read on the main thread.
  uint64_t tenantCounterSum();
  /// Thread ids this world has handed out (never reused; 32768 exist).
  uint32_t threadIdsUsed() const;
  /// Runs a full collection. The VM collects only on request, so the
  /// harness collects between rounds, outside every timed region, to keep
  /// the heap from growing over the run.
  void collectGarbage() { W.Vm.gc(); }

  Config Cfg;
  jinn::scenarios::ScenarioWorld W;

private:
  std::shared_ptr<WorldContext> Ctx;
};

/// Server tenants per world. Enough that two of the three workers rarely
/// want one tenant's monitor at once: contended MonitorEnter calls are
/// retried, and heavy contention would make the work done depend on
/// scheduling.
inline constexpr unsigned NumTenants = 64;

} // namespace jinnbench

#endif // JINNBENCH_WORLDS_H
