//===- jinnbench/main.cpp - The Jinn benchmark ----------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One command, two closed-loop workloads:
///
///   table3_mix      the 19 SPECjvm98/DaCapo stand-ins of paper Table 3
///   offline_replay  record a seeded program, write, read and replay it
///
/// The traced run also times a server soak (three workers attaching,
/// serving a tenant request and detaching, with a seeded bug in one request
/// of eight) for its per-layer figures. It is no workload of its own: the
/// workers serialize on the VM's global mutexes, so its latencies measure
/// futex hand-offs, which moved by a third between runs on a shared host.
///
/// Usage: jinnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--out-dir <dir>]
///
/// Every configuration pair runs interleaved (ABAB) in one process on the
/// same seeded inputs, and every output is checked: equal checksums and JNI
/// call counts across configurations, zero reports on clean programs, the
/// seeded bugs reported exactly, and replayed reports byte-identical to the
/// inline ones. A mismatch counts the operations involved as failed.
///
/// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
/// reports the per-layer table, obtained by differencing configurations
/// (bare, interpose-only, -Xcheck:jni, Jinn with zero, one and all
/// machines), plus the tracing overhead: the workload's own rounds alternate
/// between recording spans and not, and the spans are written to
/// <out-dir>/spans-<workload>-<seed>.jsonl at exit. The last line of
/// standard output is one JSON object.
///
//===----------------------------------------------------------------------===//

#include "Slugs.h"
#include "Spans.h"
#include "Stats.h"
#include "Worlds.h"

#include "support/Rng.h"
#include "trace/Replay.h"
#include "trace/TraceFile.h"
#include "workloads/Workloads.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace jinn;
using namespace jinnbench;

namespace {

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point Start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Start)
          .count());
}

template <typename F> double timeNs(F &&Fn) {
  auto Start = Clock::now();
  Fn();
  return nsSince(Start);
}

/// A derived 64-bit seed: the same (Seed, A, B) always gives the same value.
uint64_t derive(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  return SplitMix64(Seed).split(A * 0x9e3779b97f4a7c15ULL + B).next();
}

//===----------------------------------------------------------------------===
// Outcome accounting
//===----------------------------------------------------------------------===

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Logged = 0;

  /// Counts \p Ops attempted operations, all failed unless \p Ok. A failed
  /// check that covers no operation of its own still fails one.
  void tally(uint64_t Ops, bool Ok, const std::string &What) {
    Attempted += Ops;
    if (Ok)
      return;
    Failed += Ops ? Ops : 1;
    Attempted += Ops ? 0 : 1;
    if (Logged++ < 20)
      std::fprintf(stderr, "jinnbench: check failed: %s\n", What.c_str());
  }
} Out;

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};
std::vector<Metric> Metrics;

void metric(const std::string &Name, double Value, const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

//===----------------------------------------------------------------------===
// Workload framework
//===----------------------------------------------------------------------===

/// One timed round: the checked side's time and operations, and the
/// baseline side's time on the same inputs.
struct RoundLog {
  double Ops = 0;     ///< operations completed on the checked side
  double OpsNs = 0;   ///< time those operations took
  double CheckedNs = 0;
  double BareNs = 0;
  bool Traced = false;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// (Re)builds every world the workload uses and warms it up.
  virtual void setup() = 0;
  /// Runs round \p R; per-request latencies of the checked side go to
  /// \p Lat.
  virtual RoundLog round(uint64_t R, LatencyHistogram &Lat) = 0;
  /// End-of-run output checks.
  virtual void finish() {}
  /// The slowdown over untraced rounds; the default is the median of the
  /// per-round quotients.
  virtual double slowdown(const std::vector<RoundLog> &Rounds) const {
    std::vector<double> Checked, Bare;
    for (const RoundLog &L : Rounds)
      if (!L.Traced) {
        Checked.push_back(L.CheckedNs);
        Bare.push_back(L.BareNs);
      }
    return pairedRatio(Checked, Bare);
  }
  /// Set-up repeated inside the timed phase (world rotation), in seconds.
  std::vector<double> ExtraSetupS;
};

/// CPU rotation. On a shared virtual host the CPUs do not run at one speed:
/// the same code measured 6.5M calls/s on one CPU and 10.5M on another, and
/// which CPU is slow changes over seconds. A thread the scheduler leaves on
/// one CPU makes a whole run fast or slow. So every RotationPeriod the main
/// thread, which times everything but the server workers, is barred from
/// the next CPU in turn, which moves it on and makes each run sample every
/// CPU, while still letting the scheduler dodge a CPU another process is
/// using (pinning to a single CPU instead left the p99 latency of one run
/// up to three times another's).
/// The period is long against a round because the batches right after a
/// move run on cold caches; moving every round put them at p99.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Original);
    if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Advances to the next step once RotationPeriod has passed since the
  /// last one, and applies the current step to the calling thread: every
  /// allowed CPU but one.
  void tick() {
    const auto Now = Clock::now();
    if (Now - Last >= RotationPeriod) {
      Last = Now;
      ++Step;
    }
    if (Cpus.size() < 2)
      return;
    cpu_set_t Set = Original;
    CPU_CLR(Cpus[Step % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  static constexpr std::chrono::milliseconds RotationPeriod{250};
  cpu_set_t Original;
  std::vector<int> Cpus;
  uint64_t Step = 0;
  Clock::time_point Last = Clock::now();
};

CpuRotation &cpus() {
  static CpuRotation Rotation;
  return Rotation;
}

/// Latency is summarized per window of consecutive untraced rounds, closed
/// once it holds at least this many requests, so each window's p99 has at
/// least ten samples beyond it; a run reports the median over its windows.
/// A slow phase of the host then moves some windows, not the reported
/// value.
constexpr uint64_t LatencyWindow = 1000;

struct LoopResult {
  std::vector<double> SetupS;
  std::vector<RoundLog> Rounds;
  std::vector<double> WindowP50, WindowP99; ///< ns, one per window
  uint64_t LatencySamples = 0;
};

constexpr int SetupRuns = 5;
constexpr uint64_t MinRounds = 4;

/// Sets the workload up SetupRuns times (timing each), then runs rounds
/// until \p Seconds have passed. With \p AlternateSpans, odd rounds record
/// spans and feed no latency sample.
LoopResult runLoop(Workload &W, double Seconds, bool AlternateSpans) {
  LoopResult Res;
  for (int I = 0; I < SetupRuns; ++I) {
    cpus().tick();
    Res.SetupS.push_back(timeNs([&] { W.setup(); }) / 1e9);
  }
  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(Seconds);
  LatencyHistogram Window, Discard;
  for (uint64_t R = 0; R < MinRounds || Clock::now() < Deadline; ++R) {
    const bool Traced = AlternateSpans && R % 2 == 1;
    cpus().tick();
    spans::setEnabled(Traced);
    RoundLog L = W.round(R, Traced ? Discard : Window);
    spans::setEnabled(false);
    L.Traced = Traced;
    Res.Rounds.push_back(L);
    if (Window.count() >= LatencyWindow) {
      Res.LatencySamples += Window.count();
      Res.WindowP50.push_back(Window.percentile(50));
      Res.WindowP99.push_back(Window.percentile(99));
      Window = LatencyHistogram();
    }
  }
  W.finish();
  for (double S : W.ExtraSetupS)
    Res.SetupS.push_back(S);
  return Res;
}

/// Median per-round rate of the rounds whose Traced flag is \p Traced.
double medianRate(const std::vector<RoundLog> &Rounds, bool Traced) {
  std::vector<double> Rates;
  for (const RoundLog &L : Rounds)
    if (L.Traced == Traced && L.OpsNs > 0)
      Rates.push_back(L.Ops / L.OpsNs * 1e9);
  return median(Rates);
}

/// Runs \p Fn with \p Stats installed as the calling thread's CallStats.
template <typename F> double timedWithStats(CallStats &Stats, F &&Fn) {
  threadStats() = &Stats;
  double Ns = timeNs(Fn);
  threadStats() = nullptr;
  return Ns;
}

/// One untimed Storm.run call on \p W. After the other configuration's
/// world ran, or after a moving collection, the next call finds cold
/// caches; switching worlds and collecting are the harness's doing, so
/// their aftermath stays out of the timed calls (and out of the latency
/// tail, where one cold call per round would sit right at p99).
void rewarm(BenchWorld &W) {
  CallStats Discard;
  timedWithStats(Discard, [&] { W.storm(0x3a, 256, StormMix); });
}

//===----------------------------------------------------------------------===
// table3_mix
//===----------------------------------------------------------------------===

/// Each stand-in replays its paper transition count divided by this, but at
/// least Table3Floor transitions, so every program's timed span is a few
/// milliseconds long and its ratio steady.
constexpr uint64_t Table3Scale = 4096;
constexpr uint64_t Table3Floor = 2048;

uint64_t table3Transitions(const workloads::WorkloadInfo &Info) {
  return std::max(Info.PaperTransitions / Table3Scale, Table3Floor);
}

/// A Table 3 transition takes the main thread's lowest local-reference slot
/// twice, and a VM handle keeps only 23 bits of a slot's generation, so a
/// world's 4,194,304th transition finds its own handle stale and the VM
/// simulates a crash. The worlds are replaced after half that many.
constexpr uint64_t Table3WorldBudget = uint64_t(1) << 21;
constexpr uint64_t Table3Warm = 4096;

class Table3Mix : public Workload {
public:
  /// \p Extra adds configurations timed alongside bare and full Jinn.
  Table3Mix(uint64_t Seed, std::vector<Config> Extra = {})
      : Seed(Seed), Extra(std::move(Extra)) {
    const size_t N = workloads::allWorkloads().size();
    Ns.assign(2 + this->Extra.size(), std::vector<std::vector<double>>(N));
    Untraced.resize(N);
  }

  void setup() override {
    Worlds.clear();
    Worlds.push_back(std::make_unique<BenchWorld>(Config::Bare));
    Worlds.push_back(std::make_unique<BenchWorld>(Config::JinnFull));
    for (Config C : Extra)
      Worlds.push_back(std::make_unique<BenchWorld>(C));
    LatencyHistogram Warm;
    for (auto &W : Worlds) {
      CallStats S;
      timedWithStats(S,
                     [&] { W->transitions(Table3Warm, derive(Seed, 7), Warm); });
    }
    WorldTransitions = Table3Warm;
  }

  RoundLog round(uint64_t R, LatencyHistogram &Lat) override {
    const auto &Programs = workloads::allWorkloads();
    uint64_t RoundTransitions = 0;
    for (const auto &Info : Programs)
      RoundTransitions += table3Transitions(Info);
    if (WorldTransitions + RoundTransitions > Table3WorldBudget)
      ExtraSetupS.push_back(timeNs([&] { setup(); }) / 1e9);
    WorldTransitions += RoundTransitions;
    RoundLog L;
    L.Traced = spans::enabled();
    LatencyHistogram BareLat;
    for (size_t P = 0; P < Programs.size(); ++P) {
      const uint64_t N = table3Transitions(Programs[P]);
      const uint64_t ArgSeed = derive(Seed, R, P);
      std::vector<CallStats> Stats(Worlds.size());
      std::vector<double> T(Worlds.size());
      // Rotate which configuration goes first, program by program.
      for (size_t I = 0; I < Worlds.size(); ++I) {
        const size_t K = (I + R + P) % Worlds.size();
        spans::setThreadConfig(static_cast<uint8_t>(Worlds[K]->Cfg));
        T[K] = timedWithStats(Stats[K], [&] {
          Worlds[K]->transitions(N, ArgSeed, K == 1 ? Lat : BareLat);
        });
      }
      bool Same = true;
      for (size_t K = 1; K < Worlds.size(); ++K)
        Same &= Stats[K].Checksum == Stats[0].Checksum &&
                Stats[K].Calls == Stats[0].Calls;
      Out.tally(N, Same,
                std::string("table3 ") + Programs[P].Name +
                    ": checksum or JNI-call count differs across configs");
      for (size_t K = 0; K < Worlds.size(); ++K)
        Ns[K][P].push_back(T[K]);
      L.Ops += static_cast<double>(N);
      L.CheckedNs += T[1];
      L.BareNs += T[0];
      if (!L.Traced)
        Untraced[P].push_back(T[1] / T[0]);
    }
    L.OpsNs = L.CheckedNs;
    for (auto &W : Worlds) {
      W->checkTier();
      Out.tally(0, W->reportCount() == 0 && W->xcheckDetections() == 0,
                std::string("table3: clean program reported under ") +
                    ConfigNames[static_cast<size_t>(W->Cfg)]);
      Out.tally(0, !W->crashed(),
                std::string("table3: simulated VM crash under ") +
                    ConfigNames[static_cast<size_t>(W->Cfg)]);
      W->collectGarbage();
    }
    return L;
  }

  void finish() override {
    for (auto &W : Worlds)
      if (W->reportCount() || W->xcheckDetections())
        Out.tally(1, false, "table3: reports on a clean program");
  }

  /// Paper Table 3's normalization: the geomean over the 19 programs of
  /// each program's median checked/bare quotient.
  double slowdown(const std::vector<RoundLog> &) const override {
    std::vector<double> PerProgram;
    for (const auto &Q : Untraced)
      PerProgram.push_back(median(Q));
    return geomean(PerProgram);
  }

  /// Per-program median quotient of configuration slot \p K over bare
  /// (slot 1 is full Jinn, slots 2.. are the extras).
  std::vector<double> programRatios(size_t K) const {
    std::vector<double> Out;
    for (size_t P = 0; P < Ns[K].size(); ++P)
      Out.push_back(pairedRatio(Ns[K][P], Ns[0][P]));
    return Out;
  }

  /// Median over rounds of (checked - bare) ns per transition.
  double checkNsPerTransition() const {
    const auto &Programs = workloads::allWorkloads();
    std::vector<double> PerRound;
    for (size_t R = 0; R < Ns[0][0].size(); ++R) {
      double Delta = 0, N = 0;
      for (size_t P = 0; P < Programs.size(); ++P) {
        Delta += Ns[1][P][R] - Ns[0][P][R];
        N += static_cast<double>(table3Transitions(Programs[P]));
      }
      PerRound.push_back(Delta / N);
    }
    return median(PerRound);
  }

private:
  uint64_t Seed;
  std::vector<Config> Extra;
  std::vector<std::unique_ptr<BenchWorld>> Worlds;
  uint64_t WorldTransitions = 0; ///< per world since setup()
  /// Ns[config slot][program][round]
  std::vector<std::vector<std::vector<double>>> Ns;
  /// Untraced checked/bare quotients, [program][round].
  std::vector<std::vector<double>> Untraced;
};

//===----------------------------------------------------------------------===
// server_soak
//===----------------------------------------------------------------------===

/// Persistent worker threads that run one job at a time in lockstep.
class WorkerPool {
public:
  explicit WorkerPool(unsigned N) {
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this, I] { loop(I); });
  }
  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }
  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// Runs \p Fn(worker index) on every worker; returns when all are done.
  void run(const std::function<void(unsigned)> &Fn) {
    std::unique_lock<std::mutex> Lock(Mu);
    Job = &Fn;
    Pending = size();
    ++Generation;
    Wake.notify_all();
    Done.wait(Lock, [&] { return Pending == 0; });
    Job = nullptr;
  }

private:
  void loop(unsigned I) {
    uint64_t Seen = 0;
    while (true) {
      const std::function<void(unsigned)> *Fn;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Wake.wait(Lock, [&] { return Stop || Generation != Seen; });
        if (Stop)
          return;
        Seen = Generation;
        Fn = Job;
      }
      (*Fn)(I);
      std::lock_guard<std::mutex> Lock(Mu);
      if (--Pending == 0)
        Done.notify_one();
    }
  }

  std::mutex Mu;
  std::condition_variable Wake, Done;
  const std::function<void(unsigned)> *Job = nullptr;
  unsigned Pending = 0;
  uint64_t Generation = 0;
  bool Stop = false;
  std::vector<std::thread> Threads; // last: the loop uses the members above
};

/// One below the 4 hardware threads of the reference host, so host noise
/// does not set the tail.
constexpr unsigned ServerWorkers = 3;
constexpr uint64_t RequestsPerRound = 384;
constexpr int OpsPerRequest = 24;
constexpr uint32_t WarmRequests = 2 * ServerWorkers;
constexpr uint64_t BugEvery = 8;
/// Thread ids are never reused and a VM has 32768; a world pair is
/// replaced before either world hands out more than this many.
constexpr uint32_t ThreadIdBudget = 24000;

struct RequestTimes {
  double AttachNs = 0, BodyNs = 0, DetachNs = 0;
  bool Buggy = false;
};

class ServerSoak : public Workload {
public:
  explicit ServerSoak(uint64_t Seed)
      : Seed(Seed), BugOffset(derive(Seed, 3) % BugEvery),
        Pool(ServerWorkers) {}

  void setup() override { rotate(); }

  RoundLog round(uint64_t R, LatencyHistogram &Lat) override {
    const uint32_t Needed = RequestsPerRound + WarmRequests;
    if (Bare->threadIdsUsed() + Needed > ThreadIdBudget ||
        Jinn->threadIdsUsed() + Needed > ThreadIdBudget)
      ExtraSetupS.push_back(timeNs([&] { rotate(); }) / 1e9);

    std::vector<Spec> Specs = specsFor(R);
    uint64_t Bugs = 0;
    for (const Spec &S : Specs)
      Bugs += S.Buggy;

    RoundLog L;
    Side Sides[2];
    LatencyHistogram BareLat;
    for (int I = 0; I < 2; ++I) {
      const int K = (I + static_cast<int>(R % 2)) % 2;
      BenchWorld &W = K ? *Jinn : *Bare;
      // A few untimed requests first, so the first timed ones do not pay
      // for the other world's turn in the caches.
      warmUp(K, WarmRequests);
      const size_t ReportsBefore = W.reportCount();
      Sides[K] = serve(W, Specs, K ? Lat : BareLat);
      Sides[K].Reports = W.reportCount() - ReportsBefore;
    }
    Out.tally(RequestsPerRound,
              Sides[0].Stats.Checksum == Sides[1].Stats.Checksum &&
                  Sides[0].Stats.Calls == Sides[1].Stats.Calls,
              "server_soak: checksum or JNI-call count differs");
    Out.tally(0, Sides[1].Stats.SeededBugs == Bugs && Sides[0].Reports == 0,
              "server_soak: seeded bug count or bare reports wrong");
    Out.tally(0, Sides[1].Reports == Bugs,
              "server_soak: " + std::to_string(Sides[1].Reports) +
                  " reports for " + std::to_string(Bugs) + " seeded bugs");
    Jinn->checkTier();
    Out.tally(0, !Bare->crashed() && !Jinn->crashed(),
              "server_soak: simulated VM crash");
    for (int K = 0; K < 2; ++K) {
      Acquired[K] += Sides[K].Stats.MonitorAcquired;
      WorldAcquired[K] += Sides[K].Stats.MonitorAcquired;
      Refused += Sides[K].Stats.MonitorRefused;
    }
    for (size_t I = 0; I < Specs.size(); ++I) {
      BareTimes.push_back(Sides[0].Times[I]);
      JinnTimes.push_back(Sides[1].Times[I]);
    }
    if (R % 16 == 15) {
      Bare->collectGarbage();
      Jinn->collectGarbage();
    }
    // Throughput is wall-clock; the slowdown compares the summed request
    // times, which a straggler at the end of a round does not inflate.
    L.Ops = static_cast<double>(RequestsPerRound);
    L.OpsNs = Sides[1].WallNs;
    L.CheckedNs = Sides[1].BusyNs;
    L.BareNs = Sides[0].BusyNs;
    return L;
  }

  void finish() override { retire(); }

  /// Per-request component times, in request order.
  std::vector<RequestTimes> BareTimes, JinnTimes;
  /// Monitor sections entered (bare, Jinn) and contended refusals.
  uint64_t Acquired[2] = {0, 0};
  uint64_t Refused = 0;

private:
  struct Spec {
    uint32_t Tenant, Seed;
    bool Buggy;
  };
  /// One worker's tallies, on cache lines of its own: the natives update
  /// CallStats on every JNI call, so tallies sharing a line would make the
  /// workers contend for it.
  struct alignas(64) WorkerTally {
    CallStats Stats;
    LatencyHistogram Lat;
    double Busy = 0;
  };
  struct Side {
    CallStats Stats;
    double WallNs = 0;
    double BusyNs = 0; ///< sum of request latencies
    size_t Reports = 0;
    std::vector<RequestTimes> Times;
  };

  std::vector<Spec> specsFor(uint64_t R) const {
    SplitMix64 Rng(derive(Seed, 0x5e4, R));
    std::vector<Spec> Specs(RequestsPerRound);
    for (uint64_t I = 0; I < RequestsPerRound; ++I) {
      const uint64_t Global = R * RequestsPerRound + I;
      Specs[I] = {static_cast<uint32_t>(Rng.nextBelow(NumTenants)),
                  static_cast<uint32_t>(Rng.next()),
                  (Global + BugOffset) % BugEvery == 0};
    }
    return Specs;
  }

  /// Serves \p Specs on the worker pool, each worker pulling the next
  /// request as soon as its previous one completed (closed loop). Workers
  /// keep every CPU: barred from the rotation's CPU, three workers shared
  /// three, and the p99 of a window went from about 0.25 ms to 1.3-2.2 ms.
  Side serve(BenchWorld &W, const std::vector<Spec> &Specs,
             LatencyHistogram &Lat) {
    Side Result;
    Result.Times.resize(Specs.size());
    std::vector<WorkerTally> Tallies(Pool.size());
    std::atomic<size_t> Next{0};
    JavaVM *Jvm = W.W.Rt.javaVm();
    const bool Traced = spans::enabled();
    auto Start = Clock::now();
    Pool.run([&](unsigned Worker) {
      WorkerTally &Tally = Tallies[Worker];
      threadStats() = &Tally.Stats;
      spans::setThreadConfig(static_cast<uint8_t>(W.Cfg));
      char Name[32];
      for (size_t I; (I = Next.fetch_add(1)) < Specs.size();) {
        std::snprintf(Name, sizeof(Name), "req-%zu", I);
        if (Traced)
          spans::setThreadRequest(static_cast<uint32_t>(I));
        SpanScope Span(SpanName::Request);
        RequestTimes &T = Result.Times[I];
        T.Buggy = Specs[I].Buggy;
        auto T0 = Clock::now();
        JNIEnv *Env = nullptr;
        {
          SpanScope Attach(SpanName::Attach);
          if (Jvm->functions->AttachCurrentThread(Jvm, &Env, Name) != JNI_OK)
            fatal("AttachCurrentThread failed");
        }
        auto T1 = Clock::now();
        W.request(*Env->thread, Specs[I].Tenant, Specs[I].Seed, OpsPerRequest,
                  Specs[I].Buggy);
        auto T2 = Clock::now();
        {
          SpanScope Detach(SpanName::Detach);
          Jvm->functions->DetachCurrentThread(Jvm);
        }
        auto T3 = Clock::now();
        auto Ns = [](Clock::duration D) {
          return static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(D)
                  .count());
        };
        T.AttachNs = Ns(T1 - T0);
        T.BodyNs = Ns(T2 - T1);
        T.DetachNs = Ns(T3 - T2);
        Tally.Lat.add(Ns(T3 - T0));
        Tally.Busy += Ns(T3 - T0);
      }
      threadStats() = nullptr;
    });
    Result.WallNs = nsSince(Start);
    for (unsigned I = 0; I < Pool.size(); ++I) {
      const WorkerTally &T = Tallies[I];
      Result.Stats.Checksum += T.Stats.Checksum;
      Result.Stats.Calls += T.Stats.Calls;
      Result.Stats.MonitorAcquired += T.Stats.MonitorAcquired;
      Result.Stats.MonitorRefused += T.Stats.MonitorRefused;
      Result.Stats.SeededBugs += T.Stats.SeededBugs;
      Result.BusyNs += T.Busy;
      Lat.merge(T.Lat);
    }
    return Result;
  }

  /// Checks the retiring world pair: the tenant counters must equal the
  /// monitor sections entered, and every Jinn report must be the seeded
  /// Exception-state report on NewStringUTF.
  void retire() {
    if (!Bare)
      return;
    BenchWorld *Worlds[2] = {Bare.get(), Jinn.get()};
    for (int K = 0; K < 2; ++K)
      Out.tally(0, Worlds[K]->tenantCounterSum() == WorldAcquired[K],
                "server_soak: tenant counters disagree with monitor "
                "sections entered");
    for (const agent::JinnReport &Report : Jinn->W.Jinn->reporter().reports())
      Out.tally(0,
                Report.Machine == "Exception state" &&
                    Report.Function == "NewStringUTF",
                "server_soak: unexpected report " + Report.Machine + " / " +
                    Report.Function);
  }

  void rotate() {
    retire();
    Bare.reset();
    Jinn.reset();
    Bare = std::make_unique<BenchWorld>(Config::Bare);
    Jinn = std::make_unique<BenchWorld>(Config::JinnFull);
    WorldAcquired[0] = WorldAcquired[1] = 0;
    warmUp(0, RequestsPerRound);
    warmUp(1, RequestsPerRound);
  }

  /// Serves \p N untimed clean requests on world \p K (0 bare, 1 Jinn),
  /// drawn from specs no measured round uses.
  void warmUp(int K, size_t N) {
    std::vector<Spec> Warm = specsFor(~uint64_t(0));
    Warm.resize(N);
    for (Spec &S : Warm)
      S.Buggy = false;
    LatencyHistogram Discard;
    Side S = serve(K ? *Jinn : *Bare, Warm, Discard);
    WorldAcquired[K] += S.Stats.MonitorAcquired;
  }

  uint64_t Seed;
  uint64_t BugOffset;
  WorkerPool Pool;
  std::unique_ptr<BenchWorld> Bare, Jinn;
  /// Monitor sections entered in the current world pair (bare, Jinn).
  uint64_t WorldAcquired[2] = {0, 0};
};

//===----------------------------------------------------------------------===
// offline_replay
//===----------------------------------------------------------------------===

constexpr size_t ReplayPrograms = 4;
constexpr int ReplayCallsPerProgram = 32;
constexpr int ReplayOpsPerCall = 256;

bool sameReports(const std::vector<agent::JinnReport> &A,
                 const std::vector<agent::JinnReport> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Machine != B[I].Machine || A[I].Function != B[I].Function ||
        A[I].Message != B[I].Message || A[I].EndOfRun != B[I].EndOfRun)
      return false;
  return true;
}

class OfflineReplay : public Workload {
public:
  OfflineReplay(uint64_t Seed, std::string OutDir)
      : Seed(Seed), Path(OutDir + "/replay-" + std::to_string(Seed) +
                         ".jinntrace") {}
  ~OfflineReplay() override { std::remove(Path.c_str()); }

  void setup() override {
    Bare = std::make_unique<BenchWorld>(Config::Bare);
    Inline.clear();
    for (size_t K = 0; K < ReplayPrograms; ++K) {
      BenchWorld Checked(Config::JinnFull);
      Expected E;
      runProgram(Checked, K, E.Stats);
      E.Reports = Checked.W.Jinn->reporter().reports();
      CallStats BareStats;
      runProgram(*Bare, K, BareStats);
      Out.tally(0,
                BareStats.Checksum == E.Stats.Checksum &&
                    BareStats.Calls == E.Stats.Calls,
                "offline_replay: inline and bare runs differ");
      Out.tally(0, E.Reports.size() == E.Stats.SeededBugs,
                "offline_replay: inline reports != seeded bugs");
      Out.tally(0, !Checked.crashed(), "offline_replay: simulated VM crash");
      Inline.push_back(std::move(E));
    }
    // One full record/write/read/replay pass before timing.
    LatencyHistogram Discard;
    TraceRound Warm = recordAndReplay(0, 0, Discard);
    Out.tally(0, Warm.Match, "offline_replay: warm-up replay mismatch");
  }

  RoundLog round(uint64_t R, LatencyHistogram &Lat) override {
    const size_t K = R % ReplayPrograms;
    TraceRound T = recordAndReplay(K, R, Lat);
    Out.tally(T.Events, T.Match,
              "offline_replay: replayed reports differ from inline reports");
    RecordNs.push_back(T.RecordNs);
    BareNs.push_back(T.BareNs);
    Events.push_back(static_cast<double>(T.Events));
    Bytes.push_back(static_cast<double>(T.Bytes));
    WriteNs.push_back(T.WriteNs);
    ReadNs.push_back(T.ReadNs);
    ReplayNs.push_back(T.ReplayNs);
    RoundLog L;
    L.Ops = static_cast<double>(T.Events);
    L.OpsNs = T.ReadNs + T.ReplayNs;
    L.CheckedNs = T.RecordNs;
    L.BareNs = T.BareNs;
    return L;
  }

  /// Per-round measurements, for the per-layer trace metrics.
  std::vector<double> RecordNs, BareNs, Events, Bytes, WriteNs, ReadNs,
      ReplayNs;

private:
  struct Expected {
    CallStats Stats;
    std::vector<agent::JinnReport> Reports;
  };
  struct TraceRound {
    double BareNs = 0, RecordNs = 0, WriteNs = 0, ReadNs = 0, ReplayNs = 0;
    uint64_t Events = 0, Bytes = 0;
    bool Match = false;
  };

  /// Program \p K: ReplayCallsPerProgram Storm.run calls with seeded bugs.
  double runProgram(BenchWorld &W, size_t K, CallStats &Stats,
                    LatencyHistogram *Lat = nullptr) {
    spans::setThreadConfig(static_cast<uint8_t>(W.Cfg));
    Stats.Batches = Lat;
    double Total = 0;
    for (int C = 0; C < ReplayCallsPerProgram; ++C) {
      const auto ArgSeed = static_cast<uint32_t>(derive(Seed, 0x9a0 + K, C));
      Total += timedWithStats(Stats, [&] {
        W.storm(ArgSeed, ReplayOpsPerCall, StormMixWithBugs);
      });
    }
    Stats.Batches = nullptr;
    return Total;
  }

  TraceRound recordAndReplay(size_t K, uint64_t R, LatencyHistogram &Lat) {
    TraceRound T;
    BenchWorld Rec(Config::RecordOnly);
    {
      // Warm the fresh world; clean calls add events but no report.
      CallStats Warm;
      timedWithStats(Warm, [&] {
        for (int C = 0; C < 4; ++C)
          Rec.storm(static_cast<uint32_t>(derive(Seed, 0xa11, C)),
                    ReplayOpsPerCall, StormMix);
      });
    }
    CallStats Stats[2];
    LatencyHistogram BareLat;
    for (int I = 0; I < 2; ++I) {
      BenchWorld &W = (I + R) % 2 == 0 ? *Bare : Rec;
      rewarm(W); // on the recording side, clean events and no report
      if (&W == Bare.get())
        T.BareNs = runProgram(W, K, Stats[0], &BareLat);
      else
        T.RecordNs = runProgram(W, K, Stats[1], &Lat);
    }
    const Expected &E = Inline[K];
    bool Ok = Stats[0].Checksum == E.Stats.Checksum &&
              Stats[1].Checksum == E.Stats.Checksum &&
              Stats[0].Calls == E.Stats.Calls &&
              Stats[1].Calls == E.Stats.Calls;

    trace::Trace Recorded;
    {
      SpanScope Span(SpanName::TraceCollect);
      Recorded = Rec.W.Jinn->recorder()->collect();
    }
    Ok &= Rec.W.Jinn->recorder()->droppedEvents() == 0;
    std::string Err;
    bool Io = true;
    T.WriteNs = timeNs([&] {
      SpanScope Span(SpanName::TraceWrite);
      Io &= trace::writeTraceFile(Recorded, Path, &Err);
    });
    if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
      std::fseek(F, 0, SEEK_END);
      T.Bytes = static_cast<uint64_t>(std::ftell(F));
      std::fclose(F);
    }
    trace::Trace FromDisk;
    T.ReadNs = timeNs([&] {
      SpanScope Span(SpanName::TraceRead);
      Io &= trace::readTraceFile(FromDisk, Path, &Err);
    });
    if (!Io)
      fatal("trace file I/O failed: " + Err);
    trace::ReplayResult Replayed;
    T.ReplayNs = timeNs([&] {
      SpanScope Span(SpanName::TraceReplay);
      Replayed = trace::replayTrace(FromDisk, Rec.W.Vm);
    });
    T.Events = Replayed.EventsReplayed;
    Ok &= FromDisk.Events.size() == Recorded.Events.size() &&
          Replayed.EventsReplayed == FromDisk.Events.size();
    T.Match = Ok && sameReports(Replayed.Reports, E.Reports) &&
              !Bare->crashed() && !Rec.crashed();
    Bare->collectGarbage();
    return T;
  }

  uint64_t Seed;
  std::string Path;
  std::unique_ptr<BenchWorld> Bare;
  std::vector<Expected> Inline;
};

//===----------------------------------------------------------------------===
// The per-layer crossing matrix
//===----------------------------------------------------------------------===

constexpr int LayerOpsPerCall = 1024;
constexpr int LayerMix = NumStormOps; ///< column of the balanced mix

/// Every crossing configuration, interleaved round by round: bare,
/// interpose-only, -Xcheck:jni, Jinn with zero machines, each machine alone,
/// and all fourteen. Each cell is ns per operation inside Storm.run's loop.
class LayerMatrix {
public:
  explicit LayerMatrix(uint64_t Seed) : Seed(Seed) {
    add(Config::Bare);
    add(Config::Interpose);
    add(Config::Xcheck);
    add(Config::JinnZero);
    for (const MachineSlug &M : MachineSlugs)
      add(Config::JinnSingle, M.Name);
    add(Config::JinnFull);
    Ns.assign(Worlds.size(),
              std::vector<std::vector<double>>(NumStormOps + 1));
  }

  void round(uint64_t R) {
    std::vector<uint64_t> Checksums(Worlds.size() * (NumStormOps + 1));
    for (size_t I = 0; I < Worlds.size(); ++I) {
      const size_t W = (I + R) % Worlds.size();
      for (int Op = 0; Op <= NumStormOps; ++Op) {
        CallStats S;
        timedWithStats(S, [&] {
          Worlds[W]->storm(static_cast<uint32_t>(derive(Seed, R, Op)),
                           LayerOpsPerCall, Op == LayerMix ? StormMix : Op);
        });
        Ns[W][Op].push_back(static_cast<double>(S.LoopNs) /
                            static_cast<double>(S.Ops));
        Checksums[W * (NumStormOps + 1) + Op] = S.Checksum ^ (S.Calls << 40);
      }
    }
    for (size_t W = 1; W < Worlds.size(); ++W)
      for (int Op = 0; Op <= NumStormOps; ++Op)
        Out.tally(LayerOpsPerCall,
                  Checksums[W * (NumStormOps + 1) + Op] ==
                      Checksums[Op],
                  std::string("layer matrix: ") +
                      ConfigNames[static_cast<size_t>(Worlds[W]->Cfg)] +
                      " differs from bare");
    TransitionNs.push_back(timeNs([&] { Worlds[0]->nops(2048); }) / 2048);
    for (auto &W : Worlds) {
      W->checkTier();
      Out.tally(0, W->reportCount() == 0 && W->xcheckDetections() == 0,
                "layer matrix: clean storm reported");
      Out.tally(0, !W->crashed(), "layer matrix: simulated VM crash");
      W->collectGarbage();
    }
  }

  void report() const {
    const size_t Bare = 0, Interpose = 1, Zero = 3, Full = Worlds.size() - 1;
    for (int Op = 0; Op < NumStormOps; ++Op) {
      const std::string Name = StormOpNames[Op];
      metric("jni." + Name + ".ns", median(Ns[Bare][Op]), "ns");
      metric("jvmti." + Name + ".ns",
             pairedDelta(Ns[Interpose][Op], Ns[Bare][Op]), "ns");
      metric("synth.fused_empty." + Name + ".ns",
             pairedDelta(Ns[Zero][Op], Ns[Bare][Op]), "ns");
      metric("jinn." + Name + ".ns",
             pairedDelta(Ns[Full][Op], Ns[Zero][Op]), "ns");
    }
    double Sum = 0;
    for (size_t M = 0; M < std::size(MachineSlugs); ++M) {
      const double Cost =
          pairedDelta(Ns[Zero + 1 + M][LayerMix], Ns[Zero][LayerMix]);
      metric(std::string("jinn.machine.") + MachineSlugs[M].Slug + ".ns", Cost,
             "ns");
      Sum += Cost;
    }
    metric("jinn.machine_sum_x",
           Sum / pairedDelta(Ns[Full][LayerMix], Ns[Zero][LayerMix]), "x");
    metric("jvm.transition_ns", median(TransitionNs), "ns");
  }

private:
  void add(Config C, const std::string &Machine = "") {
    Worlds.push_back(std::make_unique<BenchWorld>(C, Machine));
  }

  uint64_t Seed;
  std::vector<std::unique_ptr<BenchWorld>> Worlds;
  /// Ns[world][op column][round]
  std::vector<std::vector<std::vector<double>>> Ns;
  std::vector<double> TransitionNs;
};

//===----------------------------------------------------------------------===
// Reports
//===----------------------------------------------------------------------===

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// The end-to-end metrics of one untraced run.
void reportEndToEnd(Workload &W, const LoopResult &Res) {
  metric("setup_s", median(Res.SetupS), "s");
  metric("ops_per_s", medianRate(Res.Rounds, false), "1/s");
  metric("slowdown_x", W.slowdown(Res.Rounds), "x");
  // The percentile rule: every window holds enough samples that its p99 has
  // at least ten beyond it.
  static_assert(LatencyWindow >= 1000);
  std::fprintf(stderr,
               "jinnbench: %llu latency samples in %zu windows; each "
               "window's highest reportable percentile is p%g or above\n",
               static_cast<unsigned long long>(Res.LatencySamples),
               Res.WindowP99.size(),
               reportablePercentile(LatencyWindow, {50, 90, 99, 99.9}));
  Out.tally(0, !Res.WindowP99.empty(), "no complete latency window");
  metric("latency_p50_us", median(Res.WindowP50) / 1e3, "us");
  metric("latency_p99_us", median(Res.WindowP99) / 1e3, "us");
  metric("peak_rss_mb", peakRssMb(), "MB");
}

double medianOf(const std::vector<RequestTimes> &Times,
                double (*Field)(const RequestTimes &),
                int Buggy /* -1 any, 0 clean, 1 buggy */) {
  std::vector<double> V;
  for (const RequestTimes &T : Times)
    if (Buggy < 0 || T.Buggy == (Buggy == 1))
      V.push_back(Field(T));
  return median(V);
}

void reportServerLayers(const ServerSoak &S) {
  auto Attach = [](const RequestTimes &T) { return T.AttachNs; };
  auto Detach = [](const RequestTimes &T) { return T.DetachNs; };
  auto AttachDetach = [](const RequestTimes &T) {
    return T.AttachNs + T.DetachNs;
  };
  auto Body = [](const RequestTimes &T) { return T.BodyNs; };
  metric("jvm.attach_p50_us", medianOf(S.BareTimes, Attach, -1) / 1e3, "us");
  metric("jvm.detach_p50_us", medianOf(S.BareTimes, Detach, -1) / 1e3, "us");
  metric("jinn.attach_detach_extra_us",
         (medianOf(S.JinnTimes, AttachDetach, -1) -
          medianOf(S.BareTimes, AttachDetach, -1)) /
             1e3,
         "us");
  const double JinnClean = medianOf(S.JinnTimes, Body, 0);
  const double BareClean = medianOf(S.BareTimes, Body, 0);
  metric("jinn.request_check_p50_us", (JinnClean - BareClean) / 1e3, "us");
  metric("jinn.buggy_request_extra_us",
         ((medianOf(S.JinnTimes, Body, 1) - JinnClean) -
          (medianOf(S.BareTimes, Body, 1) - BareClean)) /
             1e3,
         "us");
  const double Attempts =
      static_cast<double>(S.Acquired[0] + S.Acquired[1] + S.Refused);
  metric("jvm.monitor_refused_ratio",
         Attempts > 0 ? static_cast<double>(S.Refused) / Attempts : 0,
         "ratio");
}

void reportTraceLayers(const OfflineReplay &T) {
  std::vector<double> RecordPerEvent, BytesPerEvent, WriteMbps, ReadMbps,
      ReplayPerEvent;
  for (size_t I = 0; I < T.Events.size(); ++I) {
    const double Events = T.Events[I], Bytes = T.Bytes[I];
    RecordPerEvent.push_back((T.RecordNs[I] - T.BareNs[I]) / Events);
    BytesPerEvent.push_back(Bytes / Events);
    WriteMbps.push_back(Bytes / 1e6 / (T.WriteNs[I] / 1e9));
    ReadMbps.push_back(Bytes / 1e6 / (T.ReadNs[I] / 1e9));
    ReplayPerEvent.push_back(T.ReplayNs[I] / Events);
  }
  metric("trace.record_ns_per_event", median(RecordPerEvent), "ns");
  metric("trace.bytes_per_event", median(BytesPerEvent), "B");
  metric("trace.write_mb_per_s", median(WriteMbps), "MB/s");
  metric("trace.read_mb_per_s", median(ReadMbps), "MB/s");
  metric("trace.replay_ns_per_event", median(ReplayPerEvent), "ns");
}

/// Jinn world construction minus interpose-only world construction, in
/// alternating pairs.
void reportAgentLoad() {
  std::vector<double> JinnMs, InterposeMs;
  for (int I = 0; I < 8; ++I) {
    for (int J = 0; J < 2; ++J) {
      const bool Jinn = (I + J) % 2 == 0;
      double Ms = timeNs([&] {
                    SpanScope Span(SpanName::WorldBuild);
                    BenchWorld W(Jinn ? Config::JinnFull : Config::Interpose);
                  }) /
                  1e6;
      (Jinn ? JinnMs : InterposeMs).push_back(Ms);
    }
  }
  metric("synth.agent_load_ms", pairedDelta(JinnMs, InterposeMs), "ms");
}

/// Runs \p Step until \p Seconds have passed (at least \p Min times).
template <typename F> void forSeconds(double Seconds, uint64_t Min, F &&Step) {
  const auto Deadline =
      Clock::now() + std::chrono::duration<double>(Seconds);
  for (uint64_t R = 0; R < Min || Clock::now() < Deadline; ++R) {
    cpus().tick();
    Step(R);
  }
}

const char *const WorkloadNames[] = {"table3_mix", "offline_replay"};

std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &OutDir) {
  if (Name == "table3_mix")
    return std::make_unique<Table3Mix>(Seed);
  if (Name == "offline_replay")
    return std::make_unique<OfflineReplay>(Seed, OutDir);
  return nullptr;
}

/// The traced run: the per-layer sections, each for a share of the run,
/// then the workload's own rounds alternating spans on and off.
void runTraced(const std::string &Name, uint64_t Seed, double Seconds,
               const std::string &OutDir) {
  reportAgentLoad();
  {
    LayerMatrix Matrix(Seed);
    forSeconds(Seconds * 0.30, 3, [&](uint64_t R) { Matrix.round(R); });
    Matrix.report();
  }
  {
    Table3Mix T(Seed, {Config::Interpose, Config::Xcheck});
    T.setup();
    LatencyHistogram Discard;
    forSeconds(Seconds * 0.20, 3, [&](uint64_t R) { T.round(R, Discard); });
    T.finish();
    const std::vector<double> Jinn = T.programRatios(1);
    for (size_t P = 0; P < Jinn.size(); ++P)
      metric(std::string("table3.") + workloads::allWorkloads()[P].Name +
                 ".slowdown_x",
             Jinn[P], "x");
    metric("jvmti.interpose_x", geomean(T.programRatios(2)), "x");
    metric("checkjni.xcheck_x", geomean(T.programRatios(3)), "x");
    metric("jinn.check_ns_per_transition", T.checkNsPerTransition(), "ns");
  }
  {
    ServerSoak S(Seed);
    S.setup();
    LatencyHistogram Discard;
    forSeconds(Seconds * 0.12, 4, [&](uint64_t R) { S.round(R, Discard); });
    S.finish();
    reportServerLayers(S);
  }
  {
    OfflineReplay T(Seed, OutDir);
    T.setup();
    LatencyHistogram Discard;
    forSeconds(Seconds * 0.10, 4, [&](uint64_t R) { T.round(R, Discard); });
    reportTraceLayers(T);
  }
  std::unique_ptr<Workload> W = makeWorkload(Name, Seed, OutDir);
  LoopResult Res = runLoop(*W, Seconds * 0.28, /*AlternateSpans=*/true);
  metric("tracing.overhead_pct",
         (medianRate(Res.Rounds, false) / medianRate(Res.Rounds, true) - 1) *
             100,
         "%");
  const std::string SpanPath =
      OutDir + "/spans-" + Name + "-" + std::to_string(Seed) + ".jsonl";
  if (!spans::writeJsonLines(SpanPath, ConfigNames, std::size(ConfigNames)))
    fatal("cannot write " + SpanPath);
  std::fprintf(stderr, "jinnbench: %llu spans (%llu dropped) -> %s\n",
               static_cast<unsigned long long>(spans::recorded()),
               static_cast<unsigned long long>(spans::dropped()),
               SpanPath.c_str());
}

void printResult() {
  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::string Body;
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = M.Value;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "jinnbench: metric %s is not finite\n",
                   M.Name.c_str());
      Correct = false;
      V = 0;
    }
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
    Body += Buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(
                  Out.Attempted ? Out.Attempted : 1),
              static_cast<unsigned long long>(Out.Failed), Body.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "jinnbench: %s\nusage: jinnbench --workload "
               "<table3_mix|offline_replay> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               Message);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, OutDir = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage("missing value");
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--workload"))
      Name = Value();
    else if (!std::strcmp(Argv[I], "--seed"))
      Seed = std::strtoull(Value(), nullptr, 10);
    else if (!std::strcmp(Argv[I], "--seconds"))
      Seconds = std::strtod(Value(), nullptr);
    else if (!std::strcmp(Argv[I], "--trace"))
      Trace = std::atoi(Value());
    else if (!std::strcmp(Argv[I], "--out-dir"))
      OutDir = Value();
    else
      usage("unknown argument");
  }
  if (!(Seconds > 0) || (Trace != 0 && Trace != 1))
    usage("bad --seconds or --trace");
  if (std::find(std::begin(WorkloadNames), std::end(WorkloadNames), Name) ==
      std::end(WorkloadNames))
    usage("unknown workload");

  // Keep freed memory in the process. offline_replay builds and frees a
  // world and a trace of tens of megabytes every round; glibc handed that
  // memory back to the kernel, which zeroed it again on the next round's
  // first touch: a third of the workload's time went to a million page
  // faults a run, at a cost that moved with the host's memory traffic.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (Trace) {
    runTraced(Name, Seed, Seconds, OutDir);
  } else {
    std::unique_ptr<Workload> W = makeWorkload(Name, Seed, OutDir);
    LoopResult Res = runLoop(*W, Seconds, /*AlternateSpans=*/false);
    reportEndToEnd(*W, Res);
  }
  printResult();
  return 0;
}
