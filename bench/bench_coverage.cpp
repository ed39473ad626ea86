//===- bench/bench_coverage.cpp - Regenerates §6.3 coverage ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §6.3's quantitative coverage: which dynamic checker produces a valid bug
/// report (exception, warning, or error) on each microbenchmark. The paper
/// measured Jinn 100%, HotSpot 56%, J9 50% on its 16-benchmark suite; this
/// reproduction's suite weights resource-leak benchmarks differently (see
/// EXPERIMENTS.md), preserving the qualitative result: the built-in
/// checkers are incomplete and mutually inconsistent, Jinn detects
/// everything detectable at the boundary.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "scenarios/Scenarios.h"

#include <cstdio>

using namespace jinn;
using namespace jinn::scenarios;
using jinn::jvm::VmFlavor;

int main() {
  bench::printHeader("Coverage of dynamic checkers on the microbenchmark "
                     "suite (paper §6.3)");

  size_t Total = 0, HitHs = 0, HitJ9 = 0, HitJinn = 0, Inconsistent = 0;
  std::printf("%-22s %-10s %-10s %-10s %s\n", "microbenchmark", "HS+check",
              "J9+check", "Jinn", "consistent?");
  bench::printRule();

  for (const MicroInfo &Info : allMicrobenchmarks()) {
    if (!Info.DetectableAtBoundary)
      continue;
    ++Total;
    WorldConfig Hs{VmFlavor::HotSpotLike, CheckerKind::Xcheck, false,
                   {}, {}, {}};
    WorldConfig J9{VmFlavor::J9Like, CheckerKind::Xcheck, false, {}, {}, {}};
    WorldConfig Jn{VmFlavor::HotSpotLike, CheckerKind::Jinn, false, {}, {}, {}};
    Outcome OHs = runMicroToOutcome(Info.Id, Hs);
    Outcome OJ9 = runMicroToOutcome(Info.Id, J9);
    Outcome OJn = runMicroToOutcome(Info.Id, Jn);
    bool Consistent = OHs == OJ9;
    HitHs += isValidBugReport(OHs);
    HitJ9 += isValidBugReport(OJ9);
    HitJinn += isValidBugReport(OJn);
    Inconsistent += !Consistent;
    std::printf("%-22s %-10s %-10s %-10s %s\n", Info.ClassName,
                outcomeName(OHs), outcomeName(OJ9), outcomeName(OJn),
                Consistent ? "yes" : "NO");
  }

  bench::printRule();
  std::printf("valid bug reports:  HotSpot -Xcheck:jni %zu/%zu (%.0f%%), "
              "J9 -Xcheck:jni %zu/%zu (%.0f%%),\n                    Jinn "
              "%zu/%zu (%.0f%%)\n",
              HitHs, Total, 100.0 * HitHs / Total, HitJ9, Total,
              100.0 * HitJ9 / Total, HitJinn, Total,
              100.0 * HitJinn / Total);
  std::printf("JVM checkers behave inconsistently on %zu of %zu "
              "microbenchmarks (paper: 9 of 16)\n",
              Inconsistent, Total);
  std::printf("paper's measured coverage on its suite: Jinn 100%%, HotSpot "
              "56%%, J9 50%%\n");

  bench::JsonResults Json("coverage");
  Json.add("hotspot_xcheck", 100.0 * HitHs / Total, "%");
  Json.add("j9_xcheck", 100.0 * HitJ9 / Total, "%");
  Json.add("jinn", 100.0 * HitJinn / Total, "%");
  Json.add("inconsistent", static_cast<double>(Inconsistent), "micros");
  Json.add("detectable_micros", static_cast<double>(Total), "micros");
  Json.writeFile();
  return 0;
}
