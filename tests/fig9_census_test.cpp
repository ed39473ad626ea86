//===- tests/fig9_census_test.cpp - Figure 9 format & Table 2 census -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jinn/Census.h"
#include "scenarios/Scenarios.h"

#include <gtest/gtest.h>

using namespace jinn;
using namespace jinn::scenarios;

namespace {

TEST(Figure9, HotSpotStyleWarnsTwiceAndContinues) {
  WorldConfig Config;
  Config.Flavor = jvm::VmFlavor::HotSpotLike;
  Config.Checker = CheckerKind::Xcheck;
  ScenarioWorld World(Config);
  runMicrobenchmark(MicroId::PendingException, World);
  const auto &Detections = World.Xcheck->reporter().detections();
  ASSERT_EQ(Detections.size(), 2u); // both illegal calls, Figure 9a
  for (const auto &D : Detections) {
    EXPECT_EQ(D.Behavior, checkjni::CheckerBehavior::Warning);
    EXPECT_NE(D.FormattedText.find(
                  "WARNING in native method: JNI call made with exception "
                  "pending"),
              std::string::npos);
    EXPECT_NE(D.FormattedText.find("at ExceptionState.call(Native Method)"),
              std::string::npos);
    EXPECT_NE(D.FormattedText.find(
                  "at ExceptionState.main(ExceptionState.java:5)"),
              std::string::npos);
  }
  EXPECT_FALSE(World.Vm.mainThread().Poisoned); // HotSpot keeps running
}

TEST(Figure9, J9StyleAbortsAtTheFirstError) {
  WorldConfig Config;
  Config.Flavor = jvm::VmFlavor::J9Like;
  Config.Checker = CheckerKind::Xcheck;
  ScenarioWorld World(Config);
  runMicrobenchmark(MicroId::PendingException, World);
  const auto &Detections = World.Xcheck->reporter().detections();
  ASSERT_EQ(Detections.size(), 1u); // aborted after the first, Figure 9b
  EXPECT_NE(Detections[0].FormattedText.find(
                "JVMJNCK028E JNI error in GetMethodID"),
            std::string::npos);
  EXPECT_NE(Detections[0].FormattedText.find(
                "JVMJNCK024E JNI error detected. Aborting."),
            std::string::npos);
  EXPECT_TRUE(World.Vm.mainThread().Poisoned);
}

TEST(Figure9, JinnReportsBothCallsWithCauseChain) {
  WorldConfig Config;
  Config.Checker = CheckerKind::Jinn;
  ScenarioWorld World(Config);
  runMicrobenchmark(MicroId::PendingException, World);
  const auto &Reports = World.Jinn->reporter().reports();
  ASSERT_EQ(Reports.size(), 2u);
  EXPECT_EQ(Reports[0].Function, "GetMethodID");
  EXPECT_EQ(Reports[1].Function, "CallVoidMethodA");

  std::string Text =
      World.Vm.describeThrowable(World.Vm.mainThread().Pending);
  // Figure 9c's structure: failure, caused by failure, caused by the
  // original RuntimeException with its Java source location.
  size_t First = Text.find(
      "jinn.JNIAssertionFailure: An exception is pending in "
      "CallVoidMethodA.");
  size_t Second = Text.find(
      "Caused by: jinn.JNIAssertionFailure: An exception is pending in "
      "GetMethodID.");
  size_t Third = Text.find(
      "Caused by: java.lang.RuntimeException: checked by native code");
  size_t Origin = Text.find("at ExceptionState.foo(ExceptionState.java:9)");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Second, std::string::npos);
  ASSERT_NE(Third, std::string::npos);
  ASSERT_NE(Origin, std::string::npos);
  EXPECT_LT(First, Second);
  EXPECT_LT(Second, Third);
  EXPECT_LT(Third, Origin);
}

TEST(Table2Census, StructuralRowsAreExact) {
  auto Rows = agent::computeConstraintCensus();
  ASSERT_EQ(Rows.size(), 11u);
  auto RowNamed = [&](const char *Name) -> const agent::CensusRow & {
    for (const auto &Row : Rows)
      if (Row.Name == Name)
        return Row;
    static agent::CensusRow Missing;
    ADD_FAILURE() << "missing row " << Name;
    return Missing;
  };
  // Rows that are structural consequences of the JNI surface must equal
  // the paper exactly.
  EXPECT_EQ(RowNamed("JNIEnv* state").Count, 229u);
  EXPECT_EQ(RowNamed("Exception state").Count, 209u);
  EXPECT_EQ(RowNamed("Critical-section state").Count, 225u);
  EXPECT_EQ(RowNamed("Entity-specific typing").Count, 131u);
  EXPECT_EQ(RowNamed("Access control").Count, 18u);
  EXPECT_EQ(RowNamed("Pinned or copied").Count, 12u);
  EXPECT_EQ(RowNamed("Monitor").Count, 1u);
}

TEST(Table2Census, ExperimentalRowsAreWithinTenPercentOfThePaper) {
  for (const auto &Row : agent::computeConstraintCensus()) {
    double Ratio = static_cast<double>(Row.Count) /
                   static_cast<double>(Row.PaperCount);
    EXPECT_GE(Ratio, 0.80) << Row.Name;
    EXPECT_LE(Ratio, 1.20) << Row.Name;
  }
}

TEST(Coverage, MatchesThePaperQualitatively) {
  // Jinn 100%; each -Xcheck baseline strictly below; the two baselines
  // disagree on many microbenchmarks (paper §6.3).
  size_t Total = 0, Hs = 0, J9 = 0, Jn = 0, Inconsistent = 0;
  for (const MicroInfo &Info : allMicrobenchmarks()) {
    if (!Info.DetectableAtBoundary)
      continue;
    ++Total;
    Outcome OHs = runMicroToOutcome(
        Info.Id,
        {jvm::VmFlavor::HotSpotLike, CheckerKind::Xcheck, false, {}, {}, {}});
    Outcome OJ9 = runMicroToOutcome(
        Info.Id,
        {jvm::VmFlavor::J9Like, CheckerKind::Xcheck, false, {}, {}, {}});
    Outcome OJn = runMicroToOutcome(
        Info.Id,
        {jvm::VmFlavor::HotSpotLike, CheckerKind::Jinn, false, {}, {}, {}});
    Hs += isValidBugReport(OHs);
    J9 += isValidBugReport(OJ9);
    Jn += isValidBugReport(OJn);
    Inconsistent += OHs != OJ9;
  }
  EXPECT_EQ(Jn, Total);
  EXPECT_LT(Hs, Total);
  EXPECT_LT(J9, Total);
  EXPECT_GE(Inconsistent, Total / 2); // "more than half" in the paper
}

} // namespace
