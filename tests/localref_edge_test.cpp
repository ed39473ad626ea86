//===- tests/localref_edge_test.cpp - Local-reference report pinning -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge cases of the local-reference machine, each pinned to its exact
/// report text (machine, function and message): overflow at the default
/// capacity, after EnsureLocalCapacity and inside a PushLocalFrame frame;
/// double DeleteLocalRef across frames; use after PopLocalFrame and after
/// native return; adoption of a local created before the agent loaded; a
/// leaked explicit frame; cross-thread use; and 64 nested frames with live
/// references in each. The shadow encoding may change; these reports and
/// the live-count series may not.
///
//===----------------------------------------------------------------------===//

#include "TestHarness.h"

#include <string>
#include <vector>

using namespace jinn;
using namespace jinn::testing;

namespace {

/// Every report as "Machine | Function | Message", in report order.
std::vector<std::string> rendered(agent::JinnAgent &Jinn) {
  std::vector<std::string> Out;
  for (const agent::JinnReport &R : Jinn.reporter().reports())
    Out.push_back(R.Machine + " | " + R.Function + " | " + R.Message);
  return Out;
}

using Lines = std::vector<std::string>;

struct LocalRefEdge : ::testing::Test {
  JinnWorld W;
  JNIEnv *Env = W.env();
  const JNINativeInterface_ *Fns = W.env()->functions;

  Lines reports() { return rendered(W.Jinn); }
  size_t live() { return W.Jinn.machines().LocalRef.liveCount(W.main().id()); }
  /// Jinn throws at each violation; clear it so the next call is legal.
  void clearPending() { W.main().Pending = jvm::ObjectId(); }
  jstring newString() { return Fns->NewStringUTF(Env, "r"); }

  /// Defines class \p Name with one static native method "run()V" bound to
  /// \p Body, then calls it from the main thread.
  void runNative(const char *Name, jni::JniNativeStdFn Body) {
    jvm::ClassDef Def;
    Def.Name = Name;
    Def.nativeMethod("run", "()V", /*IsStatic=*/true,
                     std::string(Name) + ".java:1");
    W.define(Def);
    ASSERT_TRUE(W.bindNative(Name, "run", "()V", std::move(Body)));
    W.call(Name, "run", "()V");
  }
};

jvalue voidResult() {
  jvalue R;
  R.j = 0;
  return R;
}

//===----------------------------------------------------------------------===
// Overflow
//===----------------------------------------------------------------------===

TEST_F(LocalRefEdge, OverflowAtDefaultCapacity) {
  for (int I = 0; I < 16; ++I)
    newString();
  EXPECT_EQ(reports(), Lines{});
  newString();
  EXPECT_EQ(reports(),
            Lines{"Local reference | NewStringUTF | local reference overflow: "
                  "17 live references exceed the ensured capacity of 16 in "
                  "NewStringUTF."});
  EXPECT_EQ(W.Jinn.machines().LocalRef.topCapacity(W.main().id()), 16u);
  EXPECT_EQ(live(), 17u);
}

TEST_F(LocalRefEdge, OverflowAfterEnsureLocalCapacity) {
  ASSERT_EQ(Fns->EnsureLocalCapacity(Env, 24), JNI_OK);
  EXPECT_EQ(W.Jinn.machines().LocalRef.topCapacity(W.main().id()), 24u);
  for (int I = 0; I < 24; ++I)
    newString();
  EXPECT_EQ(reports(), Lines{});
  newString();
  clearPending();
  newString();
  EXPECT_EQ(reports(),
            (Lines{"Local reference | NewStringUTF | local reference "
                   "overflow: 25 live references exceed the ensured "
                   "capacity of 24 in NewStringUTF.",
                   "Local reference | NewStringUTF | local reference "
                   "overflow: 26 live references exceed the ensured "
                   "capacity of 24 in NewStringUTF."}));
}

TEST_F(LocalRefEdge, OverflowInsidePushLocalFrame) {
  // Base-frame references do not count against the pushed frame.
  for (int I = 0; I < 10; ++I)
    newString();
  ASSERT_EQ(Fns->PushLocalFrame(Env, 4), JNI_OK);
  EXPECT_EQ(W.Jinn.machines().LocalRef.topCapacity(W.main().id()), 4u);
  for (int I = 0; I < 4; ++I)
    newString();
  EXPECT_EQ(reports(), Lines{});
  newString();
  clearPending();
  EXPECT_EQ(live(), 15u);
  Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(live(), 10u);
  // Back in the base frame: 6 more fit under its capacity of 16.
  for (int I = 0; I < 6; ++I)
    newString();
  EXPECT_EQ(reports(),
            Lines{"Local reference | NewStringUTF | local reference overflow: "
                  "5 live references exceed the ensured capacity of 4 in "
                  "NewStringUTF."});
}

//===----------------------------------------------------------------------===
// Double free and dangling use
//===----------------------------------------------------------------------===

TEST_F(LocalRefEdge, DoubleDeleteAcrossFrames) {
  jstring Outer = newString();
  ASSERT_EQ(Fns->PushLocalFrame(Env, 8), JNI_OK);
  jstring Inner = newString();
  Fns->DeleteLocalRef(Env, Outer); // legal: deletes from the outer frame
  EXPECT_EQ(reports(), Lines{});
  Fns->DeleteLocalRef(Env, Outer); // double free, still inside the frame
  clearPending();
  Fns->PopLocalFrame(Env, nullptr);
  Fns->DeleteLocalRef(Env, Inner); // its frame is gone
  clearPending();
  EXPECT_EQ(reports(),
            (Lines{"Local reference | DeleteLocalRef | DeleteLocalRef of a "
                   "dead local reference (double free) in DeleteLocalRef.",
                   "Local reference | DeleteLocalRef | DeleteLocalRef of a "
                   "dead local reference (double free) in DeleteLocalRef."}));
  EXPECT_EQ(live(), 0u);
}

TEST_F(LocalRefEdge, UseAfterPopLocalFrame) {
  ASSERT_EQ(Fns->PushLocalFrame(Env, 8), JNI_OK);
  jstring S = newString();
  EXPECT_EQ(Fns->GetStringUTFLength(Env, S), 1);
  Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(reports(), Lines{});
  Fns->GetStringUTFLength(Env, S);
  clearPending();
  jclass Str = Fns->FindClass(Env, "java/lang/String");
  Fns->IsInstanceOf(Env, S, Str);
  clearPending();
  EXPECT_EQ(
      reports(),
      (Lines{"Local reference | GetStringUTFLength | argument 1 is a dangling "
             "local reference (its frame was popped or it was deleted) in "
             "GetStringUTFLength.",
             "Local reference | IsInstanceOf | argument 1 is a dangling local "
             "reference (its frame was popped or it was deleted) in "
             "IsInstanceOf."}));
}

TEST_F(LocalRefEdge, UseAfterNativeReturn) {
  static jobject Escaped;
  Escaped = nullptr;
  runNative("edge/Keep", [](JNIEnv *Env, jobject, const jvalue *) {
    Escaped = Env->functions->NewStringUTF(Env, "kept");
    return voidResult();
  });
  EXPECT_EQ(reports(), Lines{});
  runNative("edge/Use", [](JNIEnv *Env, jobject, const jvalue *) {
    jclass Str = Env->functions->FindClass(Env, "java/lang/String");
    Env->functions->IsInstanceOf(Env, Escaped, Str);
    return voidResult();
  });
  EXPECT_EQ(reports(),
            Lines{"Local reference | IsInstanceOf | argument 1 is a dangling "
                  "local reference (its frame was popped or it was deleted) "
                  "in IsInstanceOf."});
}

TEST_F(LocalRefEdge, ReturningADeletedReferenceFromANativeMethod) {
  jvm::ClassDef Def;
  Def.Name = "edge/Ret";
  Def.nativeMethod("make", "()Ljava/lang/String;", /*IsStatic=*/true,
                   "Ret.java:2");
  W.define(Def);
  ASSERT_TRUE(W.bindNative(
      "edge/Ret", "make", "()Ljava/lang/String;",
      [](JNIEnv *Env, jobject, const jvalue *) {
        jstring S = Env->functions->NewStringUTF(Env, "gone");
        Env->functions->DeleteLocalRef(Env, S);
        jvalue R;
        R.l = S;
        return R;
      }));
  W.call("edge/Ret", "make", "()Ljava/lang/String;");
  ASSERT_EQ(reports().size(), 1u);
  EXPECT_EQ(reports().front(),
            "Local reference | edge/Ret.make | the native method's return "
            "value is a dangling local reference (its frame was popped or it "
            "was deleted) in edge/Ret.make.");
}

//===----------------------------------------------------------------------===
// Adoption, leaks, threads, depth
//===----------------------------------------------------------------------===

TEST(LocalRefEdgeAdoption, PreAgentLocalIsAdoptedThenTracked) {
  VmWorld V;
  JNIEnv *Env = V.env();
  const JNINativeInterface_ *Fns = Env->functions;
  jstring Early = Fns->NewStringUTF(Env, "before the agent");
  jstring Doomed = Fns->NewStringUTF(Env, "deleted before the agent");
  Fns->DeleteLocalRef(Env, Doomed);

  jvmti::AgentHost Host(V.Rt);
  auto &Jinn = static_cast<agent::JinnAgent &>(
      Host.load(std::make_unique<agent::JinnAgent>()));
  Fns = Env->functions; // the agent interposed the table
  const agent::LocalRefMachine &Machine = Jinn.machines().LocalRef;
  const uint32_t Main = V.main().id();

  EXPECT_EQ(Machine.liveCount(Main), 0u);
  EXPECT_EQ(Fns->GetStringUTFLength(Env, Early), 16); // adopted, not flagged
  EXPECT_EQ(Machine.liveCount(Main), 1u);
  EXPECT_EQ(Fns->GetStringUTFLength(Env, Early), 16); // now tracked
  EXPECT_EQ(Machine.liveCount(Main), 1u);
  Fns->GetStringUTFLength(Env, Doomed); // dead before the agent: flagged
  V.main().Pending = jvm::ObjectId();
  Fns->DeleteLocalRef(Env, Early);
  EXPECT_EQ(Machine.liveCount(Main), 0u);
  Fns->DeleteLocalRef(Env, Early);
  V.main().Pending = jvm::ObjectId();
  EXPECT_EQ(rendered(Jinn),
            (Lines{"Local reference | GetStringUTFLength | argument 1 is a "
                   "dangling local reference (its frame was popped or it was "
                   "deleted) in GetStringUTFLength.",
                   "Local reference | DeleteLocalRef | DeleteLocalRef of a "
                   "dead local reference (double free) in DeleteLocalRef."}));
}

TEST(LocalRefEdgeAdoption, PreAgentLocalDeletedWithoutUseIsLegal) {
  VmWorld V;
  JNIEnv *Env = V.env();
  jstring Early = Env->functions->NewStringUTF(Env, "early");
  jvmti::AgentHost Host(V.Rt);
  auto &Jinn = static_cast<agent::JinnAgent &>(
      Host.load(std::make_unique<agent::JinnAgent>()));
  Env->functions->DeleteLocalRef(Env, Early);
  EXPECT_EQ(rendered(Jinn), Lines{});
  EXPECT_EQ(Jinn.machines().LocalRef.liveCount(V.main().id()), 0u);
}

TEST_F(LocalRefEdge, LeakedExplicitFrames) {
  runNative("edge/Leak", [](JNIEnv *Env, jobject, const jvalue *) {
    Env->functions->PushLocalFrame(Env, 4);
    Env->functions->NewStringUTF(Env, "in first frame");
    Env->functions->PushLocalFrame(Env, 4);
    Env->functions->NewStringUTF(Env, "in second frame");
    return voidResult(); // BUG: neither frame is popped
  });
  EXPECT_EQ(reports(),
            Lines{"Local reference | edge/Leak.run | 2 local reference "
                  "frame(s) pushed with PushLocalFrame were never popped "
                  "(leak) in edge/Leak.run."});
  EXPECT_EQ(live(), 0u);
}

TEST_F(LocalRefEdge, CrossThreadUse) {
  jstring S = newString();
  jvm::JThread &Worker = W.Vm.attachThread("worker");
  JNIEnv *WorkerEnv = W.Rt.envFor(Worker);
  W.Rt.setCurrentThread(&Worker);
  WorkerEnv->functions->GetStringUTFLength(WorkerEnv, S);
  W.Rt.setCurrentThread(&W.main());
  EXPECT_EQ(reports(),
            Lines{"Local reference | GetStringUTFLength | argument 1 is a "
                  "local reference that belongs to thread 1, not to the "
                  "current thread 2 in GetStringUTFLength."});
  // The owner's shadow is untouched.
  EXPECT_EQ(live(), 1u);
  EXPECT_EQ(W.Jinn.machines().LocalRef.liveCount(Worker.id()), 0u);
}

TEST_F(LocalRefEdge, SixtyFourNestedFramesWithLiveRefsInEach) {
  std::vector<size_t> Counts;
  W.Jinn.machines().LocalRef.OnCountChange = [&](uint32_t, size_t Live) {
    Counts.push_back(Live);
  };
  constexpr int Depth = 64;
  std::vector<std::vector<jstring>> Frames;
  for (int D = 0; D < Depth; ++D) {
    ASSERT_EQ(Fns->PushLocalFrame(Env, 3), JNI_OK);
    Frames.push_back({newString(), newString(), newString()});
  }
  EXPECT_EQ(live(), 3u * Depth);
  EXPECT_EQ(W.Jinn.machines().LocalRef.topCapacity(W.main().id()), 3u);
  // Every frame's references stay usable from the innermost frame.
  for (const std::vector<jstring> &Frame : Frames)
    for (jstring S : Frame)
      EXPECT_EQ(Fns->GetStringUTFLength(Env, S), 1);
  // Deleting from an outer frame frees a slot there, not in the top frame.
  Fns->DeleteLocalRef(Env, Frames[10][1]);
  Fns->DeleteLocalRef(Env, Frames[63][0]);
  newString(); // the top frame holds 3 again: no overflow
  EXPECT_EQ(reports(), Lines{});
  newString(); // 4 > 3
  clearPending();
  EXPECT_EQ(live(), 3u * Depth);
  // Unwind to depth 32, then use a reference from a popped frame and one
  // from a live frame, and delete the outer frame's deleted ref again.
  for (int D = Depth; D > 32; --D)
    Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(live(), 3u * 32 - 1);
  EXPECT_EQ(Fns->GetStringUTFLength(Env, Frames[31][2]), 1);
  Fns->GetStringUTFLength(Env, Frames[32][0]);
  clearPending();
  Fns->DeleteLocalRef(Env, Frames[10][1]);
  clearPending();
  for (int D = 32; D > 0; --D)
    Fns->PopLocalFrame(Env, nullptr);
  EXPECT_EQ(live(), 0u);
  EXPECT_EQ(
      reports(),
      (Lines{"Local reference | NewStringUTF | local reference overflow: 4 "
             "live references exceed the ensured capacity of 3 in "
             "NewStringUTF.",
             "Local reference | GetStringUTFLength | argument 1 is a dangling "
             "local reference (its frame was popped or it was deleted) in "
             "GetStringUTFLength.",
             "Local reference | DeleteLocalRef | DeleteLocalRef of a dead "
             "local reference (double free) in DeleteLocalRef."}));
  // The live-count series: 192 acquires, two deletes, two acquires, then
  // one report per pop.
  ASSERT_EQ(Counts.size(), 3u * Depth + 4 + Depth);
  for (size_t I = 0; I < 3u * Depth; ++I)
    ASSERT_EQ(Counts[I], I + 1) << "acquire " << I;
  EXPECT_EQ(Counts[3 * Depth], 3u * Depth - 1);
  EXPECT_EQ(Counts[3 * Depth + 1], 3u * Depth - 2);
  EXPECT_EQ(Counts[3 * Depth + 2], 3u * Depth - 1);
  EXPECT_EQ(Counts[3 * Depth + 3], 3u * Depth);
  EXPECT_EQ(Counts.back(), 0u);
}

} // namespace
