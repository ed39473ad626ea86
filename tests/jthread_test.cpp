//===- tests/jthread_test.cpp - Thread & local-ref frame unit tests ------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "jvm/Vm.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace jinn;
using namespace jinn::jvm;

namespace {

struct JThreadTest : ::testing::Test {
  Vm V;
  JThread &Main = V.mainThread();
  ObjectId Obj = V.newString("target");

  HandleBits bitsOf(uint64_t Word) {
    auto Decoded = decodeHandle(Word);
    EXPECT_TRUE(Decoded.has_value());
    return *Decoded;
  }
};

TEST_F(JThreadTest, MainThreadHasABaseFrame) {
  EXPECT_EQ(Main.frameDepth(), 1u);
  EXPECT_EQ(Main.topFrameCapacity(), 16u);
}

TEST_F(JThreadTest, NewLocalRefResolves) {
  uint64_t Word = Main.newLocalRef(Obj);
  ASSERT_NE(Word, 0u);
  HandleBits Bits = bitsOf(Word);
  EXPECT_EQ(Bits.Kind, RefKind::Local);
  EXPECT_EQ(Bits.Thread, Main.id());
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Live);
  EXPECT_EQ(Main.resolveLocal(Bits), Obj);
}

TEST_F(JThreadTest, NullTargetYieldsNullHandle) {
  EXPECT_EQ(Main.newLocalRef(ObjectId()), 0u);
}

TEST_F(JThreadTest, DeleteInvalidatesHandle) {
  uint64_t Word = Main.newLocalRef(Obj);
  HandleBits Bits = bitsOf(Word);
  EXPECT_TRUE(Main.deleteLocal(Bits));
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Stale);
  EXPECT_FALSE(Main.deleteLocal(Bits)); // double delete fails
  EXPECT_TRUE(Main.resolveLocal(Bits).isNull());
}

TEST_F(JThreadTest, FramePopInvalidatesAllItsRefs) {
  Main.pushFrame(16, /*Explicit=*/true);
  uint64_t W1 = Main.newLocalRef(Obj);
  uint64_t W2 = Main.newLocalRef(Obj);
  EXPECT_TRUE(Main.popFrame());
  EXPECT_EQ(Main.localRefState(bitsOf(W1)), LocalRefState::Stale);
  EXPECT_EQ(Main.localRefState(bitsOf(W2)), LocalRefState::Stale);
}

TEST_F(JThreadTest, RefsInOuterFramesSurviveInnerPop) {
  uint64_t Outer = Main.newLocalRef(Obj);
  Main.pushFrame(16, true);
  Main.newLocalRef(Obj);
  Main.popFrame();
  EXPECT_EQ(Main.localRefState(bitsOf(Outer)), LocalRefState::Live);
}

TEST_F(JThreadTest, RecycledSlotsGetNewGenerations) {
  uint64_t W1 = Main.newLocalRef(Obj);
  HandleBits B1 = bitsOf(W1);
  Main.deleteLocal(B1);
  uint64_t W2 = Main.newLocalRef(Obj); // reuses the slot
  HandleBits B2 = bitsOf(W2);
  EXPECT_EQ(B2.Slot, B1.Slot);
  EXPECT_GT(B2.Gen, B1.Gen);
  EXPECT_EQ(Main.localRefState(B1), LocalRefState::Stale);
  EXPECT_EQ(Main.localRefState(B2), LocalRefState::Live);
}

TEST_F(JThreadTest, NeverIssuedIsDistinguishedFromStale) {
  HandleBits Future;
  Future.Kind = RefKind::Local;
  Future.Thread = Main.id();
  Future.Slot = 0;
  Future.Gen = 1 << 20; // a generation far in the future
  EXPECT_EQ(Main.localRefState(Future), LocalRefState::NeverIssued);
}

TEST_F(JThreadTest, CapacityAccountingAndOverflowFlag) {
  EXPECT_FALSE(Main.everOverflowedCapacity());
  Main.pushFrame(4, true);
  for (int I = 0; I < 4; ++I)
    Main.newLocalRef(Obj);
  EXPECT_FALSE(Main.everOverflowedCapacity());
  Main.newLocalRef(Obj); // fifth exceeds the declared capacity
  EXPECT_TRUE(Main.everOverflowedCapacity());
  EXPECT_EQ(Main.liveLocalsInTopFrame(), 5u); // the VM does not reject it
  Main.popFrame();
}

TEST_F(JThreadTest, EnsureLocalCapacityGrowsTopFrame) {
  EXPECT_TRUE(Main.ensureLocalCapacity(64));
  EXPECT_EQ(Main.topFrameCapacity(), 64u);
  EXPECT_TRUE(Main.ensureLocalCapacity(8)); // never shrinks
  EXPECT_EQ(Main.topFrameCapacity(), 64u);
}

TEST_F(JThreadTest, DeleteAccountsToTheOwningFrame) {
  uint64_t Outer = Main.newLocalRef(Obj);
  Main.pushFrame(16, true);
  Main.newLocalRef(Obj);
  // Delete the OUTER reference while the inner frame is active.
  EXPECT_TRUE(Main.deleteLocal(bitsOf(Outer)));
  EXPECT_EQ(Main.liveLocalsInTopFrame(), 1u);
  Main.popFrame();
  EXPECT_EQ(Main.liveLocalCount(), 0u);
}

TEST_F(JThreadTest, CollectRootsIncludesLiveLocalsAndPending) {
  Main.newLocalRef(Obj);
  V.throwNew(Main, "java/lang/RuntimeException", "boom");
  std::vector<ObjectId> Roots;
  Main.collectRoots(Roots);
  bool SawObj = false, SawPending = false;
  for (ObjectId Id : Roots) {
    SawObj |= Id == Obj;
    SawPending |= Id == Main.Pending;
  }
  EXPECT_TRUE(SawObj);
  EXPECT_TRUE(SawPending);
}

TEST_F(JThreadTest, GcKeepsLocallyReferencedObjectsAlive) {
  ObjectId Temp = V.newString("kept by a local ref");
  Main.newLocalRef(Temp);
  V.gc();
  EXPECT_NE(V.heap().resolve(Temp), nullptr);

  ObjectId Dropped = V.newString("no refs");
  V.gc();
  EXPECT_EQ(V.heap().resolve(Dropped), nullptr);
}

TEST_F(JThreadTest, RenderStackInnermostFirst) {
  Main.Stack.push_back({false, "A.main(A.java:1)"});
  Main.Stack.push_back({true, "A.native(Native Method)"});
  EXPECT_EQ(Main.renderStack(),
            "\tat A.native(Native Method)\n\tat A.main(A.java:1)\n");
}

// Property: a random legal sequence of push/new/delete/pop operations
// never leaves a live handle unresolvable, and staleness is permanent.
TEST_F(JThreadTest, RandomFrameOperationsProperty) {
  SplitMix64 Rng(99);
  std::vector<std::pair<uint64_t, bool>> Issued; // (word, expectLive)
  size_t ExplicitFrames = 0;
  for (int Step = 0; Step < 500; ++Step) {
    switch (Rng.nextBelow(4)) {
    case 0: {
      uint64_t Word = Main.newLocalRef(Obj);
      if (Word)
        Issued.push_back({Word, true});
      break;
    }
    case 1:
      Main.pushFrame(16, true);
      ++ExplicitFrames;
      break;
    case 2:
      if (ExplicitFrames > 0) {
        // Everything issued since the frame was pushed dies; approximate
        // by re-verifying all handles against the thread afterwards.
        Main.popFrame();
        --ExplicitFrames;
        for (auto &Entry : Issued)
          Entry.second = Main.localRefState(*decodeHandle(Entry.first)) ==
                         LocalRefState::Live;
      }
      break;
    default:
      if (!Issued.empty()) {
        auto &Entry = Issued[Rng.nextBelow(Issued.size())];
        if (Entry.second) {
          EXPECT_TRUE(Main.deleteLocal(*decodeHandle(Entry.first)));
          Entry.second = false;
        } else {
          EXPECT_FALSE(Main.deleteLocal(*decodeHandle(Entry.first)));
        }
      }
      break;
    }
    // Invariant: expectation matches the thread's classification.
    for (const auto &Entry : Issued) {
      LocalRefState State = Main.localRefState(*decodeHandle(Entry.first));
      EXPECT_EQ(State == LocalRefState::Live, Entry.second);
    }
  }
}


TEST_F(JThreadTest, SlotGenerationWrapsAtTheHandleWidth) {
  // A handle carries 23 generation bits. Reissue one slot more than 2^23
  // times: every handle it issues must stay live while its frame does,
  // and classify as stale, never as never-issued, once it is gone.
  Main.pushFrame(1, /*Explicit=*/true);
  const HandleBits First = bitsOf(Main.newLocalRef(Obj));
  Main.popFrame();
  constexpr uint64_t Issues = (1ULL << 23) + 3;
  for (uint64_t I = 1; I < Issues; ++I) {
    Main.pushFrame(1, /*Explicit=*/true);
    Main.newLocalRef(Obj);
    Main.popFrame();
  }
  Main.pushFrame(1, /*Explicit=*/true);
  const HandleBits Bits = bitsOf(Main.newLocalRef(Obj));
  EXPECT_EQ(Bits.Slot, First.Slot);
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Live);
  EXPECT_EQ(Main.resolveLocal(Bits), Obj);
  EXPECT_EQ(Main.localRefState(First), LocalRefState::Stale);
  HandleBits Ahead = Bits;
  Ahead.Gen = (Bits.Gen + 1) & handle_detail::GenMask;
  EXPECT_EQ(Main.localRefState(Ahead), LocalRefState::Stale);
  // A slot whose generation never wrapped still tells the two apart.
  HandleBits Fresh = bitsOf(Main.newLocalRef(Obj));
  EXPECT_NE(Fresh.Slot, Bits.Slot);
  Fresh.Gen += 1;
  EXPECT_EQ(Main.localRefState(Fresh), LocalRefState::NeverIssued);
  EXPECT_TRUE(Main.deleteLocal(Bits));
  EXPECT_EQ(Main.localRefState(Bits), LocalRefState::Stale);
  Main.popFrame();
}

} // namespace
