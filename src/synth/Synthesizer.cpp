//===- synth/Synthesizer.cpp - Algorithm 1 --------------------------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "jni/EnvImplDetail.h"
#include "jvmti/Interpose.h"

using namespace jinn;
using namespace jinn::synth;
using jinn::jni::FnId;
using jinn::spec::Direction;
using jinn::spec::TransitionContext;

SynthesisStats Synthesizer::installInto(
    jvmti::InterposeDispatcher &Dispatcher) {
  SynthesisStats Stats;
  Stats.MachineCount = Machines.size();

  // Algorithm 1 (paper Figure 5):
  // 1: for each state machine specification Mi
  for (size_t MachineIndex = 0; MachineIndex < Machines.size();
       ++MachineIndex) {
    spec::MachineBase *Machine = Machines[MachineIndex];
    // 2: for each state transition sa -> sb
    for (const spec::StateTransition &Transition :
         Machine->spec().Transitions) {
      ++Stats.StateTransitionCount;
      // 3: let L = Mi.languageTransitionsFor(sa -> sb)
      // 4: for each language transition e in L
      for (const spec::LanguageTransition &Lang : Transition.At) {
        switch (Lang.Dir) {
        case Direction::CallCToJava:
        case Direction::ReturnJavaToC: {
          // 5-6: add the synthesized code to the start or end of the
          // wrapper for e.function, by direction. The match set is
          // resolved once through spec::matchedFunctions — the same
          // resolution the static analyzer uses to build the relevance
          // matrix, so synthesized hooks and the matrix cannot disagree.
          bool IsPre = Lang.Dir == Direction::CallCToJava;
          for (FnId Id : spec::matchedFunctions(Lang.Fns)) {
            spec::TransitionAction Action = Transition.Action;
            spec::Reporter *Reporter = &Rep;
            auto Hook = [this, Action, Reporter, MachineIndex,
                         IsPre](jvmti::CapturedCall &Call) {
              TransitionContext Ctx = TransitionContext::jniSite(
                  IsPre ? TransitionContext::Site::JniPre
                        : TransitionContext::Site::JniPost,
                  Call, *Reporter);
              if (ActionCounts)
                ++ActionCounts[MachineIndex];
              Action(Ctx);
            };
            if (IsPre) {
              Dispatcher.addPre(Id, std::move(Hook));
              ++Stats.JniPreHooks;
            } else {
              Dispatcher.addPost(Id, std::move(Hook));
              ++Stats.JniPostHooks;
            }
          }
          break;
        }
        case Direction::CallJavaToC:
          EntryActions.push_back({MachineIndex, Transition.Action});
          ++Stats.NativeEntryActions;
          break;
        case Direction::ReturnCToJava:
          ExitActions.push_back({MachineIndex, Transition.Action});
          ++Stats.NativeExitActions;
          break;
        }
      }
    }
  }
  return Stats;
}

std::function<void(jvm::MethodInfo &, jni::JniNativeStdFn &)>
Synthesizer::makeNativeBindHandler() {
  return [this](jvm::MethodInfo &Method, jni::JniNativeStdFn &Bound) {
    if (EntryActions.empty() && ExitActions.empty() && !BoundaryObserver)
      return;
    jni::JniNativeStdFn Original = std::move(Bound);
    // The synthesized native-method wrapper (paper Figure 3): entry
    // instrumentation, the original native code, exit instrumentation.
    Bound = [this, &Method, Original = std::move(Original)](
                JNIEnv *Env, jobject Self, const jvalue *Args) -> jvalue {
      // Sampled checking mirrors the JNI direction: an unsampled thread's
      // native crossings are neither recorded nor checked, so the retained
      // trace holds the complete stream of every sampled thread and
      // nothing else.
      auto *Dispatcher = static_cast<jvmti::InterposeDispatcher *>(
          Env->runtime->Dispatcher);
      bool Checked = !Dispatcher || Dispatcher->checksThread(*Env->thread);
      if (BoundaryObserver && Checked)
        BoundaryObserver->onNativeEntry(Method, Env, Self, Args);
      TransitionContext Entry = TransitionContext::nativeSite(
          TransitionContext::Site::NativeEntry, Method, Env, Self, Args,
          nullptr, Rep);
      if (Checked)
        for (const MachineAction &Action : EntryActions) {
          if (ActionCounts)
            ++ActionCounts[Action.MachineIndex];
          Action.Action(Entry);
          if (Entry.aborted())
            break;
        }
      jvalue Result;
      Result.j = 0;
      if (!Entry.aborted())
        Result = Original(Env, Self, Args);
      if (BoundaryObserver && Checked)
        BoundaryObserver->onNativeExit(Method, Env, Self, Args, &Result,
                                       Entry.aborted());
      if (Checked) {
        TransitionContext Exit = TransitionContext::nativeSite(
            TransitionContext::Site::NativeExit, Method, Env, Self, Args,
            &Result, Rep);
        for (const MachineAction &Action : ExitActions) {
          if (ActionCounts)
            ++ActionCounts[Action.MachineIndex];
          Action.Action(Exit);
        }
      }
      return Result;
    };
  };
}
