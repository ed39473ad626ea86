//===- synth/Synthesizer.h - Algorithm 1: checks from state machines -----===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 1: for each state machine specification, for each
/// state transition, look up the language transitions it may occur at, and
/// add the synthesized check to the start (Call) or end (Return) of the
/// wrapper for each affected FFI function. Wrappers for JNI functions are
/// the interposed-table hooks; wrappers for native methods are installed
/// through the JVMTI NativeMethodBind event (paper Figures 3 and 4).
///
//===----------------------------------------------------------------------===//

#ifndef JINN_SYNTH_SYNTHESIZER_H
#define JINN_SYNTH_SYNTHESIZER_H

#include "spec/StateMachine.h"

#include <functional>
#include <vector>

namespace jinn::synth {

/// What Algorithm 1 produced.
struct SynthesisStats {
  size_t MachineCount = 0;
  size_t StateTransitionCount = 0;
  size_t JniPreHooks = 0;
  size_t JniPostHooks = 0;
  size_t NativeEntryActions = 0;
  size_t NativeExitActions = 0;

  size_t instrumentationPoints() const {
    return JniPreHooks + JniPostHooks + NativeEntryActions +
           NativeExitActions;
  }
};

/// Synthesizes a dynamic analysis from state machine specifications.
/// Non-owning: machines and reporter must outlive the synthesized analysis.
class Synthesizer {
public:
  Synthesizer(std::vector<spec::MachineBase *> Machines,
              spec::Reporter &Rep)
      : Machines(std::move(Machines)), Rep(Rep) {}

  /// Algorithm 1. Installs per-JNI-function hooks into \p Dispatcher and
  /// accumulates native-boundary actions for makeNativeBindHandler().
  SynthesisStats installInto(jvmti::InterposeDispatcher &Dispatcher);

  /// Handler for NativeMethodBind events: wraps each bound native method
  /// with the synthesized entry/exit instrumentation. When a boundary
  /// observer is set, methods are wrapped even if no machine instruments
  /// the native boundary, so the observer sees every crossing.
  std::function<void(jvm::MethodInfo &, jni::JniNativeStdFn &)>
  makeNativeBindHandler();

  /// Observer of native entry/exit crossings (the trace recorder). Fired
  /// before entry actions and before exit actions, so recorded state is
  /// what the machines were about to observe.
  void setBoundaryObserver(jvmti::NativeBoundaryObserver *Observer) {
    BoundaryObserver = Observer;
  }

  /// When set, ActionCounts[I] is incremented each time an action of
  /// machines()[I] runs (per-machine transition counts). The array must
  /// hold machines().size() counters and outlive the synthesized hooks.
  uint64_t *ActionCounts = nullptr;

  /// One synthesized native-boundary action with its owning machine.
  struct MachineAction {
    size_t MachineIndex; ///< position of the owning machine in machines()
    spec::TransitionAction Action;
  };
  const std::vector<MachineAction> &entryActions() const {
    return EntryActions;
  }
  const std::vector<MachineAction> &exitActions() const { return ExitActions; }

  const std::vector<spec::MachineBase *> &machines() const {
    return Machines;
  }
  spec::Reporter &reporter() { return Rep; }

private:
  std::vector<spec::MachineBase *> Machines;
  spec::Reporter &Rep;
  jvmti::NativeBoundaryObserver *BoundaryObserver = nullptr;
  std::vector<MachineAction> EntryActions;
  std::vector<MachineAction> ExitActions;
};

} // namespace jinn::synth

#endif // JINN_SYNTH_SYNTHESIZER_H
