//===- jinnbench/Slugs.h - Metric names for the fourteen Jinn machines ---===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps each state machine's display name to the slug used in the per-layer
/// metric `jinn.machine.<slug>.ns`. The benchmark refuses to run when an
/// active machine has no slug, so a machine added to the checker cannot go
/// unmeasured.
///
//===----------------------------------------------------------------------===//

#ifndef JINNBENCH_SLUGS_H
#define JINNBENCH_SLUGS_H

#include <string_view>

namespace jinnbench {

struct MachineSlug {
  const char *Name; ///< spec::StateMachineSpec::Name
  const char *Slug;
};

inline constexpr MachineSlug MachineSlugs[] = {
    {"JNIEnv* state", "env_state"},
    {"Exception state", "exception_state"},
    {"Critical-section state", "critical_state"},
    {"Fixed typing", "fixed_typing"},
    {"Entity-specific typing", "entity_typing"},
    {"Access control", "access_control"},
    {"Nullness", "nullness"},
    {"Pinned or copied string or array", "pinned_resource"},
    {"Monitor", "monitor"},
    {"Global or weak global reference", "global_ref"},
    {"Local reference", "local_ref"},
    {"Local-frame nesting", "local_frame_nesting"},
    {"Monitor balance", "monitor_balance"},
    {"Critical-section nesting", "critical_nesting"},
};

/// The slug of machine \p Name, or nullptr when the table lacks it.
inline const char *slugFor(std::string_view Name) {
  for (const MachineSlug &Entry : MachineSlugs)
    if (Name == Entry.Name)
      return Entry.Slug;
  return nullptr;
}

} // namespace jinnbench

#endif // JINNBENCH_SLUGS_H
