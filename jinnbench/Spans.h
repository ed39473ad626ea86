//===- jinnbench/Spans.h - In-memory span recorder for traced runs -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer:
/// world construction (synth/jinn agent load), Vm::invoke (jvm), each
/// operation group on the JNIEnv table (jni, plus jvmti/jinn when a checker
/// interposes), AttachCurrentThread/DetachCurrentThread (jvm), and trace
/// collect/write/read/replay (trace). Each OS thread records into its own
/// buffer, so recording takes no lock. Every span feeds a per-(span,
/// configuration) summary of count, total and self time; the first 16384
/// spans of each thread are also kept whole. Both are written as JSON lines
/// when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef JINNBENCH_SPANS_H
#define JINNBENCH_SPANS_H

#include <cstdint>
#include <string>

namespace jinnbench {

enum class SpanName : uint8_t {
  WorldBuild,
  VmInvoke,
  StringUse,
  LocalChurn,
  FramePushPop,
  GlobalChurn,
  FieldAccess,
  Callback,
  ArrayPin,
  ArrayCritical,
  MonitorEnterExit,
  SeededBug,
  Transition,
  Attach,
  Detach,
  Request,
  TraceCollect,
  TraceWrite,
  TraceRead,
  TraceReplay,
  Count,
};

const char *spanName(SpanName Name);

namespace spans {

/// Whether spans are being recorded (process-wide). Only changed while no
/// benchmark thread is running a layer call.
extern bool On;
inline bool enabled() { return On; }
inline void setEnabled(bool Enable) { On = Enable; }

/// The configuration tag stamped on spans the calling thread records.
void setThreadConfig(uint8_t Config);

/// Request id stamped on spans the calling thread records.
void setThreadRequest(uint32_t Request);

/// Writes every recorded span plus the summary to \p Path as JSON lines.
/// \p ConfigNames names the configuration tags. Returns false on I/O error.
bool writeJsonLines(const std::string &Path,
                    const char *const *ConfigNames, size_t NumConfigs);

/// Spans kept whole so far, and spans only summarized.
uint64_t recorded();
uint64_t dropped();

/// Opens a span on the calling thread; returns its nesting depth, or
/// 0xffffffff when spans nest deeper than the recorder tracks.
uint32_t beginSpan(SpanName Name);
void endSpan(uint32_t Index);

} // namespace spans

/// Records one span for its scope when spans are enabled; otherwise costs
/// one predictable branch.
class SpanScope {
public:
  explicit SpanScope(SpanName Name)
      : Index(spans::enabled() ? spans::beginSpan(Name) : NoSpan) {}
  ~SpanScope() {
    if (Index != NoSpan)
      spans::endSpan(Index);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  static constexpr uint32_t NoSpan = 0xffffffffu;
  uint32_t Index;
};

} // namespace jinnbench

#endif // JINNBENCH_SPANS_H
