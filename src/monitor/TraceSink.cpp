//===- monitor/TraceSink.cpp - Bounded-memory trace destinations ---------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "monitor/TraceSink.h"

#include "support/Format.h"
#include "trace/TraceFile.h"

#include <algorithm>
#include <filesystem>

using namespace jinn;
using namespace jinn::monitor;

namespace {

uint64_t traceBytes(const trace::Trace &T) {
  return static_cast<uint64_t>(T.Events.size()) * sizeof(trace::TraceEvent);
}

} // namespace

trace::Trace monitor::mergeSegments(std::vector<trace::Trace> Segments) {
  trace::Trace Out;
  size_t Total = 0;
  for (const trace::Trace &Seg : Segments)
    Total += Seg.Events.size();
  std::vector<trace::MergeKey> Keys;
  Keys.reserve(Total);
  for (const trace::Trace &Seg : Segments) {
    Out.Head.Version = Seg.Head.Version;
    Out.Head.NativeFrameCapacity = Seg.Head.NativeFrameCapacity;
    Out.Head.DroppedEvents += Seg.Head.DroppedEvents;
    for (const trace::TraceEvent &Ev : Seg.Events)
      Keys.push_back({Ev.TimeNs, Ev.Seq, Ev.ThreadId, 0, &Ev});
  }
  // The order collect() establishes. All segments share one tick
  // calibration, so merging them cannot invert any per-thread order.
  trace::placeInMergeOrder(
      Keys, Out, [](trace::TraceEvent &Ev, const void *Source) {
        Ev = *static_cast<const trace::TraceEvent *>(Source);
      });
  return Out;
}

//===----------------------------------------------------------------------===//
// RingSink
//===----------------------------------------------------------------------===//

RingSink::RingSink(Options Opts) : Opts(Opts) {}

void RingSink::append(trace::Trace Segment) {
  if (Segment.Events.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Stats.AppendedSegments += 1;
  Stats.AppendedEvents += Segment.Events.size();
  Stats.RetainedSegments += 1;
  Stats.RetainedEvents += Segment.Events.size();
  Stats.RetainedBytes += traceBytes(Segment);
  Segments.push_back(std::move(Segment));
  pruneLocked();
}

void RingSink::pruneLocked() {
  while (!Segments.empty() &&
         ((Opts.MaxSegments && Segments.size() > Opts.MaxSegments) ||
          (Opts.MaxBytes && Stats.RetainedBytes > Opts.MaxBytes &&
           Segments.size() > 1))) {
    const trace::Trace &Oldest = Segments.front();
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += Oldest.Events.size();
    Stats.RetainedSegments -= 1;
    Stats.RetainedEvents -= Oldest.Events.size();
    Stats.RetainedBytes -= traceBytes(Oldest);
    Segments.pop_front();
  }
}

trace::Trace RingSink::retained() {
  std::vector<trace::Trace> Copy;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Copy.assign(Segments.begin(), Segments.end());
  }
  return mergeSegments(std::move(Copy));
}

SinkStats RingSink::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

//===----------------------------------------------------------------------===//
// RotatingFileSink
//===----------------------------------------------------------------------===//

RotatingFileSink::RotatingFileSink(Options Opts) : Opts(std::move(Opts)) {
  std::error_code Ec;
  std::filesystem::create_directories(this->Opts.Directory, Ec);
  if (Ec)
    LastError = "create_directories: " + Ec.message();
}

void RotatingFileSink::append(trace::Trace Segment) {
  if (Segment.Events.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Stats.AppendedSegments += 1;
  Stats.AppendedEvents += Segment.Events.size();
  PendingBytes += traceBytes(Segment);
  PendingEvents += Segment.Events.size();
  Pending.push_back(std::move(Segment));
  if (Opts.RotateBytes && PendingBytes >= Opts.RotateBytes)
    rotateLocked();
  pruneLocked();
}

void RotatingFileSink::rotate() {
  std::lock_guard<std::mutex> Lock(Mu);
  rotateLocked();
  pruneLocked();
}

void RotatingFileSink::rotateLocked() {
  if (Pending.empty())
    return;
  trace::Trace Merged = mergeSegments(std::move(Pending));
  Pending.clear();
  SegmentFile File;
  File.Path = Opts.Directory + "/" +
              formatString("seg-%06llu.jinntrace",
                           static_cast<unsigned long long>(NextSegment++));
  File.Events = Merged.Events.size();
  File.Bytes = traceBytes(Merged);
  File.Born = std::chrono::steady_clock::now();
  PendingBytes = 0;
  PendingEvents = 0;
  std::string Err;
  if (!trace::writeTraceFile(Merged, File.Path, &Err)) {
    // The events in this rotation are lost; count them as dropped rather
    // than pretending the file exists.
    LastError = Err;
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += File.Events;
    return;
  }
  Files.push_back(std::move(File));
}

void RotatingFileSink::pruneLocked() {
  auto DropFront = [this] {
    const SegmentFile &Oldest = Files.front();
    Stats.DroppedSegments += 1;
    Stats.DroppedEvents += Oldest.Events;
    std::error_code Ec;
    std::filesystem::remove(Oldest.Path, Ec);
    Files.erase(Files.begin());
  };
  while (Opts.MaxSegments && Files.size() > Opts.MaxSegments)
    DropFront();
  if (Opts.MaxAgeMs) {
    auto Cutoff = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(Opts.MaxAgeMs);
    while (!Files.empty() && Files.front().Born < Cutoff)
      DropFront();
  }
  uint64_t RetainedEvents = PendingEvents;
  uint64_t RetainedBytes = PendingBytes;
  for (const SegmentFile &File : Files) {
    RetainedEvents += File.Events;
    RetainedBytes += File.Bytes;
  }
  Stats.RetainedSegments = Files.size() + (Pending.empty() ? 0 : 1);
  Stats.RetainedEvents = RetainedEvents;
  Stats.RetainedBytes = RetainedBytes;
}

trace::Trace RotatingFileSink::retained() {
  std::vector<std::string> Paths;
  std::vector<trace::Trace> Parts;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const SegmentFile &File : Files)
      Paths.push_back(File.Path);
    // Pending (not yet rotated) segments participate too, so retained()
    // is complete at any instant, not just after rotate().
    Parts.assign(Pending.begin(), Pending.end());
  }
  std::vector<std::pair<std::string, std::string>> Unreadable; // path, why
  for (const std::string &Path : Paths) {
    trace::Trace Part;
    std::string Err;
    if (trace::readTraceFile(Part, Path, &Err))
      Parts.push_back(std::move(Part));
    else
      Unreadable.emplace_back(Path, std::move(Err));
  }
  if (!Unreadable.empty()) {
    // A file that cannot be read back cannot be replayed either: report
    // it and stop retaining it. One pruned since the paths were copied is
    // not a read error.
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Path, Err] : Unreadable) {
      auto It =
          std::find_if(Files.begin(), Files.end(),
                       [&](const SegmentFile &F) { return F.Path == Path; });
      if (It == Files.end())
        continue;
      Stats.UnreadableSegments += 1;
      Stats.DroppedEvents += It->Events;
      LastError = Err;
      Files.erase(It);
    }
    pruneLocked();
  }
  return mergeSegments(std::move(Parts));
}

SinkStats RotatingFileSink::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

std::vector<std::string> RotatingFileSink::segmentFiles() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::string> Paths;
  for (const SegmentFile &File : Files)
    Paths.push_back(File.Path);
  return Paths;
}

std::string RotatingFileSink::lastError() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return LastError;
}
