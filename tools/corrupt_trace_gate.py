#!/usr/bin/env python3
"""Checks that a corrupt trace file is an error, never a crash or a PASS.

Usage: corrupt_trace_gate.py <jinn-replay binary> <jinn-verify binary> <dir>

Records one microbenchmark with `jinn-replay --trace` into <dir>, confirms
that `jinn-verify --trace` reads the clean file, then derives two corrupt
copies and feeds each to `jinn-verify --trace`:

  huge-count  the header claims 2^40 events (a reader that sizes its
              buffer from the header dies of std::bad_alloc);
  bad-fn      every event's JNI function id is 0xFFF0 (a reader that casts
              it unchecked lifts garbage and can print PASS);
  bad-arity   every JNI event with arguments claims one fewer than its
              function takes (replay would read an argument slot the
              wrapper never wrote);
  bad-thread  every JNI event names thread 0x7FFFFFF0, which is not in the
              file's thread table.

Each corrupt run must exit 1 with a "cannot read trace file" failure: not
0, not killed by a signal, and with no PASS line.

The byte offsets below follow the trace format (src/trace/TraceFile.cpp:
a 40-byte header, 36-byte thread entries, then fixed-size TraceEvent
records whose ThreadId word sits at offset 24, Kind byte at 28, NumArgs
byte at 29 and Fn word at 30). The script checks that the recorded file
agrees with them before editing it.
"""
import os
import struct
import subprocess
import sys

HEADER = struct.Struct("<8sIIIIQQ")  # magic, version, event size,
#                                      frame capacity, threads, events,
#                                      dropped
THREAD_ENTRY_SIZE = 36
THREAD_OFFSET = 24
KIND_OFFSET = 28
NUM_ARGS_OFFSET = 29
FN_OFFSET = 30
NUM_EVENT_KINDS = 9
JNI_KINDS = (0, 1)  # JniPre, JniPost
MAX_ARGS = 5
UNKNOWN_THREAD = 0x7FFFFFF0


def run_verify(verify, path):
    proc = subprocess.run([verify, "--trace", path], capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    replay, verify, out_dir = sys.argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    clean = os.path.join(out_dir, "clean.jinntrace")
    subprocess.run([replay, "--micro", "LocalDangling", "--trace", clean],
                   check=True, capture_output=True, timeout=120)
    with open(clean, "rb") as f:
        data = bytearray(f.read())

    (magic, _, event_size, _, threads, events, _) = HEADER.unpack_from(data)
    first = HEADER.size + threads * THREAD_ENTRY_SIZE
    if (magic != b"JINNTRC1" or events == 0
            or first + events * event_size != len(data)):
        print("corrupt_trace_gate: recorded file does not match the "
              "expected layout", file=sys.stderr)
        return 1
    jni_events = []
    for i in range(events):
        at = first + i * event_size
        if (data[at + KIND_OFFSET] >= NUM_EVENT_KINDS
                or data[at + NUM_ARGS_OFFSET] > MAX_ARGS):
            print("corrupt_trace_gate: event kind or argument count offset "
                  "does not match the expected layout", file=sys.stderr)
            return 1
        if data[at + KIND_OFFSET] in JNI_KINDS:
            jni_events.append(at)
    if not any(data[at + NUM_ARGS_OFFSET] for at in jni_events):
        print("corrupt_trace_gate: the recorded file has no JNI event with "
              "arguments", file=sys.stderr)
        return 1

    code, text = run_verify(verify, clean)
    if code != 0 or "PASS" not in text:
        print("corrupt_trace_gate: the clean trace does not verify:\n" + text,
              file=sys.stderr)
        return 1

    huge = bytearray(data)
    struct.pack_into("<Q", huge, 24, 1 << 40)
    bad_fn = bytearray(data)
    for i in range(events):
        struct.pack_into("<H", bad_fn, first + i * event_size + FN_OFFSET,
                         0xFFF0)

    bad_arity = bytearray(data)
    bad_thread = bytearray(data)
    for at in jni_events:
        if bad_arity[at + NUM_ARGS_OFFSET]:
            bad_arity[at + NUM_ARGS_OFFSET] -= 1
        struct.pack_into("<I", bad_thread, at + THREAD_OFFSET, UNKNOWN_THREAD)

    failures = []
    for name, payload in (("huge-count", huge), ("bad-fn", bad_fn),
                          ("bad-arity", bad_arity),
                          ("bad-thread", bad_thread)):
        path = os.path.join(out_dir, name + ".jinntrace")
        with open(path, "wb") as f:
            f.write(payload)
        code, text = run_verify(verify, path)
        if code < 0:
            failures.append("%s: killed by signal %d" % (name, -code))
        elif code != 1:
            failures.append("%s: exit code %d, expected 1" % (name, code))
        if "PASS" in text:
            failures.append("%s: printed PASS" % name)
        if "cannot read trace file" not in text:
            failures.append("%s: no read error reported" % name)
        print("%s: exit %d" % (name, code))

    for failure in failures:
        print("corrupt_trace_gate: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
