// Structured crash dumps (docs/robustness.md).
//
// When the simulator dies — an undelegated trap, a double machine check, any
// Fatal() — the CLI can serialize the architectural state to JSON
// (`msim run --crash-dump FILE`) so the failure is debuggable after the
// process exits: GPRs, Metal registers, the Metal mode/entry state, the
// pending trap and machine-check control registers, the last N structured
// trace events from an attached ring buffer, and the flight recorder's ring
// of architectural events (a RingBufferSink filtered to kFlightKinds) when
// one is attached. The dump contains only simulated state (no timestamps, no
// host paths), so a deterministic run produces a byte-identical dump.
//
// Dump versions:
//   1 — initial format (through the fault-injection PR)
//   2 — adds the "flight_recorder" section
#ifndef MSIM_FAULT_CRASH_DUMP_H_
#define MSIM_FAULT_CRASH_DUMP_H_

#include <cstddef>
#include <ostream>
#include <string>

#include "support/result.h"
#include "trace/trace.h"

namespace msim {

class Core;

struct CrashDumpOptions {
  std::string reason;         // "fatal" | "halted" | "cycle_limit" (RunResult)
  std::string fatal_message;  // empty unless reason == "fatal"
  size_t max_trace_events = 64;  // last-N cap on the trace ring buffer
};

// Writes the dump JSON for `core`. `trace` may be null (the "trace" array is
// then empty); `flight` may be null (the "flight_recorder" object then
// records zero events).
void WriteCrashDump(Core& core, const RingBufferSink* trace, const RingBufferSink* flight,
                    const CrashDumpOptions& options, std::ostream& out);

// WriteCrashDump into `path`; fails if the file cannot be created.
Status WriteCrashDumpFile(Core& core, const RingBufferSink* trace, const RingBufferSink* flight,
                          const CrashDumpOptions& options, const std::string& path);

}  // namespace msim

#endif  // MSIM_FAULT_CRASH_DUMP_H_
