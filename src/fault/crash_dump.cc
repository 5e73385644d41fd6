#include "fault/crash_dump.h"

#include <fstream>

#include "cpu/core.h"
#include "trace/json.h"

namespace msim {

void WriteCrashDump(Core& core, const RingBufferSink* trace, const RingBufferSink* flight,
                    const CrashDumpOptions& options, std::ostream& out) {
  const CoreStats& stats = core.stats();
  const MetalUnit& metal = core.metal();
  const auto creg = [&](uint32_t number) {
    return core.metal().ReadCreg(number, core.cycle(), stats.instret, core.intc().pending());
  };

  JsonWriter json(out);
  json.BeginObject();
  json.Field("version", 2);
  json.Field("reason", options.reason);
  json.Field("fatal_message", options.fatal_message);
  json.Field("cycle", core.cycle());
  json.Field("instret", stats.instret);
  json.Field("halted", core.halted());
  json.Field("exit_code", core.exit_code());

  json.BeginObject("metal");
  json.Field("mode", core.metal_mode());
  json.Field("in_machine_check", core.in_machine_check());
  json.Field("menters", stats.menters);
  json.Field("mexits", stats.mexits);
  json.Field("machine_checks", stats.machine_checks);
  json.Field("watchdog_fires", stats.watchdog_fires);
  json.EndObject();

  json.BeginArray("gprs");
  for (uint8_t i = 0; i < 32; ++i) {
    json.Value(static_cast<uint64_t>(core.ReadReg(i)));
  }
  json.EndArray();

  json.BeginArray("mregs");
  for (uint8_t i = 0; i < 32; ++i) {
    json.Value(static_cast<uint64_t>(metal.ReadMreg(i)));
  }
  json.EndArray();

  json.BeginObject("trap");
  json.Field("mcause", creg(kCrMcause));
  json.Field("mepc", creg(kCrMepc));
  json.Field("mbadvaddr", creg(kCrMbadvaddr));
  json.Field("minstr", creg(kCrMinstr));
  json.EndObject();

  const auto kind = static_cast<McheckKind>(creg(kCrMcheckKind));
  json.BeginObject("machine_check");
  json.Field("kind", static_cast<uint64_t>(kind));
  json.Field("kind_name", McheckKindName(kind));
  json.Field("info", creg(kCrMcheckInfo));
  json.Field("saved_m31", creg(kCrMcheckM31));
  json.EndObject();

  json.BeginArray("trace");
  if (trace != nullptr) {
    const std::vector<TraceEvent> events = trace->Events();
    const size_t first =
        events.size() > options.max_trace_events ? events.size() - options.max_trace_events : 0;
    for (size_t i = first; i < events.size(); ++i) {
      WriteTraceEventJson(json, events[i]);
    }
  }
  json.EndArray();

  json.BeginObject("flight_recorder");
  if (flight != nullptr) {
    flight->AppendJson(json);
  } else {
    json.Field("capacity", 0);
    json.Field("total", 0);
    json.Field("dropped", 0);
    json.BeginArray("events");
    json.EndArray();
  }
  json.EndObject();

  json.EndObject();
  out << "\n";
}

Status WriteCrashDumpFile(Core& core, const RingBufferSink* trace, const RingBufferSink* flight,
                          const CrashDumpOptions& options, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgument("cannot open crash-dump file: " + path);
  }
  WriteCrashDump(core, trace, flight, options, out);
  if (!out.good()) {
    return Internal("failed writing crash dump to " + path);
  }
  return Status::Ok();
}

}  // namespace msim
