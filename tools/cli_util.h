// Command-line helpers shared by the msim, mcamp, mfuzz and msimd front ends:
// strict numeric flag parsing, the --storage mode names and whole-file reads.
// Every tool reports the same malformed input with the same message and exit
// status 2 (kExitUsage).
#ifndef MSIM_TOOLS_CLI_UTIL_H_
#define MSIM_TOOLS_CLI_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cpu/config.h"
#include "support/result.h"
#include "support/strings.h"

namespace msim {

// Strict numeric flag parsing (support/strings.h ParseInt): rejects trailing
// junk ("100abc"), bare garbage and values that overflow, instead of the
// strtoull behaviour of silently yielding 0 or saturating. A rejected value
// is reported on stderr.
inline bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out) {
  const auto value = ParseInt(text);
  if (!value || *value < 0) {
    std::fprintf(stderr, "invalid value for %s: '%s' (want a non-negative integer)\n", flag,
                 text.c_str());
    return false;
  }
  *out = static_cast<uint64_t>(*value);
  return true;
}

// --storage MODE: mram | dram-cached | dram-uncached.
inline bool ParseStorageMode(const std::string& mode, MroutineStorage* out) {
  if (mode == "mram") {
    *out = MroutineStorage::kMram;
  } else if (mode == "dram-cached") {
    *out = MroutineStorage::kDramCached;
  } else if (mode == "dram-uncached") {
    *out = MroutineStorage::kDramUncached;
  } else {
    return false;
  }
  return true;
}

inline Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace msim

#endif  // MSIM_TOOLS_CLI_UTIL_H_
