// Shared helpers for the test suite.
#ifndef MSIM_TESTS_SIM_TEST_UTIL_H_
#define MSIM_TESTS_SIM_TEST_UTIL_H_

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "cpu/core.h"
#include "metal/system.h"
#include "trace/trace.h"

namespace msim {

// Asserts the status/result is ok, printing the message otherwise.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const auto& status_ = (expr);                                \
    ASSERT_TRUE(status_.ok()) << status_.ToString();             \
  } while (0)
#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const auto& status_ = (expr);                                \
    EXPECT_TRUE(status_.ok()) << status_.ToString();             \
  } while (0)

// Assembles or fails the test.
inline Program MustAssemble(std::string_view source,
                            const AssembleOptions& options = AssembleOptions{}) {
  auto program = Assemble(source, options);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) {
    return Program{};
  }
  return std::move(program).value();
}

// Assembles mcode at the MRAM base and loads it directly (low-level tests
// that do not use MetalSystem).
inline void MustLoadMcodeRaw(Core& core, std::string_view source) {
  AssembleOptions options;
  options.text_base = kMramCodeBase;
  options.data_base = 0;
  const Program program = MustAssemble(source, options);
  for (size_t i = 0; i + 4 <= program.text.bytes.size(); i += 4) {
    uint32_t word = 0;
    for (int b = 0; b < 4; ++b) {
      word |= static_cast<uint32_t>(program.text.bytes[i + b]) << (8 * b);
    }
    ASSERT_TRUE(core.mram().WriteCodeWord(static_cast<uint32_t>(i), word));
  }
  for (size_t i = 0; i < program.data.bytes.size(); i += 4) {
    uint32_t word = 0;
    for (size_t b = 0; b < 4 && i + b < program.data.bytes.size(); ++b) {
      word |= static_cast<uint32_t>(program.data.bytes[i + b]) << (8 * b);
    }
    ASSERT_TRUE(core.mram().WriteData32(static_cast<uint32_t>(i), word));
  }
  for (const auto& [entry, addr] : program.metal_entries) {
    core.metal().SetEntryAddress(entry, addr);
  }
}

// Runs and expects a clean halt with the given exit code.
inline RunResult MustHalt(Core& core, uint32_t want_exit, uint64_t max_cycles = 2'000'000) {
  const RunResult result = core.Run(max_cycles);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  EXPECT_EQ(result.exit_code, want_exit);
  return result;
}

inline RunResult MustHalt(MetalSystem& system, uint32_t want_exit,
                          uint64_t max_cycles = 2'000'000) {
  const RunResult result = system.Run(max_cycles);
  EXPECT_EQ(result.reason, RunResult::Reason::kHalted) << result.fatal_message;
  EXPECT_EQ(result.exit_code, want_exit);
  return result;
}

// A trace sink that keeps the retired-instruction stream (the kRetire
// events, oldest first) of the core it is attached to.
constexpr size_t kRetireRingCapacity = size_t{1} << 20;
inline RingBufferSink RetireRing() {
  return RingBufferSink(kRetireRingCapacity, KindBit(TraceEventKind::kRetire));
}

// Expects two retire streams to match event for event (cycle, pc, raw word
// and Metal mode); only the first difference is reported.
inline void ExpectSameRetires(const std::vector<TraceEvent>& a,
                              const std::vector<TraceEvent>& b) {
  ASSERT_LT(a.size(), kRetireRingCapacity) << "the retire ring may have wrapped";
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const bool same = a[i].cycle == b[i].cycle && a[i].pc == b[i].pc &&
                      a[i].arg0 == b[i].arg0 && a[i].metal == b[i].metal;
    EXPECT_TRUE(same) << "retire " << i << ": cycle " << a[i].cycle << " pc 0x" << std::hex
                      << a[i].pc << " raw 0x" << a[i].arg0 << " vs cycle " << std::dec
                      << b[i].cycle << " pc 0x" << std::hex << b[i].pc << " raw 0x"
                      << b[i].arg0;
    if (!same) {
      return;
    }
  }
}

// Runs `command` through the shell and returns its exit status (-1 when it
// did not exit normally); what it wrote to stderr lands in *err.
inline int RunCapturingStderr(const std::string& command, std::string* err) {
  const std::string path =
      testing::TempDir() + "/stderr-" + std::to_string(::getpid()) + ".txt";
  const int raw = std::system((command + " 2>" + path).c_str());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  *err = text.str();
  std::remove(path.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

}  // namespace msim

#endif  // MSIM_TESTS_SIM_TEST_UTIL_H_
