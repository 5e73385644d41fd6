#include "workloads.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "asm/assembler.h"
#include "cpu/creg.h"
#include "ext/cpt.h"
#include "ext/privilege.h"
#include "ext/stm.h"
#include "ext/uli.h"
#include "fault/fault.h"
#include "guests.h"
#include "metal/system.h"
#include "snap/snapshot.h"
#include "spans.h"

namespace perfbench {

using msim::ArchOutcome;
using msim::CoreConfig;
using msim::MetalSystem;
using msim::Program;
using msim::TrialOutcome;

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 20) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    ++failed_;
  }
}

Counters Counters::Read(const msim::Core& core) {
  const msim::MetricRegistry& m = core.metrics();
  Counters c;
  c.instret = m.Value("core", "instret");
  c.metal_instret = m.Value("core", "metal_instret");
  c.cycles = m.Value("core", "cycles");
  c.sb_instructions = m.Value("superblock", "instructions");
  c.sb_builds = m.Value("superblock", "builds");
  c.sb_invalidations = m.Value("superblock", "invalidations");
  c.sb_mem_fast_hits = m.Value("superblock", "mem_fast_hits");
  c.sb_mem_slow_exits = m.Value("superblock", "mem_slow_exits");
  c.predecode_hits = m.Value("predecode", "hits") + m.Value("predecode", "verified_hits");
  c.predecode_misses = m.Value("predecode", "misses");
  c.menters = m.Value("core", "menters");
  c.intercepts = m.Value("core", "intercepts");
  c.exceptions = m.Value("core", "exceptions");
  c.interrupts = m.Value("core", "interrupts");
  c.icache_hits = m.Value("icache", "hits");
  c.icache_misses = m.Value("icache", "misses");
  c.dcache_hits = m.Value("dcache", "hits");
  c.dcache_misses = m.Value("dcache", "misses");
  c.mram_code_fetches = m.Value("mram", "code_fetches");
  c.mram_data_ops = m.Value("mram", "data_reads") + m.Value("mram", "data_writes");
  c.tlb_hits = m.Value("tlb", "hits");
  c.tlb_misses = m.Value("tlb", "misses");
  return c;
}

void Counters::AddDelta(const Counters& before, const Counters& after) {
  auto add = [&](uint64_t Counters::*field) { this->*field += after.*field - before.*field; };
  for (uint64_t Counters::*field :
       {&Counters::instret, &Counters::metal_instret, &Counters::cycles,
        &Counters::sb_instructions, &Counters::sb_builds, &Counters::sb_invalidations,
        &Counters::sb_mem_fast_hits, &Counters::sb_mem_slow_exits, &Counters::predecode_hits,
        &Counters::predecode_misses, &Counters::menters, &Counters::intercepts,
        &Counters::exceptions, &Counters::interrupts, &Counters::icache_hits,
        &Counters::icache_misses, &Counters::dcache_hits, &Counters::dcache_misses,
        &Counters::mram_code_fetches, &Counters::mram_data_ops, &Counters::tlb_hits,
        &Counters::tlb_misses}) {
    add(field);
  }
}

namespace {

constexpr uint64_t kMaxCycles = 50'000'000;

[[noreturn]] void Die(const std::string& what, const msim::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(1);
}

void OrDie(const msim::Status& status, const std::string& what) {
  if (!status.ok()) {
    Die(what, status);
  }
}

template <typename T>
T OrDie(msim::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    Die(what, result.status());
  }
  return std::move(result).value();
}

// --- calls into the simulator's modules, one span each -------------------

Program AssembleGuest(const std::string& source) {
  ScopedSpan span("asm.Assemble");
  return OrDie(msim::Assemble(source), "assemble");
}

std::unique_ptr<MetalSystem> NewSystem(const CoreConfig& config) {
  ScopedSpan span("metal.MetalSystem");
  return std::make_unique<MetalSystem>(config);
}

void LoadAndBoot(MetalSystem& system, const Program& program) {
  {
    ScopedSpan span("metal.LoadProgram");
    OrDie(system.LoadProgram(program), "load program");
  }
  ScopedSpan span("metal.Boot");
  OrDie(system.Boot(), "boot");
}

// Core::Run until halt, a fatal error or `until_cycle` (absolute).
void RunUntil(msim::Core& core, uint64_t until_cycle) {
  ScopedSpan span("cpu.Run");
  while (!core.halted() && !core.has_fatal() && core.cycle() < until_cycle) {
    core.Run(until_cycle - core.cycle());
  }
}

uint64_t Digest(const msim::Core& core) {
  ScopedSpan span("snap.StateDigest");
  return core.StateDigest(/*include_dram=*/true);
}

std::vector<uint8_t> Save(const msim::Core& core) {
  ScopedSpan span("snap.SaveSnapshot");
  return msim::SaveSnapshot(core);
}

void Restore(msim::Core& core, const std::vector<uint8_t>& image) {
  ScopedSpan span("snap.RestoreSnapshot");
  OrDie(msim::RestoreSnapshot(core, image), "restore snapshot");
}

// --- job bookkeeping ------------------------------------------------------

uint64_t NextJobId() {
  static uint64_t next = 0;
  Spans().set_job(++next);
  return next;
}

// Times one job and gives it a root span and a job id.
class JobScope {
 public:
  JobScope(RoundTally& tally, const char* name)
      : tally_(tally), id_(NextJobId()), span_(name), start_(Clock::now()) {}
  ~JobScope() { tally_.job_s.push_back(SecondsBetween(start_, Clock::now())); }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  RoundTally& tally_;
  uint64_t id_;
  ScopedSpan span_;
  Clock::time_point start_;
};

// Simulated work done by one core between construction and Stop().
class SimMeter {
 public:
  SimMeter(const msim::Core& core, bool traced)
      : core_(core), traced_(traced), instret_(core.stats().instret) {
    if (traced_) {
      before_ = Counters::Read(core_);
    }
  }
  void Stop(RoundTally& tally) const {
    tally.sim_instr += core_.stats().instret - instret_;
    if (traced_) {
      tally.counters.AddDelta(before_, Counters::Read(core_));
    }
  }

 private:
  const msim::Core& core_;
  bool traced_;
  uint64_t instret_;
  Counters before_;
};

// Halt code, cycles and instret of a guest run. Cycles and instret are
// pinned constants for guests whose control flow does not depend on the
// seed; for the others they must equal the first run's.
struct GuestResult {
  uint32_t exit_code = 0;
  uint64_t cycles = 0;
  uint64_t instret = 0;
};

struct Guest {
  const char* name = "";
  GuestSource source;
  GuestResult pinned;  // cycles == 0: not pinned
  Program program;
};

// The first run of each guest in the process; every later run, across
// set-up passes too, must repeat it.
class RunLedger {
 public:
  void Check(const Guest& guest, const msim::Core& core, Checks& checks) {
    const std::string label = guest.name;
    checks.Expect(core.halted() && !core.has_fatal(), label + " halts");
    checks.Equal<uint64_t>(core.exit_code(), guest.source.exit_code, label + " halt code");
    const GuestResult got{core.exit_code(), core.cycle(), core.stats().instret};
    if (guest.pinned.cycles != 0) {
      checks.Equal(got.cycles, guest.pinned.cycles, label + " cycles");
      checks.Equal(got.instret, guest.pinned.instret, label + " instret");
    }
    const auto [it, first] = first_.emplace(label, got);
    if (!first) {
      checks.Equal(got.cycles, it->second.cycles, label + " cycles repeat");
      checks.Equal(got.instret, it->second.instret, label + " instret repeat");
    }
  }

  void AddStats(const Guest& guest, std::vector<Workload::SimStat>& out) const {
    const auto it = first_.find(guest.name);
    const GuestResult result = it == first_.end() ? GuestResult{} : it->second;
    const bool pinned = guest.pinned.cycles != 0;
    const std::string name = guest.name;
    out.push_back({name + ".cycles", result.cycles, pinned});
    out.push_back({name + ".instret", result.instret, pinned});
    out.push_back({name + ".exit_code", result.exit_code, false});
  }

 private:
  std::map<std::string, GuestResult> first_;
};

// --- native_loops -----------------------------------------------------------

class NativeLoops : public Workload {
 public:
  explicit NativeLoops(uint64_t seed) : seed_(seed) {}

  void Setup(Checks& /*checks*/) override {
    SeedStream seeds(seed_);
    guests_.clear();
    guests_.push_back({"alu", AluLoopGuest(seeds), {0, 1000027, 800008}, {}});
    guests_.push_back({"copy", CopyLoopGuest(seeds), {0, 452476, 328967}, {}});
    guests_.push_back({"stride", StrideSweepGuest(seeds), {0, 262198, 81937}, {}});
    for (Guest& guest : guests_) {
      guest.program = AssembleGuest(guest.source.source);
      auto system = NewSystem(config_);
      LoadAndBoot(*system, guest.program);
    }
  }

  void Round(uint64_t /*unit*/, bool traced, RoundTally& tally, Checks& checks) override {
    for (Guest& guest : guests_) {
      JobScope job(tally, "bench.job");
      auto system = NewSystem(config_);
      LoadAndBoot(*system, guest.program);
      msim::Core& core = system->core();
      SimMeter meter(core, traced);
      RunUntil(core, kMaxCycles);
      meter.Stop(tally);
      ledger_.Check(guest, core, checks);
    }
  }

  std::vector<SimStat> SimStats() const override {
    std::vector<SimStat> out;
    for (const Guest& guest : guests_) {
      ledger_.AddStats(guest, out);
    }
    return out;
  }

 private:
  uint64_t seed_;
  CoreConfig config_;
  std::vector<Guest> guests_;
  RunLedger ledger_;
};

// --- metal_guests -----------------------------------------------------------

class MetalGuests : public Workload {
 public:
  explicit MetalGuests(uint64_t seed) : seed_(seed) {}

  void Setup(Checks& /*checks*/) override {
    SeedStream seeds(seed_);
    guests_.clear();
    guests_.push_back({"privilege", SyscallGuest(seeds), {0, 124042, 108005}, {}});
    guests_.push_back({"cpt", PageStrideGuest(seeds), {0, 154705, 82810}, {}});
    guests_.push_back({"stm", StmGuest(), {}, {}});
    guests_.push_back({"uli", TimerUliGuest(seeds), {0, 482362, 365920}, {}});
    stm_schedule_seed_ = seeds.Next64();
    for (size_t i = 0; i < guests_.size(); ++i) {
      guests_[i].program = AssembleGuest(guests_[i].source.source);
      auto system = Boot(i);
    }
  }

  void Round(uint64_t /*unit*/, bool traced, RoundTally& tally, Checks& checks) override {
    for (size_t i = 0; i < guests_.size(); ++i) {
      JobScope job(tally, "bench.job");
      auto system = Boot(i);
      msim::Core& core = system->core();
      SimMeter meter(core, traced);
      if (i == kStm) {
        RunStm(core);
      } else {
        RunUntil(core, kMaxCycles);
      }
      meter.Stop(tally);
      ledger_.Check(guests_[i], core, checks);
      CheckExtension(i, *system, checks);
    }
  }

  std::vector<SimStat> SimStats() const override {
    std::vector<SimStat> out;
    for (const Guest& guest : guests_) {
      ledger_.AddStats(guest, out);
    }
    out.push_back({"stm.aborts", stm_aborts_, false});
    out.push_back({"uli.ticks", uli_ticks_, true});
    return out;
  }

 private:
  static constexpr size_t kPrivilege = 0;
  static constexpr size_t kCpt = 1;
  static constexpr size_t kStm = 2;
  static constexpr size_t kUli = 3;
  static constexpr uint32_t kTableRegion = 0x00400000;
  static constexpr uint32_t kTableRegionSize = 0x00100000;
  static constexpr uint64_t kStmChunk = 400;
  static constexpr uint64_t kStmCommitEvery = 7;
  static constexpr uint32_t kUliTicks = 482;

  // A fresh machine for guest `index`: extension installed, program loaded,
  // booted, and the host-side extension state (page tables, interrupt
  // enables) in place.
  std::unique_ptr<MetalSystem> Boot(size_t index) {
    const Guest& guest = guests_[index];
    auto system = NewSystem(config_);
    {
      ScopedSpan span("ext.Install");
      switch (index) {
        case kPrivilege:
          OrDie(msim::PrivilegeExtension::Install(*system,
                                                  guest.program.symbols.at("syscall_table"), 1,
                                                  guest.program.symbols.at("kfault")),
                "install privilege");
          break;
        case kCpt:
          OrDie(msim::CustomPageTable::Install(*system, 0), "install cpt");
          break;
        case kStm:
          OrDie(msim::StmExtension::Install(*system, kStmClock, kStmVtbl, kStmVtblWords),
                "install stm");
          break;
        case kUli:
          OrDie(msim::UliExtension::Install(*system), "install uli");
          break;
      }
    }
    LoadAndBoot(*system, guest.program);
    msim::Core& core = system->core();
    ScopedSpan span("ext.Configure");
    if (index == kCpt) {
      msim::CustomPageTable tables(core, kTableRegion, kTableRegionSize);
      const uint32_t root = OrDie(tables.CreateAddressSpace(), "cpt root");
      for (uint32_t page = 0; page < 16; ++page) {  // program text
        OrDie(tables.Map(root, page * 4096, page * 4096, msim::kPteR | msim::kPteW | msim::kPteX),
              "map text");
      }
      for (uint32_t page = 0; page < kPageStridePages; ++page) {
        const uint32_t addr = kPageStrideBase + page * 4096;
        OrDie(tables.Map(root, addr, addr, msim::kPteR | msim::kPteW), "map data");
      }
      OrDie(tables.Activate(root), "activate");
      core.metal().WriteCreg(msim::kCrPgEnable, 1);
    } else if (index == kUli) {
      core.metal().WriteCreg(msim::kCrIenable, 0xFFFFFFFF);
    }
    return system;
  }

  // Runs the STM guest in chunks; after every kStmCommitEvery-th chunk a
  // simulated remote core commits to a seeded word of the shared array. It
  // writes the word's current value, so the final array does not depend on
  // the schedule, but a transaction that has read the word aborts and
  // retries. A fixed commit rate keeps the abort count, and so the simulated
  // work, close to the same for every seed.
  void RunStm(msim::Core& core) {
    SeedStream schedule(stm_schedule_seed_);
    for (uint64_t chunk = 1; !core.halted() && !core.has_fatal() && core.cycle() < kMaxCycles;
         ++chunk) {
      RunUntil(core, core.cycle() + kStmChunk);
      if (core.halted() || chunk % kStmCommitEvery != 0) {
        continue;
      }
      ScopedSpan span("ext.InjectRemoteCommit");
      const uint32_t addr = kStmShared + 4 * static_cast<uint32_t>(schedule.Next64() % kStmWords);
      const uint32_t value = core.bus().dram().Read32(addr).value_or(0);
      OrDie(msim::StmExtension::InjectRemoteCommit(core, kStmClock, kStmVtbl, kStmVtblWords,
                                                   addr, value),
            "inject remote commit");
    }
  }

  void CheckExtension(size_t index, MetalSystem& system, Checks& checks) {
    msim::Core& core = system.core();
    if (index == kStm) {
      checks.Equal<uint64_t>(OrDie(msim::StmExtension::Commits(core), "stm commits"),
                             kStmTransactions, "stm commits");
      for (uint32_t word = 0; word < kStmWords; ++word) {
        checks.Equal<uint64_t>(core.bus().dram().Read32(kStmShared + 4 * word).value_or(0),
                               kStmTransactions, "stm shared word");
      }
      stm_aborts_ = OrDie(msim::StmExtension::Aborts(core), "stm aborts");
    } else if (index == kUli) {
      const uint32_t ticks =
          core.bus().dram().Read32(OrDie(system.Symbol("ticks"), "ticks symbol")).value_or(0);
      checks.Equal<uint64_t>(OrDie(msim::UliExtension::UserDeliveries(core), "uli deliveries"),
                             ticks, "uli user deliveries");
      checks.Equal<uint64_t>(ticks, kUliTicks, "uli ticks");
      uli_ticks_ = ticks;
    }
  }

  uint64_t seed_;
  CoreConfig config_;
  std::vector<Guest> guests_;
  RunLedger ledger_;
  uint64_t stm_schedule_seed_ = 0;
  uint64_t stm_aborts_ = 0;
  uint64_t uli_ticks_ = 0;
};

// --- guests -----------------------------------------------------------------

// native_loops and metal_guests in one round: every guest once, normal-mode
// guests first.
class Guests : public Workload {
 public:
  explicit Guests(uint64_t seed) : native_(seed), metal_(seed) {}

  void Setup(Checks& checks) override {
    native_.Setup(checks);
    metal_.Setup(checks);
  }

  void Round(uint64_t unit, bool traced, RoundTally& tally, Checks& checks) override {
    native_.Round(unit, traced, tally, checks);
    metal_.Round(unit, traced, tally, checks);
  }

  std::vector<SimStat> SimStats() const override {
    std::vector<SimStat> out = native_.SimStats();
    for (SimStat& stat : metal_.SimStats()) {
      out.push_back(std::move(stat));
    }
    return out;
  }

 private:
  NativeLoops native_;
  MetalGuests metal_;
};

// --- checkpoint_resume ------------------------------------------------------

class CheckpointResume : public Workload {
 public:
  explicit CheckpointResume(uint64_t seed) : seed_(seed) {}

  void Setup(Checks& /*checks*/) override {
    SeedStream seeds(seed_);
    guest_ = {"dense", DenseFillGuest(seeds, fill_), {0, 1998953, 1245214}, {}};
    guest_.program = AssembleGuest(guest_.source.source);
    auto system = NewSystem(config_);
    LoadAndBoot(*system, guest_.program);
  }

  // The uninterrupted reference: one plain run to halt.
  void Verify(Checks& checks) override {
    auto system = NewSystem(config_);
    LoadAndBoot(*system, guest_.program);
    RunUntil(system->core(), kMaxCycles);
    ledger_.Check(guest_, system->core(), checks);
    reference_digest_ = Digest(system->core());
    total_cycles_ = system->core().cycle();
    const msim::PhysicalMemory& dram = system->core().bus().dram();
    uint32_t wrong = 0;
    for (uint32_t i = 0; i < DenseFill::kWords; ++i) {
      wrong += dram.Read32(DenseFill::kBase + 4 * i) != fill_.WordAt(i) ? 1 : 0;
    }
    checks.Equal<uint64_t>(wrong, 0, "dense buffer words that differ from the host model");
  }

  void Round(uint64_t /*unit*/, bool traced, RoundTally& tally, Checks& checks) override {
    std::vector<std::vector<uint8_t>> images;
    {
      JobScope job(tally, "bench.job");
      auto system = NewSystem(config_);
      LoadAndBoot(*system, guest_.program);
      msim::Core& core = system->core();
      SimMeter meter(core, traced);
      for (uint32_t k = 1; k <= kCheckpoints; ++k) {
        RunUntil(core, total_cycles_ * k / (kCheckpoints + 1));
        images.push_back(Save(core));
        tally.snapshot_bytes += images.back().size();
      }
      RunUntil(core, kMaxCycles);
      meter.Stop(tally);
      ledger_.Check(guest_, core, checks);
      checks.Equal(Digest(core), reference_digest_, "checkpointed run digest");
    }
    for (const std::vector<uint8_t>& image : images) {
      JobScope job(tally, "bench.job");
      auto system = NewSystem(config_);
      msim::Core& core = system->core();
      Restore(core, image);
      SimMeter meter(core, traced);
      RunUntil(core, kMaxCycles);
      meter.Stop(tally);
      ledger_.Check(guest_, core, checks);
      checks.Equal(Digest(core), reference_digest_, "resumed run digest");
    }
  }

  std::vector<SimStat> SimStats() const override {
    std::vector<SimStat> out;
    ledger_.AddStats(guest_, out);
    out.push_back({"dense.digest", reference_digest_, false});
    return out;
  }

 private:
  static constexpr uint32_t kCheckpoints = 6;

  uint64_t seed_;
  CoreConfig config_;
  Guest guest_;
  RunLedger ledger_;
  DenseFill fill_;
  uint64_t reference_digest_ = 0;
  uint64_t total_cycles_ = 0;
};

// --- fault_campaign ---------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perfbench: cannot read %s (run from the repository root)\n",
                 path.c_str());
    std::exit(1);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool SameOutcome(const ArchOutcome& a, const ArchOutcome& b) {
  return a.halted == b.halted && a.fatal == b.fatal && a.exit_code == b.exit_code &&
         a.cycles == b.cycles && a.instret == b.instret && a.machine_checks == b.machine_checks &&
         a.parity_errors == b.parity_errors && a.words_scrubbed == b.words_scrubbed &&
         a.console == b.console && a.fatal_message == b.fatal_message &&
         a.arch_digest == b.arch_digest && a.state_digest == b.state_digest;
}

// CampaignEngine over the bench_campaign machine: a counter accelerator in
// MRAM with scrub-and-retry recovery, MRAM parity on, faults in MRAM code and
// data, trials forked from golden snapshots.
class FaultCampaign : public Workload {
 public:
  explicit FaultCampaign(uint64_t seed) : seed_(seed) { config_.mram_parity = true; }

  void Setup(Checks& checks) override {
    {
      ScopedSpan span("bench.ReadSources");
      guest_source_ = ReadFile("tests/data/campaign_guest.s");
      mcode_source_ = ReadFile("tests/data/campaign_mcode.s");
    }
    msim::CampaignOptions options;
    options.targets = {msim::FaultTarget::kMramData, msim::FaultTarget::kMramCode};
    options.trials = kPlanTrials;
    options.seed = seed_;
    options.max_location = 8;  // the live MRAM words, as in bench_campaign
    engine_ = std::make_unique<msim::CampaignEngine>(
        config_, [this](MetalSystem& system) { return ConfigureSystem(system); }, options);
    {
      ScopedSpan span("campaign.Prepare");
      OrDie(engine_->Prepare(), "campaign prepare");
    }
    {
      ScopedSpan span("campaign.PlanTrials");
      plans_ = engine_->PlanTrials();
    }
    checks.Equal<uint64_t>(plans_.size(), kPlanTrials, "planned trials");
    if (seen_.size() != plans_.size()) {  // kept across set-up passes
      seen_.assign(plans_.size(), Seen{});
    }
  }

  // Golden-run checks, and the engine's fork points rebuilt from public calls
  // (its own are private): the snapshot each traced rebuilt trial restores,
  // and the instret there, so that a forked trial's simulated work excludes
  // the restored prefix. Untimed, so set-up counts only what the engine does.
  void Verify(Checks& checks) override {
    const ArchOutcome& golden = engine_->golden();
    checks.Expect(golden.halted && !golden.fatal, "golden halts");
    checks.Equal<uint64_t>(golden.exit_code, 60, "golden halt code");
    checks.Equal<uint64_t>(golden.cycles, kGoldenCycles, "golden cycles");
    checks.Equal<uint64_t>(golden.instret, kGoldenInstret, "golden instret");
    const uint32_t snapshots = engine_->options().snapshots;
    auto system = BuildSystem();
    msim::Core& core = system->core();
    forks_.clear();
    fork_instret_.clear();
    for (uint32_t j = 1; j <= snapshots; ++j) {
      const uint64_t mark = golden.cycles * j / (snapshots + 1);
      if (mark == 0 || mark >= golden.cycles || (!forks_.empty() && mark <= forks_.back().first)) {
        continue;
      }
      RunUntil(core, mark);
      checks.Equal(core.cycle(), mark, "fork point cycle");
      fork_instret_[mark] = core.stats().instret;
      forks_.emplace_back(mark, Save(core));
    }
  }

  void Round(uint64_t unit, bool traced, RoundTally& tally, Checks& checks) override {
    for (uint64_t i = 0; i < kRoundTrials; ++i) {
      const size_t index = (unit * kRoundTrials + i) % plans_.size();
      if (traced) {
        RebuiltTrial(index, tally, checks);
      } else {
        EngineTrial(index, tally, checks);
      }
    }
  }

  void Finish(Checks& checks) override {
    std::array<uint64_t, msim::kNumTrialOutcomes> counts{};
    uint64_t seen = 0;
    for (const Seen& entry : seen_) {
      if (entry.seen) {
        ++counts[static_cast<size_t>(entry.outcome)];
        ++seen;
      }
    }
    checks.Equal<uint64_t>(seen, plans_.size(), "every planned trial ran");
    checks.Equal<uint64_t>(counts[static_cast<size_t>(TrialOutcome::kSdc)], 0,
                           "protected campaign SDCs");
    checks.Expect(counts[static_cast<size_t>(TrialOutcome::kDetectedRecovered)] > 0,
                  "protected campaign recovers");
    plan_counts_ = counts;
  }

  uint64_t min_jobs() const override { return 1000; }
  uint64_t min_units() const override { return kPlanTrials / kRoundTrials; }

  std::vector<SimStat> SimStats() const override {
    std::vector<SimStat> out;
    out.push_back({"golden.cycles", engine_->golden().cycles, true});
    out.push_back({"golden.instret", engine_->golden().instret, true});
    out.push_back({"golden.state_digest", engine_->golden().state_digest, true});
    for (size_t i = 0; i < msim::kNumTrialOutcomes; ++i) {
      out.push_back({std::string("plan.") + msim::TrialOutcomeName(static_cast<TrialOutcome>(i)),
                     plan_counts_[i], false});
    }
    return out;
  }

 private:
  static constexpr uint64_t kPlanTrials = 200;
  static constexpr uint64_t kRoundTrials = 20;
  static constexpr uint64_t kGoldenCycles = 240;
  static constexpr uint64_t kGoldenInstret = 137;

  struct Seen {
    bool seen = false;
    TrialOutcome outcome = TrialOutcome::kMasked;
    ArchOutcome result;
  };

  // The per-trial machine set-up, as mcamp does it: mcode, machine checks
  // delegated to the recovery mroutine, and the guest assembled from source.
  msim::Status ConfigureSystem(MetalSystem& system) const {
    {
      ScopedSpan span("metal.Configure");
      system.AddMcode(mcode_source_);
      system.DelegateException(msim::ExcCause::kMachineCheck, 2);
    }
    const Program program = AssembleGuest(guest_source_);
    ScopedSpan span("metal.LoadProgram");
    return system.LoadProgram(program);
  }

  std::unique_ptr<MetalSystem> BuildSystem() const {
    auto system = NewSystem(config_);
    OrDie(ConfigureSystem(*system), "configure campaign system");
    ScopedSpan span("metal.Boot");
    OrDie(system->Boot(), "boot");
    return system;
  }

  void Record(size_t index, TrialOutcome outcome, const ArchOutcome& result, Checks& checks,
              const char* what) {
    Seen& entry = seen_[index];
    if (!entry.seen) {
      entry = Seen{true, outcome, result};
      return;
    }
    checks.Expect(outcome == entry.outcome, std::string(what) + " classification of trial " +
                                                std::to_string(index) + " repeats");
    checks.Expect(SameOutcome(result, entry.result),
                  std::string(what) + " outcome of trial " + std::to_string(index) + " repeats");
  }

  void EngineTrial(size_t index, RoundTally& tally, Checks& checks) {
    msim::TrialRecord record;
    {
      JobScope job(tally, "campaign.trial");
      record = OrDie(engine_->RunTrial(plans_[index]), "run trial");
    }
    const uint64_t prefix = record.forked ? fork_instret_.at(record.fork_cycle) : 0;
    tally.sim_instr += record.result.instret - prefix;
    ++tally.trials;
    tally.forked += record.forked ? 1 : 0;
    Record(index, record.outcome, record.result, checks, "RunTrial");
  }

  // One trial rebuilt from public calls, with a span per call. Its outcome
  // must equal RunTrial's for the same planned fault.
  void RebuiltTrial(size_t index, RoundTally& tally, Checks& checks) {
    const msim::TrialPlan& plan = plans_[index];
    TrialOutcome outcome;
    ArchOutcome result;
    {
      JobScope job(tally, "campaign.trial");
      auto system = BuildSystem();
      msim::Core& core = system->core();
      msim::FaultEngine faults(0);
      faults.AddSpec(plan.spec);
      core.SetFaultEngine(&faults);
      const std::vector<uint8_t>* image = nullptr;
      for (const auto& [cycle, bytes] : forks_) {
        if (cycle <= plan.spec.cycle) {
          image = &bytes;
        }
      }
      if (image != nullptr) {
        Restore(core, *image);
        ++tally.forked;
      }
      SimMeter meter(core, /*traced=*/true);
      RunUntil(core, engine_->trial_budget());
      meter.Stop(tally);
      result = Capture(core);
      ScopedSpan span("campaign.ClassifyTrial");
      outcome = msim::ClassifyTrial(engine_->golden(), result);
      core.SetFaultEngine(nullptr);
    }
    ++tally.trials;
    Record(index, outcome, result, checks, "rebuilt trial");
  }

  // CaptureArchOutcome from its public parts, so that the DRAM-inclusive
  // digest gets its own span.
  static ArchOutcome Capture(msim::Core& core) {
    ScopedSpan span("campaign.CaptureArchOutcome");
    ArchOutcome outcome;
    outcome.halted = core.halted();
    outcome.fatal = core.has_fatal();
    outcome.exit_code = core.exit_code();
    outcome.cycles = core.cycle();
    outcome.instret = core.stats().instret;
    outcome.machine_checks = core.stats().machine_checks;
    outcome.parity_errors = core.mram().stats().parity_errors;
    outcome.words_scrubbed = core.mram().stats().words_scrubbed;
    outcome.console = core.console().output();
    outcome.fatal_message = core.fatal_status().message();
    outcome.arch_digest = msim::ArchitecturalDigest(core);
    outcome.state_digest = Digest(core);
    return outcome;
  }

  uint64_t seed_;
  CoreConfig config_;
  std::string guest_source_;
  std::string mcode_source_;
  std::unique_ptr<msim::CampaignEngine> engine_;
  std::vector<msim::TrialPlan> plans_;
  std::vector<Seen> seen_;
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> forks_;
  std::map<uint64_t, uint64_t> fork_instret_;
  std::array<uint64_t, msim::kNumTrialOutcomes> plan_counts_{};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "guests") {
    return std::make_unique<Guests>(seed);
  }
  if (name == "native_loops") {
    return std::make_unique<NativeLoops>(seed);
  }
  if (name == "metal_guests") {
    return std::make_unique<MetalGuests>(seed);
  }
  if (name == "fault_campaign") {
    return std::make_unique<FaultCampaign>(seed);
  }
  if (name == "checkpoint_resume") {
    return std::make_unique<CheckpointResume>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
