#include "cpu/core.h"

#include "fault/fault.h"
#include "snap/snapstream.h"
#include "support/log.h"

#include "support/strings.h"

namespace msim {
namespace {

uint32_t LowestSetBit(uint32_t mask) {
  for (uint32_t i = 0; i < 32; ++i) {
    if ((mask >> i) & 1u) {
      return i;
    }
  }
  return 0;
}

}  // namespace

Core::Core(const CoreConfig& config)
    : config_(config),
      bus_(config.dram_size),
      mmu_(config.tlb_entries),
      icache_(config.icache_lines, config.icache_line_size, config.cache_hit_latency,
              config.dram_latency),
      dcache_(config.dcache_lines, config.dcache_line_size, config.cache_hit_latency,
              config.dram_latency),
      predecode_(config.predecode_entries),
      superblocks_(config.fast_step) {
  // Device map; AttachDevice only fails on overlap, which is impossible here.
  (void)bus_.AttachDevice(InterruptController::kDefaultBase, &intc_);
  (void)bus_.AttachDevice(TimerDevice::kDefaultBase, &timer_);
  (void)bus_.AttachDevice(NicDevice::kDefaultBase, &nic_);
  (void)bus_.AttachDevice(ConsoleDevice::kDefaultBase, &console_);
  // Observability wiring: one tracer shared by the pipeline and all
  // instrumented components, and a registry enumerating every counter.
  icache_.SetTracer(&tracer_, TraceEventKind::kICacheMiss);
  dcache_.SetTracer(&tracer_, TraceEventKind::kDCacheMiss);
  mram_.SetTracer(&tracer_);
  mmu_.SetTracer(&tracer_);
  metal_.SetTracer(&tracer_);
  mram_.SetParityEnabled(config.mram_parity);
  RegisterMetrics();
  SetLogCycleSource(&cycle_);
}

Core::~Core() {
  // Another core constructed later may have taken over the log prefix.
  if (GetLogCycleSource() == &cycle_) {
    SetLogCycleSource(nullptr);
  }
}

void Core::RegisterMetrics() {
  metrics_.Register("core", "cycles", &stats_.cycles, "simulated clock cycles");
  metrics_.Register("core", "instret", &stats_.instret, "retired instructions");
  metrics_.Register("core", "metal_instret", &stats_.metal_instret,
                    "instructions retired in Metal mode");
  metrics_.Register("core", "metal_cycles", &stats_.metal_cycles,
                    "cycles with the committed mode == Metal");
  metrics_.Register("core", "menters", &stats_.menters, "committed menter transitions");
  metrics_.Register("core", "mexits", &stats_.mexits, "committed mexit transitions");
  metrics_.Register("core", "fast_replacements", &stats_.fast_replacements,
                    "decode-stage menter/mexit replacements");
  metrics_.Register("core", "exceptions", &stats_.exceptions, "exceptions delivered");
  metrics_.Register("core", "interrupts", &stats_.interrupts, "interrupts delivered");
  metrics_.Register("core", "intercepts", &stats_.intercepts, "instructions intercepted");
  metrics_.Register("core", "control_flushes", &stats_.control_flushes,
                    "pipeline flushes from taken control transfers");
  metrics_.Register("core", "load_use_stalls", &stats_.load_use_stalls,
                    "1-cycle load-use bubbles");
  metrics_.Register("core", "machine_checks", &stats_.machine_checks,
                    "machine checks raised (delegated or fatal)");
  metrics_.Register("core", "watchdog_fires", &stats_.watchdog_fires,
                    "Metal-mode watchdog expirations");
  icache_.RegisterMetrics(metrics_, "icache");
  dcache_.RegisterMetrics(metrics_, "dcache");
  mmu_.tlb().RegisterMetrics(metrics_);
  mram_.RegisterMetrics(metrics_);
  predecode_.RegisterMetrics(metrics_);
  superblocks_.RegisterMetrics(metrics_);
  metal_.RegisterMetrics(metrics_);
  metrics_.RegisterFn("nic", "packets_delivered",
                      [this] { return nic_.packets_delivered(); },
                      "packets handed to the rx queue");
  metrics_.RegisterFn("console", "bytes_written",
                      [this] { return static_cast<uint64_t>(console_.output().size()); },
                      "bytes written to the console device");
}

void Core::SetTraceSink(TraceSink* sink) {
  if (sink == nullptr) {
    tracer_.Detach();
  } else {
    tracer_.Attach(sink, &cycle_);
  }
}

Status Core::LoadProgram(const Program& program) {
  MSIM_RETURN_IF_ERROR(bus_.dram().LoadSection(program.text));
  MSIM_RETURN_IF_ERROR(bus_.dram().LoadSection(program.data));
  predecode_.InvalidateAll();
  superblocks_.InvalidateAll();
  SetPc(program.entry);
  return Status::Ok();
}

void Core::SetPc(uint32_t pc) {
  ResetFetch(pc);
  if_id_.valid = false;
  id_ex_.valid = false;
  ex_mem_.valid = false;
  inflight_mode_ops_ = 0;
  frontend_metal_ = arch_metal_;
}

void Core::ResetStats() {
  stats_ = CoreStats{};
  icache_.ResetStats();
  dcache_.ResetStats();
  mmu_.tlb().ResetStats();
  mram_.ResetStats();
  predecode_.ResetStats();
  superblocks_.ResetStats();
  metal_.ResetStats();
}

RunResult Core::Run(uint64_t max_cycles) {
  if (max_cycles == 0) {
    max_cycles = config_.default_max_cycles;
  }
  const uint64_t start_cycle = cycle_;
  while (!halted_ && !has_fatal_ && cycle_ - start_cycle < max_cycles) {
    if (config_.fast_step &&
        StepFast(max_cycles - (cycle_ - start_cycle)) != 0) {
      continue;
    }
    StepCycle();
  }
  RunResult result;
  result.cycles = cycle_ - start_cycle;
  result.instret = stats_.instret;
  result.exit_code = exit_code_;
  if (has_fatal_) {
    result.reason = RunResult::Reason::kFatal;
    result.fatal_message = fatal_.message();
  } else if (halted_) {
    result.reason = RunResult::Reason::kHalted;
  } else {
    result.reason = RunResult::Reason::kCycleLimit;
  }
  return result;
}

void Core::StepCycle() {
  if (halted_ || has_fatal_) {
    return;
  }
  ++cycle_;
  stats_.cycles = cycle_;
  if (fault_engine_ != nullptr) {
    fault_engine_->Tick(*this);
    if (has_fatal_) {
      return;
    }
  }
  if (arch_metal_) {
    ++stats_.metal_cycles;
    ++metal_resident_cycles_;
  } else {
    metal_resident_cycles_ = 0;
  }
  // Metal-mode watchdog (docs/robustness.md): mroutines are non-interruptible,
  // so a runaway mroutine would otherwise hang the machine. When the committed
  // mode stays Metal for more than the configured budget, raise a machine
  // check; the counter restarts so the recovery mroutine gets a fresh budget.
  if (config_.metal_watchdog_cycles != 0 &&
      metal_resident_cycles_ > config_.metal_watchdog_cycles) {
    ++stats_.watchdog_fires;
    metal_resident_cycles_ = 0;
    RaiseMachineCheck(McheckKind::kWatchdog, last_metal_entry_,
                      id_ex_.valid ? id_ex_.pc : fetch_pc_);
    if (has_fatal_) {
      return;
    }
  }
  bus_.TickDevices(cycle_, intc_);
  redirect_this_cycle_ = false;
  ex_load_this_cycle_ = false;
  StageMem();
  if (has_fatal_ || halted_) {
    return;
  }
  StageEx();
  if (has_fatal_ || halted_) {
    return;
  }
  StageId();
  StageIf();
}

// ---------------------------------------------------------------------------
// Hot-path stepping
// ---------------------------------------------------------------------------
//
// StepFast commits cycles of the exact StepCycle state machine by running
// superblock traces (cpu/superblock.h): non-Metal DRAM code with 1-cycle
// icache-hit fetches, no deliverable interrupt, no fault engine, and no
// device with a pending event. It enters only at a pipeline refill point —
// ID/EX, IF/ID and MEM empty, the fetch unit idle and the skid buffer empty,
// the state after a taken branch or a cold start — and returns to Core::Run,
// which continues with StepCycle, at a trace exit or at a refill point with
// no usable trace.
//
// Every condition that could make a cycle deviate from the trace's shape is
// checked BEFORE the cycle is committed, so a StepFast exit always lands on a
// state StepCycle can continue from, and N committed cycles leave the machine
// byte-identical (SaveState stream, including stale latch fields and every
// counter) to N StepCycle calls. Guard stability across a call: traces hold
// no Metal op and only DRAM memory ops, so interrupt enables, intercept and
// paging configuration and device state cannot change between the entry
// checks and the exit.

uint64_t Core::StepFast(uint64_t max_cycles, uint64_t max_retires) {
  if (!config_.fast_step || max_cycles == 0 || halted_ || has_fatal_) {
    return 0;
  }
  // Global eligibility. Anything here that could change inside a trace is
  // only changed by instruction kinds traces refuse (see TraceSafeInstr —
  // paging state, ASID, KEYPERM and TLB contents move only under Metal-only
  // instructions, so paging-enabled traces are sound: every translation is
  // re-probed per access, side-effect-free, and a miss or permission failure
  // exits to the per-cycle machinery, which then counts the miss and raises
  // the fault). bus_fault_armed_ is normally implied by fault_engine_, but
  // can survive it via checkpoint restore — the armed corruption must land
  // through the per-cycle MEM stage.
  if (fault_engine_ != nullptr || arch_metal_ || frontend_metal_ ||
      inflight_mode_ops_ != 0 || in_machine_check_ || bus_fault_armed_ ||
      metal_.AnyInterceptEnabled() || (intc_.pending() & metal_.ienable()) != 0 ||
      config_.cache_hit_latency != 1) {
    return 0;
  }
  // Refill point: nothing latched, MEM empty, fetch unit idle.
  if (id_ex_.valid || if_id_.valid || ex_mem_.valid || fetch_inflight_ || fetch_wait_ != 0 ||
      fetch_buffer_.valid) {
    return 0;
  }

  const uint64_t start = cycle_;
  // First cycle at which any device tick has an effect; cycles strictly below
  // it need no TickDevices call. Stable across traces: in-trace memory
  // traffic is DRAM-only (MMIO is excluded from every trace slot), so no
  // store can move a device's next event.
  const uint64_t horizon = bus_.NextDeviceEventCycle(cycle_);
  const uint32_t dram_size = bus_.dram().size();
  // Translation context. Stable across traces: PGENABLE/ASID/KEYPERM and the
  // TLB itself move only under Metal-only instructions, which no trace holds.
  const bool paged = metal_.paging_enabled();
  const uint16_t asid = metal_.asid();
  const uint32_t keyperm = metal_.keyperm();
  const SbAddrSpace sb_as{paged ? &mmu_ : nullptr, asid, keyperm};
  // Mutable: superblock store slots bump it mid-trace; reloaded after every
  // completed store so predecode probes always see the current generation.
  uint64_t gen = bus_.dram().write_generation();
  uint64_t retired = 0;

  // The fetch pc lives in a local; the pipeline latches are written at each
  // trace exit, byte-identical to what per-cycle stepping would have left.
  // cycle_ itself advances per cycle: kRetire events are stamped from it.
  uint32_t pc = fetch_pc_;
  bool last_redirect = false;
  uint64_t icache_hits = 0;
  uint64_t predecode_hits = 0;
  uint64_t dcache_hits = 0;
  uint64_t tlb_hits = 0;  // fetch + data translations, credited in one batch

  // Pending MEM-stage op shadow (superblock memory slots). A dispatch
  // latches the access here with wait = 1; the next committed cycle's
  // MEM-stage slice completes it. Mirrors ex_mem_: consuming only drops
  // `valid`/zeroes `wait`, the payload goes stale in place, so the shadow is
  // written back whenever any memory slot ran.
  MemOp sb_pend;
  bool sb_mem_any = false;
  // Load-use shadow for writeback: per-cycle, ex_load_this_cycle_ is true at
  // exit iff the LAST committed cycle dispatched a load. Recording the
  // dispatch cycle number makes that a single compare at exit instead of a
  // per-cycle reset.
  uint64_t load_dispatch_cycle = ~uint64_t{0};
  // A trace slot as the fetch unit delivers it (faultless, non-Metal).
  const auto slot_payload = [](const SbSlot& slot) {
    FetchSlot payload;
    payload.pc = slot.addr;
    payload.raw = slot.raw;
    payload.d = slot.d;
    return payload;
  };

  const uint32_t sb_icache_line = config_.icache_line_size;
  // Segment readiness sweep, run once per trace-segment entry. Every fetch
  // inside a segment must be a faultless, 1-cycle icache hit; neither the
  // icache (hits do not allocate, D-side traffic is DRAM-only) nor the
  // translation of the segment's pages (Metal-only mutations) can change
  // mid-trace, so one sweep stands in for the per-fetch Probe/Translate of
  // StageIf. Under paging, the pages must additionally be resident,
  // executable, key-readable and map at ONE common delta (the build-time
  // slot addresses are virtual; `*delta` rebases them).
  //
  // Returns the number of LEADING slots that are ready (0 rejects the
  // segment). The executor runs the segment truncated to that prefix —
  // byte-exact, because a truncated segment is indistinguishable from a
  // shorter trace: the fetch guard exits before the first cold word, and
  // StepCycle takes the same cycles to the same probe/translate failure.
  // Truncation matters: a trace's cold suffix (a fall-through path the guest
  // has not reached) must not keep its hot prefix — e.g. a loop body ending
  // in a strongly taken back edge — out of the executor.
  auto sb_seg_ready = [&](const SbSegment& seg, uint32_t* delta) -> uint32_t {
    uint32_t d = 0;
    uint32_t vlimit = seg.start + 4 * seg.len;
    if (paged) {
      bool have_d = false;
      for (uint32_t page = seg.start & ~4095u; page < vlimit; page += 4096u) {
        const uint32_t va = page < seg.start ? seg.start : page;
        const uint32_t vend = page + 4096u < vlimit ? page + 4096u : vlimit;
        const TranslateResult tr =
            mmu_.ProbeTranslate(va, AccessType::kFetch, asid, keyperm);
        if (!tr.ok || tr.paddr >= kMmioBase ||
            static_cast<uint64_t>(tr.paddr) + (vend - va) > dram_size ||
            (have_d && tr.paddr - va != d)) {
          // Miss, fault, out of DRAM, or a discontiguous mapping: the ready
          // prefix ends at this page boundary.
          vlimit = va;
          break;
        }
        d = tr.paddr - va;
        have_d = true;
      }
    }
    const uint32_t first = seg.start + d - ((seg.start + d) % sb_icache_line);
    for (uint32_t a = first; a < vlimit + d; a += sb_icache_line) {
      if (!icache_.Probe(a)) {
        const uint32_t va = a - d;
        vlimit = va < seg.start ? seg.start : va;
        break;
      }
    }
    *delta = d;
    return (vlimit - seg.start) / 4;
  };

// Superblock executor cycle fragments (see the executor block below). Each
// committed trace cycle performs exactly StepCycle's work for that cycle —
// same counters, same tracer events, same latch evolution — with the
// per-cycle decode, hazard checks and branch evaluation compiled away at
// build time.
//
// Pre-commit fetch check for the cycle's speculative fetch. The fetch slot
// is e + 2 + depth: at depth 1 (live load-use skid) the frontend runs one
// slot ahead, with the extra word parked in the skid buffer. Every exit
// taken here abandons the cycle with no side effects. The first guard stops
// the trace before a cycle that would shift a word past the executable run
// (slot e + 1) into EX: the executor could not run it, so StepCycle takes
// that cycle.
//
// When a pending STORE completes this cycle, MEM runs before IF: the fetch
// must observe the post-store bytes. The store may legally target the
// executing trace's own backing words — the merged word is compared against
// the slot raw, and any mismatch invalidates the trace and exits before the
// cycle commits. The bumped generation also forces the per-cycle fetch off
// the predecode-hit path, so sb_hit is forced false to count identically.
#define MSIM_SB_FETCH_OR_EXIT()                                          \
  do {                                                                   \
    const int32_t sb_f = e + 2 + depth;                                  \
    if (e + 1 >= exec_len || sb_f >= len) {                              \
      goto sb_exit;                                          \
    }                                                                    \
    const SbSlot& sb_fs = slots[sb_f];                                   \
    const uint32_t sb_fpa = sb_fs.addr + fdelta;                         \
    if (sb_pend.valid && sb_pend.is_store) {                             \
      const auto sb_word = bus_.dram().Read32(sb_fpa);                   \
      if (!sb_word) {                                                    \
        goto sb_exit_stale;                                              \
      }                                                                  \
      uint32_t sb_w = *sb_word;                                          \
      if ((sb_pend.paddr & ~3u) == sb_fpa) {                             \
        const uint32_t sb_sh = (sb_pend.paddr & 3u) * 8;                 \
        const uint32_t sb_m = sb_pend.kind == InstrKind::kSb ? 0xFFu     \
                              : sb_pend.kind == InstrKind::kSh           \
                                  ? 0xFFFFu                              \
                                  : 0xFFFFFFFFu;                         \
        sb_w = (sb_w & ~(sb_m << sb_sh)) |                               \
               ((sb_pend.store_value & sb_m) << sb_sh);                  \
      }                                                                  \
      if (sb_w != sb_fs.raw) {                                           \
        goto sb_exit_stale;                                              \
      }                                                                  \
      sb_hit = false;                                                    \
    } else {                                                             \
      const Decoded* sb_peek = predecode_.Peek(sb_fpa, gen);             \
      if (sb_peek != nullptr) {                                          \
        if (sb_peek->raw != sb_fs.raw) {                                 \
          goto sb_exit_stale;                                            \
        }                                                                \
        sb_hit = true;                                                   \
      } else {                                                           \
        const auto sb_word = bus_.dram().Read32(sb_fpa);                 \
        if (!sb_word || *sb_word != sb_fs.raw) {                         \
          goto sb_exit_stale;                                            \
        }                                                                \
        sb_hit = false;                                                  \
      }                                                                  \
    }                                                                    \
  } while (0)

// Post-commit fetch bookkeeping: the same counting events as StageIf's
// fetch (icache + TLB hit tally, predecode hit tally or Verify/Insert —
// `gen` read here, AFTER any pending-store completion), the ID -> EX shift,
// and the latch-payload shadow pointers. sh_ex/sh_id/sh_buf track which
// slot's payload a per-cycle run would have left in each latch and in the
// skid buffer; they are materialized into the member latches only at
// executor exit. Every started fetch rewrites the buffer
// payload; at depth 0 delivery is same-cycle (ID gets the same word), at
// depth 1 ID consumes the PREVIOUS buffered word and the new word parks.
#define MSIM_SB_COMMIT_FETCH()                                           \
  do {                                                                   \
    const SbSlot& sb_fs = slots[e + 2 + depth];                          \
    const uint32_t sb_fpa = sb_fs.addr + fdelta;                         \
    ++icache_hits;                                                       \
    if (paged) {                                                         \
      ++tlb_hits;                                                        \
    }                                                                    \
    if (sb_hit) {                                                        \
      ++predecode_hits;                                                  \
    } else if (predecode_.Verify(sb_fpa, gen, sb_fs.raw) == nullptr) {   \
      predecode_.Insert(sb_fpa, gen, sb_fs.raw, sb_fs.d);                \
    }                                                                    \
    if (e >= -1) {                                                       \
      sh_ex = sh_id;                                                     \
    }                                                                    \
    sh_id = depth != 0 ? sh_buf : &sb_fs;                                \
    sh_buf = &sb_fs;                                                     \
    ++e;                                                                 \
    pc = sb_fs.addr + 4;                                                 \
  } while (0)

// Top-of-cycle MEM stage: completes the pending memory op latched by the
// previous cycle's dispatch. StageMem runs before every other stage, so this
// expands right after each ++cycle_, BEFORE the cycle's EX work and events.
// Semantics are StageMem's DRAM path verbatim: consuming drops `valid` and
// zeroes `wait` (payload stale in place), stores write through the bus and
// bump the write generation (reloaded so every later predecode probe sees
// it), loads sign-extend exactly and write rd, and the op retires with the
// MEM-stage kRetire event ordering.
#define MSIM_SB_COMPLETE_PEND()                                          \
  do {                                                                   \
    if (sb_pend.valid) {                                                 \
      sb_pend.valid = false;                                             \
      sb_pend.wait = 0;                                                  \
      if (sb_pend.is_store) {                                            \
        switch (sb_pend.kind) {                                          \
          case InstrKind::kSb:                                           \
            (void)bus_.Write8(sb_pend.paddr,                             \
                              static_cast<uint8_t>(sb_pend.store_value)); \
            break;                                                       \
          case InstrKind::kSh:                                           \
            (void)bus_.Write16(sb_pend.paddr,                            \
                               static_cast<uint16_t>(sb_pend.store_value)); \
            break;                                                       \
          default:                                                       \
            (void)bus_.Write32(sb_pend.paddr, sb_pend.store_value);      \
            break;                                                       \
        }                                                                \
        gen = bus_.dram().write_generation();                            \
      } else {                                                           \
        uint32_t sb_ld = 0;                                              \
        switch (sb_pend.kind) {                                          \
          case InstrKind::kLb:                                           \
            sb_ld = static_cast<uint32_t>(static_cast<int32_t>(          \
                static_cast<int8_t>(bus_.Read8(sb_pend.paddr).value_or(0)))); \
            break;                                                       \
          case InstrKind::kLbu:                                          \
            sb_ld = bus_.Read8(sb_pend.paddr).value_or(0);               \
            break;                                                       \
          case InstrKind::kLh:                                           \
            sb_ld = static_cast<uint32_t>(static_cast<int32_t>(          \
                static_cast<int16_t>(bus_.Read16(sb_pend.paddr).value_or(0)))); \
            break;                                                       \
          case InstrKind::kLhu:                                          \
            sb_ld = bus_.Read16(sb_pend.paddr).value_or(0);              \
            break;                                                       \
          default:                                                       \
            sb_ld = bus_.Read32(sb_pend.paddr).value_or(0);              \
            break;                                                       \
        }                                                                \
        if (sb_pend.rd != 0) {                                           \
          regs_[sb_pend.rd] = sb_ld;                                     \
        }                                                                \
      }                                                                  \
      ++retired;                                                         \
      ++stats_.instret;                                                  \
      tracer_.Emit(TraceEventKind::kRetire, sb_pend.pc, sb_pend.raw, 0,  \
                   false);                                               \
    }                                                                    \
  } while (0)

// EX-stage commit of a memory slot's fast path: the pre-checked access
// becomes the pending MEM op (completed at the top of the next committed
// cycle), with StartMemOp's counter effects replayed — dcache hit, TLB hit
// when paged — and the load-use shadow updated for loads. store_value is
// latched for loads too (StartMemOp reads rs2 unconditionally), keeping the
// written-back ex_mem_ payload byte-identical.
#define MSIM_SB_MEM_DISPATCH()                                           \
  do {                                                                   \
    superblocks_.CountMemFastHit();                                      \
    ++dcache_hits;                                                       \
    if (paged) {                                                         \
      ++tlb_hits;                                                        \
    }                                                                    \
    sb_pend.valid = true;                                                \
    sb_pend.pc = es->addr;                                               \
    sb_pend.kind = es->d.kind;                                           \
    sb_pend.metal = false;                                               \
    sb_pend.is_store = sb_st;                                            \
    sb_pend.vaddr = sb_va;                                               \
    sb_pend.paddr = sb_pa;                                               \
    sb_pend.store_value = MSIM_SB_B;                                     \
    sb_pend.raw = es->raw;                                               \
    sb_pend.rd = es->d.rd;                                               \
    sb_pend.wait = 1;                                                    \
    sb_pend.target = MemOp::Target::kDram;                               \
    sb_mem_any = true;                                                   \
    if (!sb_st) {                                                        \
      load_dispatch_cycle = cycle_;                                      \
      ex_load_rd_ = es->d.rd;                                            \
    }                                                                    \
  } while (0)

// Retire bookkeeping, identical to ExecuteAluOp's tail for a non-Metal op.
#define MSIM_SB_RETIRE(s)                                                \
  do {                                                                   \
    ++retired;                                                           \
    ++stats_.instret;                                                    \
    tracer_.Emit(TraceEventKind::kRetire, (s).addr, (s).raw, 0, false);  \
  } while (0)

// Operand shorthands (pure register-file reads; x0 is hardwired zero by
// WriteReg never storing to it, so reads index the array directly).
#define MSIM_SB_A (regs_[es->rs1])
#define MSIM_SB_B (regs_[es->rs2])
#define MSIM_SB_SA (static_cast<int32_t>(regs_[es->rs1]))
#define MSIM_SB_SB (static_cast<int32_t>(regs_[es->rs2]))

// A straight-line op: fetch check, commit, pending completion (MEM before
// EX: a pending load's rd lands before this op's rd, which may alias it),
// rd writeback, retire, advance.
#define MSIM_SB_ALU(label_name, expr)                                    \
  label_name : {                                                         \
    MSIM_SB_FETCH_OR_EXIT();                                             \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    if (es->rd != 0) {                                                   \
      regs_[es->rd] = (expr);                                            \
    }                                                                    \
    MSIM_SB_RETIRE(*es);                                                 \
    last_redirect = false;                                               \
    MSIM_SB_COMMIT_FETCH();                                              \
    goto sb_next;                                                        \
  }

// A conditional branch: taken resolves via sb_taken_cond (bias counters and
// possible tree transition) with no fetch — the speculative fall-through
// word is squashed, exactly as per-cycle; not-taken is a straight-line
// cycle with no writeback. Operands read the CURRENT register file: any
// pending load completing this cycle has an older rd (stall_after would
// have inserted the bubble otherwise), so evaluation before completion is
// safe. Bias counters freeze once the slot is linked or refused.
#define MSIM_SB_BRANCH(label_name, cond)                                 \
  label_name : {                                                         \
    if (cond) {                                                          \
      sb_tgt = es->target;                                               \
      goto sb_taken_cond;                                                \
    }                                                                    \
    MSIM_SB_FETCH_OR_EXIT();                                             \
    ++cycle_;                                                            \
    MSIM_SB_COMPLETE_PEND();                                             \
    if (es->taken_seg == kSbSegUnlinked) {                               \
      ++es->nottaken_n;                                                  \
    }                                                                    \
    MSIM_SB_RETIRE(*es);                                                 \
    last_redirect = false;                                               \
    MSIM_SB_COMMIT_FETCH();                                              \
    goto sb_next;                                                        \
  }

  while (cycle_ - start < max_cycles && cycle_ + 1 < horizon &&
         (max_retires == 0 || retired < max_retires)) {
    // Every pass starts at a refill point, so every entry guard (horizon, no
    // pending interrupt, not Metal) is already established and stays valid
    // across the whole trace: in-trace memory slots are DRAM-only, so no
    // MMIO write can move a device's next event, and no interrupt can become
    // pending before the horizon.
    Superblock* sb = superblocks_.Lookup(pc);
    if (sb == nullptr) {
      sb = superblocks_.Build(pc, bus_.dram(), sb_as);
    } else if (sb->grow_pending) {
      // Deferred tree growth (a biased branch observed by an earlier
      // executor run) applies only here: the walk reallocates slot storage,
      // which must never happen while executor slot pointers are live.
      superblocks_.MaybeGrow(*sb, bus_.dram(), sb_as);
    }
    uint32_t sb_entry_delta = 0;
    const uint32_t sb_entry_len =
        sb != nullptr ? sb_seg_ready(sb->segs[0], &sb_entry_delta) : 0;
    if (sb_entry_len < kSuperblockMinLen) {
      break;  // no usable trace here: StepCycle takes over
    }
    superblocks_.CountExecution();
    const uint64_t sb_entry_retired = retired;
    SbSlot* slots = sb->slots.data();
    int32_t len = static_cast<int32_t>(sb_entry_len);
    int32_t exec_len =
        sb->exec_len < sb_entry_len ? static_cast<int32_t>(sb->exec_len) : len;
    // Physical rebase for the current segment's slot addresses (0 when
    // unpaged or identity-mapped).
    uint32_t fdelta = sb_entry_delta;
    // Slot position of the EX stage this cycle; -2/-1 are the two
    // refill cycles before slots[0] reaches EX. Invariant after every
    // committed cycle at depth 0: EX holds slot e, ID holds slot e + 1,
    // the next fetch is slot e + 2. A load-use stall enters the skid
    // regime (depth 1): the buffer holds slot e + 2 and fetches run one
    // ahead, until a redirect drains it — exactly the per-cycle skid.
    int32_t e = -2;
    int32_t depth = 0;
    bool in_bubble = false;  // load-use bubble cycle in flight
    const SbSlot* sh_ex = nullptr;
    const SbSlot* sh_id = nullptr;
    const SbSlot* sh_buf = nullptr;
    SbSlot* es = nullptr;
    bool sb_hit = false;
    uint32_t sb_tgt = 0;

#if defined(__GNUC__) || defined(__clang__)
    // Threaded dispatch: one indirect jump per instruction, indexed by
    // the build-time executor opcode. Order must match SbExec exactly.
    static const void* const kSbGoto[] = {
        &&sb_x_const, &&sb_x_addi, &&sb_x_slti, &&sb_x_sltiu,
        &&sb_x_xori, &&sb_x_ori, &&sb_x_andi, &&sb_x_slli, &&sb_x_srli,
        &&sb_x_srai, &&sb_x_add, &&sb_x_sub, &&sb_x_sll, &&sb_x_slt,
        &&sb_x_sltu, &&sb_x_xor, &&sb_x_srl, &&sb_x_sra, &&sb_x_or,
        &&sb_x_and, &&sb_x_fence, &&sb_x_mul, &&sb_x_mulh,
        &&sb_x_mulhsu, &&sb_x_mulhu, &&sb_x_div, &&sb_x_divu,
        &&sb_x_rem, &&sb_x_remu, &&sb_x_jal, &&sb_x_jalr, &&sb_x_beq,
        &&sb_x_bne, &&sb_x_blt, &&sb_x_bge, &&sb_x_bltu, &&sb_x_bgeu,
        &&sb_x_mem, &&sb_x_mem, &&sb_x_mem, &&sb_x_mem, &&sb_x_mem,
        &&sb_x_mem, &&sb_x_mem, &&sb_x_mem};
    static_assert(sizeof(kSbGoto) / sizeof(kSbGoto[0]) ==
                  static_cast<size_t>(SbExec::kCount));
#endif

  sb_next:
    // The loop's budget/horizon condition, checked per cycle, with one
    // tightening: a cycle whose MEM stage completes a pending op can
    // retire TWO instructions (the completion plus the EX op), so a
    // live pending op reserves one unit of retire budget. Exiting a
    // cycle early is always sound — every exit is a per-cycle-exact
    // state — and the bound is what RunRetireLockstep relies on.
    if (!(cycle_ - start < max_cycles && cycle_ + 1 < horizon &&
          (max_retires == 0 ||
           retired + (sb_pend.valid ? 1u : 0u) < max_retires))) {
      goto sb_exit;
    }
    if (e < 0) {
      // Refill cycle: nothing in EX yet, fetch only.
      MSIM_SB_FETCH_OR_EXIT();
      ++cycle_;
      last_redirect = false;
      MSIM_SB_COMMIT_FETCH();
      goto sb_next;
    }
    es = &slots[e];
#if defined(__GNUC__) || defined(__clang__)
    goto *kSbGoto[static_cast<uint8_t>(es->exec)];
#else
    switch (es->exec) {
      case SbExec::kConst: goto sb_x_const;
      case SbExec::kAddi: goto sb_x_addi;
      case SbExec::kSlti: goto sb_x_slti;
      case SbExec::kSltiu: goto sb_x_sltiu;
      case SbExec::kXori: goto sb_x_xori;
      case SbExec::kOri: goto sb_x_ori;
      case SbExec::kAndi: goto sb_x_andi;
      case SbExec::kSlli: goto sb_x_slli;
      case SbExec::kSrli: goto sb_x_srli;
      case SbExec::kSrai: goto sb_x_srai;
      case SbExec::kAdd: goto sb_x_add;
      case SbExec::kSub: goto sb_x_sub;
      case SbExec::kSll: goto sb_x_sll;
      case SbExec::kSlt: goto sb_x_slt;
      case SbExec::kSltu: goto sb_x_sltu;
      case SbExec::kXor: goto sb_x_xor;
      case SbExec::kSrl: goto sb_x_srl;
      case SbExec::kSra: goto sb_x_sra;
      case SbExec::kOr: goto sb_x_or;
      case SbExec::kAnd: goto sb_x_and;
      case SbExec::kFence: goto sb_x_fence;
      case SbExec::kMul: goto sb_x_mul;
      case SbExec::kMulh: goto sb_x_mulh;
      case SbExec::kMulhsu: goto sb_x_mulhsu;
      case SbExec::kMulhu: goto sb_x_mulhu;
      case SbExec::kDiv: goto sb_x_div;
      case SbExec::kDivu: goto sb_x_divu;
      case SbExec::kRem: goto sb_x_rem;
      case SbExec::kRemu: goto sb_x_remu;
      case SbExec::kJal: goto sb_x_jal;
      case SbExec::kJalr: goto sb_x_jalr;
      case SbExec::kBeq: goto sb_x_beq;
      case SbExec::kBne: goto sb_x_bne;
      case SbExec::kBlt: goto sb_x_blt;
      case SbExec::kBge: goto sb_x_bge;
      case SbExec::kBltu: goto sb_x_bltu;
      case SbExec::kBgeu: goto sb_x_bgeu;
      case SbExec::kLb:
      case SbExec::kLbu:
      case SbExec::kLh:
      case SbExec::kLhu:
      case SbExec::kLw:
      case SbExec::kSb:
      case SbExec::kSh:
      case SbExec::kSw: goto sb_x_mem;
      default: goto sb_exit;
    }
#endif

    MSIM_SB_ALU(sb_x_const, es->cval)
    MSIM_SB_ALU(sb_x_addi, MSIM_SB_A + es->imm)
    MSIM_SB_ALU(sb_x_slti,
                MSIM_SB_SA < static_cast<int32_t>(es->imm) ? 1u : 0u)
    MSIM_SB_ALU(sb_x_sltiu, MSIM_SB_A < es->imm ? 1u : 0u)
    MSIM_SB_ALU(sb_x_xori, MSIM_SB_A ^ es->imm)
    MSIM_SB_ALU(sb_x_ori, MSIM_SB_A | es->imm)
    MSIM_SB_ALU(sb_x_andi, MSIM_SB_A & es->imm)
    MSIM_SB_ALU(sb_x_slli, MSIM_SB_A << es->imm)
    MSIM_SB_ALU(sb_x_srli, MSIM_SB_A >> es->imm)
    MSIM_SB_ALU(sb_x_srai,
                static_cast<uint32_t>(MSIM_SB_SA >> es->imm))
    MSIM_SB_ALU(sb_x_add, MSIM_SB_A + MSIM_SB_B)
    MSIM_SB_ALU(sb_x_sub, MSIM_SB_A - MSIM_SB_B)
    MSIM_SB_ALU(sb_x_sll, MSIM_SB_A << (MSIM_SB_B & 31))
    MSIM_SB_ALU(sb_x_slt, MSIM_SB_SA < MSIM_SB_SB ? 1u : 0u)
    MSIM_SB_ALU(sb_x_sltu, MSIM_SB_A < MSIM_SB_B ? 1u : 0u)
    MSIM_SB_ALU(sb_x_xor, MSIM_SB_A ^ MSIM_SB_B)
    MSIM_SB_ALU(sb_x_srl, MSIM_SB_A >> (MSIM_SB_B & 31))
    MSIM_SB_ALU(sb_x_sra,
                static_cast<uint32_t>(MSIM_SB_SA >> (MSIM_SB_B & 31)))
    MSIM_SB_ALU(sb_x_or, MSIM_SB_A | MSIM_SB_B)
    MSIM_SB_ALU(sb_x_and, MSIM_SB_A & MSIM_SB_B)

  sb_x_fence : {
    MSIM_SB_FETCH_OR_EXIT();
    ++cycle_;
    MSIM_SB_RETIRE(*es);
    last_redirect = false;
    MSIM_SB_COMMIT_FETCH();
    goto sb_next;
  }

    MSIM_SB_ALU(sb_x_mul, MSIM_SB_A * MSIM_SB_B)
    MSIM_SB_ALU(sb_x_mulh,
                static_cast<uint32_t>((static_cast<int64_t>(MSIM_SB_SA) *
                                       static_cast<int64_t>(MSIM_SB_SB)) >>
                                      32))
    MSIM_SB_ALU(sb_x_mulhsu,
                static_cast<uint32_t>((static_cast<int64_t>(MSIM_SB_SA) *
                                       static_cast<uint64_t>(MSIM_SB_B)) >>
                                      32))
    MSIM_SB_ALU(sb_x_mulhu,
                static_cast<uint32_t>((static_cast<uint64_t>(MSIM_SB_A) *
                                       static_cast<uint64_t>(MSIM_SB_B)) >>
                                      32))
    MSIM_SB_ALU(sb_x_div,
                MSIM_SB_B == 0 ? 0xFFFFFFFFu
                : (MSIM_SB_SA == INT32_MIN && MSIM_SB_SB == -1)
                    ? static_cast<uint32_t>(INT32_MIN)
                    : static_cast<uint32_t>(MSIM_SB_SA / MSIM_SB_SB))
    MSIM_SB_ALU(sb_x_divu,
                MSIM_SB_B == 0 ? 0xFFFFFFFFu : MSIM_SB_A / MSIM_SB_B)
    MSIM_SB_ALU(sb_x_rem,
                MSIM_SB_B == 0 ? MSIM_SB_A
                : (MSIM_SB_SA == INT32_MIN && MSIM_SB_SB == -1)
                    ? 0u
                    : static_cast<uint32_t>(MSIM_SB_SA % MSIM_SB_SB))
    MSIM_SB_ALU(sb_x_remu,
                MSIM_SB_B == 0 ? MSIM_SB_A : MSIM_SB_A % MSIM_SB_B)

  sb_x_jal:
    sb_tgt = es->target;
    goto sb_taken_link;
  sb_x_jalr:
    // Target reads rs1 BEFORE the link write (rd may alias rs1). A
    // pending load completing this cycle cannot feed rs1 (stall_after
    // would have inserted the bubble), so pre-completion read is exact.
    sb_tgt = (MSIM_SB_A + es->imm) & ~1u;
    goto sb_taken_link;
  sb_taken_link:
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();  // MEM's rd write lands before the link's
    if (es->rd != 0) {
      regs_[es->rd] = es->cval;  // pc + 4, folded at build
    }
    goto sb_taken_commit;

    MSIM_SB_BRANCH(sb_x_beq, MSIM_SB_A == MSIM_SB_B)
    MSIM_SB_BRANCH(sb_x_bne, MSIM_SB_A != MSIM_SB_B)
    MSIM_SB_BRANCH(sb_x_blt, MSIM_SB_SA < MSIM_SB_SB)
    MSIM_SB_BRANCH(sb_x_bge, MSIM_SB_SA >= MSIM_SB_SB)
    MSIM_SB_BRANCH(sb_x_bltu, MSIM_SB_A < MSIM_SB_B)
    MSIM_SB_BRANCH(sb_x_bgeu, MSIM_SB_A >= MSIM_SB_B)

  sb_x_mem : {
    // A memory slot in EX: StartMemOp's fast path, pre-checked with no
    // side effects. Any slow condition — misalignment (a fault
    // per-cycle), TLB miss or permission/key failure, MMIO or
    // out-of-bounds physical target, dcache miss — exits the trace
    // UNCOMMITTED and replays the op through the per-cycle machinery,
    // which counts the miss, raises the fault or models the latency.
    const uint32_t sb_size = SbMemSize(es->exec);
    const bool sb_st = SbIsStore(es->exec);
    const uint32_t sb_va = MSIM_SB_A + es->imm;
    if ((sb_va & (sb_size - 1)) != 0) {
      goto sb_exit_mem_slow;
    }
    uint32_t sb_pa = sb_va;
    if (paged) {
      const TranslateResult sb_tr = mmu_.ProbeTranslate(
          sb_va, sb_st ? AccessType::kStore : AccessType::kLoad, asid,
          keyperm);
      if (!sb_tr.ok) {
        goto sb_exit_mem_slow;
      }
      sb_pa = sb_tr.paddr;
    }
    if (sb_pa >= kMmioBase || sb_pa + sb_size > dram_size ||
        !dcache_.Probe(sb_pa)) {
      goto sb_exit_mem_slow;
    }
    if (!es->stall_after) {
      // Plain dispatch: the access becomes the pending MEM op and the
      // frontend keeps streaming.
      MSIM_SB_FETCH_OR_EXIT();
      ++cycle_;
      MSIM_SB_COMPLETE_PEND();
      MSIM_SB_MEM_DISPATCH();
      last_redirect = false;
      MSIM_SB_COMMIT_FETCH();
      goto sb_next;
    }
    // Load-use stall: the next slot reads this load's rd, so StageId
    // holds it and emits kStall. At depth 0 the cycle's fetch still
    // runs, parking its word in the skid buffer; at depth 1 the buffer
    // is already held and NO fetch starts (pc unchanged). Either way
    // the next cycle is a forced bubble.
    if (depth == 0) {
      MSIM_SB_FETCH_OR_EXIT();
      ++cycle_;
      MSIM_SB_COMPLETE_PEND();
      MSIM_SB_MEM_DISPATCH();
      ++stats_.load_use_stalls;
      tracer_.Emit(TraceEventKind::kStall, slots[e + 1].addr, 0, 0,
                   false);
      {
        const SbSlot& sb_fs = slots[e + 2];
        const uint32_t sb_fpa = sb_fs.addr + fdelta;
        ++icache_hits;
        if (paged) {
          ++tlb_hits;
        }
        if (sb_hit) {
          ++predecode_hits;
        } else if (predecode_.Verify(sb_fpa, gen, sb_fs.raw) == nullptr) {
          predecode_.Insert(sb_fpa, gen, sb_fs.raw, sb_fs.d);
        }
        sh_buf = &sb_fs;
        pc = sb_fs.addr + 4;
        depth = 1;
      }
      last_redirect = false;
      goto sb_bubble;
    }
    if (e + 1 >= exec_len) {
      goto sb_exit;  // unreachable: stall_after implies a next exec slot
    }
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
    MSIM_SB_MEM_DISPATCH();
    ++stats_.load_use_stalls;
    tracer_.Emit(TraceEventKind::kStall, slots[e + 1].addr, 0, 0, false);
    last_redirect = false;
    goto sb_bubble;
  }

  sb_bubble:
    // The forced cycle after a load-use stall: EX is empty (no
    // dispatch, no retire from EX), the stalled consumer advances from
    // the buffer into ID next, and the frontend fetches one ahead. The
    // stalled load itself completes at the top of this cycle.
    in_bubble = true;
    if (!(cycle_ - start < max_cycles && cycle_ + 1 < horizon &&
          (max_retires == 0 ||
           retired + (sb_pend.valid ? 1u : 0u) < max_retires))) {
      goto sb_exit;
    }
    MSIM_SB_FETCH_OR_EXIT();
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
    last_redirect = false;
    MSIM_SB_COMMIT_FETCH();
    in_bubble = false;
    goto sb_next;

  sb_taken_cond:
    // Taken conditional branch: bias bookkeeping and tree transitions.
    if (es->taken_seg >= 1) {
      // The hot side was inlined as a tree segment. Entering it is the
      // same committed redirect cycle, continued in the new segment
      // without leaving the executor.
      const SbSegment& sb_tseg = sb->segs[es->taken_seg];
      uint32_t sb_tdelta = 0;
      const uint32_t sb_tlen = sb_seg_ready(sb_tseg, &sb_tdelta);
      if (sb_tlen >= kSuperblockMinLen) {
        ++cycle_;
        MSIM_SB_COMPLETE_PEND();
        ++stats_.control_flushes;
        RedirectFetch(sb_tgt);
        MSIM_SB_RETIRE(*es);
        last_redirect = true;
        pc = fetch_pc_;
        superblocks_.CountTreeTransition();
        slots = sb->slots.data() + sb_tseg.base;
        len = static_cast<int32_t>(sb_tlen);
        exec_len = sb_tseg.exec_len < sb_tlen
                       ? static_cast<int32_t>(sb_tseg.exec_len)
                       : len;
        fdelta = sb_tdelta;
        e = -2;
        depth = 0;  // the redirect drained any live skid
        goto sb_next;
      }
    } else if (es->taken_seg == kSbSegUnlinked) {
      ++es->taken_n;
      if (es->taken_n >= kSbGrowMinTaken &&
          es->nottaken_n * 8 <= es->taken_n && !sb->grow_pending) {
        // Strongly biased: request growth. Applied at the next
        // trace-entry point, never mid-execution (see the loop top).
        sb->grow_pending = true;
        sb->grow_slot = static_cast<uint32_t>(es - sb->slots.data());
      }
    }
    ++cycle_;
    MSIM_SB_COMPLETE_PEND();
  sb_taken_commit:
    // ExecuteAluOp's taken-branch order: flush (kFlush event) first,
    // retire (kRetire event) second.
    ++stats_.control_flushes;
    RedirectFetch(sb_tgt);
    MSIM_SB_RETIRE(*es);
    last_redirect = true;
    pc = fetch_pc_;
    depth = 0;  // the redirect drained any live skid
    // EX consumed, ID squashed; sh_ex/sh_id keep their (now stale)
    // payloads, exactly like the member latches in a per-cycle run.
    {
      Superblock* sb_nt = superblocks_.Lookup(pc);
      uint32_t sb_nt_delta = 0;
      const uint32_t sb_nt_len =
          sb_nt != nullptr ? sb_seg_ready(sb_nt->segs[0], &sb_nt_delta) : 0;
      if (sb_nt_len >= kSuperblockMinLen) {
        // Chain: the branch target starts another cached trace. Stale
        // payload pointers stay valid — invalidation never frees slot
        // storage, and Build cannot run inside the executor.
        superblocks_.CountChain();
        sb = sb_nt;
        slots = sb_nt->slots.data();
        len = static_cast<int32_t>(sb_nt_len);
        exec_len = sb_nt->exec_len < sb_nt_len
                       ? static_cast<int32_t>(sb_nt->exec_len)
                       : len;
        fdelta = sb_nt_delta;
        e = -2;
        goto sb_next;
      }
    }
    // No trace at the target: leave in the committed post-redirect state,
    // another refill point (both latches empty, buffer drained by the
    // flush), where the loop top may build one.
    e = -2;
    goto sb_exit;

  sb_exit_mem_slow:
    // A memory slot that cannot take the fast path: exit uncommitted with
    // the op still in the EX latch. StepCycle then replays it with full
    // per-cycle semantics — miss counting, MMIO routing, faults.
    superblocks_.CountMemSlowExit();
    goto sb_exit;
  sb_exit_stale:
    // A raw word no longer matches the backing store (the write that
    // changed it — an external poke, a loader, or THIS trace's own
    // pending store — forces the re-read above). Invalidate before the
    // fetching cycle commits.
    superblocks_.Invalidate(*sb);
  sb_exit:
    // Leave the trace, materializing the latch shadows exactly as a
    // per-cycle run would hold them here: slot e in EX (unless e < 0 or
    // this is a bubble cycle, whose EX is empty), slot e + 1 in ID, the
    // skid word in the buffer, consumed payloads stale in place. Every
    // exit but the committed one above abandons the current cycle.
    if (sh_ex != nullptr) {
      Op op;  // StageId default-constructs the op it latches
      op.pc = sh_ex->addr;
      op.d = sh_ex->d;
      id_ex_ = op;
    }
    if (sh_id != nullptr) {
      if_id_ = slot_payload(*sh_id);
    }
    if (sh_buf != nullptr) {
      fetch_buffer_ = slot_payload(*sh_buf);
    }
    id_ex_.valid = e >= 0 && !in_bubble;
    if_id_.valid = e + 1 >= 0 && e + 1 < len;
    fetch_buffer_.valid = depth != 0;
    superblocks_.CreditInstructions(retired - sb_entry_retired);
    // Only a refill point loops back for the next trace (an uncommitted
    // exit elsewhere would re-enter the same state forever); anything
    // still latched or pending is StepCycle's to continue.
    if (id_ex_.valid || if_id_.valid || fetch_buffer_.valid || sb_pend.valid) {
      break;
    }
  }

#undef MSIM_SB_FETCH_OR_EXIT
#undef MSIM_SB_COMMIT_FETCH
#undef MSIM_SB_COMPLETE_PEND
#undef MSIM_SB_MEM_DISPATCH
#undef MSIM_SB_RETIRE
#undef MSIM_SB_A
#undef MSIM_SB_B
#undef MSIM_SB_SA
#undef MSIM_SB_SB
#undef MSIM_SB_ALU
#undef MSIM_SB_BRANCH

  const uint64_t committed = cycle_ - start;
  if (committed != 0) {
    // Member-state writeback for what the trace exits did not write
    // directly. Fields a per-cycle run would have left untouched keep their
    // values; fields it would have reset get the reset value.
    stats_.cycles = cycle_;
    metal_resident_cycles_ = 0;
    redirect_this_cycle_ = last_redirect;
    // True iff the LAST committed cycle dispatched a load (per-cycle resets
    // this every cycle and only a load's StageEx sets it).
    ex_load_this_cycle_ = load_dispatch_cycle == cycle_;
    if (sb_mem_any) {
      // Live pending op (valid, wait 1) or the stale payload of the last
      // completed one (valid false, wait 0) — both byte-identical to what
      // per-cycle StageMem would have left in the latch.
      ex_mem_ = sb_pend;
    }
    icache_.CreditHits(icache_hits);
    predecode_.CreditHits(predecode_hits);
    dcache_.CreditHits(dcache_hits);
    mmu_.tlb().CreditHits(tlb_hits);
    fetch_pc_ = pc;
    // Catch the devices up to the current cycle in one tick. Sound because no
    // committed cycle reached the horizon: the tick observes the new cycle
    // count (e.g. the timer's COUNT register) but cannot fire anything, and
    // it is the FIRST tick at cycle_, so non-idempotent fire paths (periodic
    // timer re-arm) are never re-run.
    bus_.TickDevices(cycle_, intc_);
  }
  return committed;
}

// ---------------------------------------------------------------------------
// Trap machinery
// ---------------------------------------------------------------------------

void Core::Fatal(const std::string& message) {
  if (has_fatal_) {
    return;  // keep the first (root-cause) report
  }
  has_fatal_ = true;
  fatal_ = Internal(message);
  MSIM_LOG(Error) << "fatal: " << message;
}

void Core::ResetFetch(uint32_t pc) {
  fetch_inflight_ = false;
  fetch_wait_ = 0;
  fetch_buffer_.valid = false;
  fetch_pc_ = pc;
}

void Core::FlushFrontend() {
  if_id_.valid = false;
  ResetFetch(fetch_pc_);
}

void Core::RedirectFetch(uint32_t target) {
  FlushFrontend();
  tracer_.Emit(TraceEventKind::kFlush, target, 0, 0, arch_metal_);
  fetch_pc_ = target;
  redirect_this_cycle_ = true;
}

void Core::TakeTrapToEntry(uint32_t entry, uint32_t cause, uint32_t epc, uint32_t badvaddr,
                           uint32_t instr, uint32_t m31, bool faulting_op_is_metal) {
  if (faulting_op_is_metal) {
    // mroutines are non-interruptible and must not fault (paper §2.1); a
    // fault inside Metal mode is a machine check (recoverable if delegated).
    RaiseMachineCheck(McheckKind::kDoubleTrap, cause, epc);
    return;
  }
  if (entry >= kMaxMroutines) {
    Fatal(StrFormat("undelegated trap: cause 0x%08x (%s) at pc=0x%08x", cause,
                    (cause & kInterruptCauseFlag) != 0
                        ? "interrupt"
                        : ExcCauseName(static_cast<ExcCause>(cause)),
                    epc));
    return;
  }
  const uint32_t handler = metal_.EntryAddress(entry);
  if (handler == 0) {
    Fatal(StrFormat("trap delegated to unconfigured mroutine entry %u (cause 0x%08x)", entry,
                    cause));
    return;
  }
  // Squash younger in-flight work. A speculatively entered/exited Metal mode
  // in ID/EX latches is rolled back to the committed mode.
  if (id_ex_.valid) {
    if (id_ex_.has_transition()) {
      --inflight_mode_ops_;
    }
    id_ex_.valid = false;
  }
  tracer_.Emit((cause & kInterruptCauseFlag) != 0 ? TraceEventKind::kInterrupt
                                                  : TraceEventKind::kTrap,
               epc, cause, entry);
  metal_.SetTrapState(cause, epc, badvaddr, instr);
  metal_.WriteMreg(kMetalLinkRegister, m31);
  arch_metal_ = true;
  frontend_metal_ = true;
  last_metal_entry_ = static_cast<uint8_t>(entry);
  RedirectFetch(handler);
}

void Core::RaiseMachineCheck(McheckKind kind, uint32_t info, uint32_t epc) {
  ++stats_.machine_checks;
  tracer_.Emit(TraceEventKind::kMachineCheck, epc, static_cast<uint32_t>(kind), info,
               arch_metal_);
  std::string detail;
  switch (kind) {
    case McheckKind::kMramCodeParity:
      detail = StrFormat("MRAM code parity error at 0x%08x", info);
      break;
    case McheckKind::kMramDataParity:
      detail = StrFormat("MRAM data parity error at offset 0x%08x", info);
      break;
    case McheckKind::kWatchdog:
      detail = StrFormat("mroutine entry %u exceeded the %llu-cycle Metal-mode watchdog budget",
                         info,
                         static_cast<unsigned long long>(config_.metal_watchdog_cycles));
      break;
    case McheckKind::kDoubleTrap:
      detail = StrFormat("trap (cause 0x%08x) raised by a Metal-mode instruction", info);
      break;
    default:
      detail = "unknown machine-check kind";
      break;
  }
  // Record the check in the MCHECK* registers before deciding deliverability,
  // so a crash dump of an undelegated (fatal) check still names it. m31 is
  // left untouched: it still holds the aborted mroutine's resume address, so
  // the recovery mroutine's mexit returns to the interrupted normal-mode
  // program. A copy lands in MCHECKM31 (together with MEPC) so the handler
  // can instead retry the faulting Metal-mode instruction by rewriting m31
  // (mexit resumes into Metal mode for MRAM addresses).
  metal_.SetMachineCheckState(kind, info, metal_.ReadMreg(kMetalLinkRegister));
  metal_.SetTrapState(static_cast<uint32_t>(ExcCause::kMachineCheck), epc, info, 0);
  if (in_machine_check_) {
    // A machine check while one is being handled cannot recurse into the
    // (evidently broken) recovery mroutine.
    Fatal(StrFormat("double machine check (%s) at pc=0x%08x: %s", McheckKindName(kind), epc,
                    detail.c_str()));
    return;
  }
  const uint32_t entry = metal_.DelegatedEntry(ExcCause::kMachineCheck);
  if (entry >= kMaxMroutines || metal_.EntryAddress(entry) == 0) {
    Fatal(StrFormat("undelegated machine check (%s) at pc=0x%08x: %s", McheckKindName(kind),
                    epc, detail.c_str()));
    return;
  }
  // Squash younger in-flight work, rolling back speculative mode transitions.
  if (id_ex_.valid) {
    if (id_ex_.has_transition()) {
      --inflight_mode_ops_;
    }
    id_ex_.valid = false;
  }
  in_machine_check_ = true;
  arch_metal_ = true;
  frontend_metal_ = true;
  last_metal_entry_ = static_cast<uint8_t>(entry);
  RedirectFetch(metal_.EntryAddress(entry));
}

void Core::TakeException(ExcCause cause, uint32_t epc, uint32_t badvaddr, uint32_t instr,
                         uint32_t m31, bool faulting_op_is_metal) {
  ++stats_.exceptions;
  const uint32_t entry = metal_.DelegatedEntry(cause);
  TakeTrapToEntry(entry, static_cast<uint32_t>(cause), epc, badvaddr, instr, m31,
                  faulting_op_is_metal);
}

// ---------------------------------------------------------------------------
// MEM stage
// ---------------------------------------------------------------------------

void Core::StageMem() {
  if (!ex_mem_.valid) {
    return;
  }
  if (ex_mem_.wait > 0) {
    --ex_mem_.wait;
  }
  if (ex_mem_.wait > 0) {
    return;
  }
  const MemOp op = ex_mem_;
  ex_mem_.valid = false;

  bool ok = true;
  uint32_t loaded = 0;
  switch (op.target) {
    case MemOp::Target::kMramData: {
      if (op.is_store) {
        ok = mram_.WriteData32(op.paddr, op.store_value);
      } else {
        const auto value = mram_.ReadData32(op.paddr);
        ok = value.has_value();
        loaded = value.value_or(0);
        if (ok && mram_.DataParityError(op.paddr)) {
          // The corrupted word never reaches the register file.
          RaiseMachineCheck(McheckKind::kMramDataParity, op.paddr, op.pc);
          return;
        }
      }
      break;
    }
    case MemOp::Target::kMmio: {
      if (op.is_store) {
        ok = bus_.Write32(op.paddr, op.store_value);
      } else {
        const auto value = bus_.Read32(op.paddr);
        ok = value.has_value();
        loaded = value.value_or(0);
      }
      break;
    }
    case MemOp::Target::kDram: {
      switch (op.kind) {
        case InstrKind::kLb:
        case InstrKind::kLbu: {
          const auto value = bus_.Read8(op.paddr);
          ok = value.has_value();
          loaded = op.kind == InstrKind::kLb
                       ? static_cast<uint32_t>(static_cast<int32_t>(static_cast<int8_t>(
                             value.value_or(0))))
                       : value.value_or(0);
          break;
        }
        case InstrKind::kLh:
        case InstrKind::kLhu: {
          const auto value = bus_.Read16(op.paddr);
          ok = value.has_value();
          loaded = op.kind == InstrKind::kLh
                       ? static_cast<uint32_t>(static_cast<int32_t>(static_cast<int16_t>(
                             value.value_or(0))))
                       : value.value_or(0);
          break;
        }
        case InstrKind::kLw:
        case InstrKind::kPlw:
        case InstrKind::kMld: {
          const auto value = bus_.Read32(op.paddr);
          ok = value.has_value();
          loaded = value.value_or(0);
          break;
        }
        case InstrKind::kSb:
          ok = bus_.Write8(op.paddr, static_cast<uint8_t>(op.store_value));
          break;
        case InstrKind::kSh:
          ok = bus_.Write16(op.paddr, static_cast<uint16_t>(op.store_value));
          break;
        case InstrKind::kSw:
        case InstrKind::kPsw:
        case InstrKind::kMst:
          ok = bus_.Write32(op.paddr, op.store_value);
          break;
        default:
          ok = false;
          break;
      }
      break;
    }
  }
  if (!ok) {
    TakeException(ExcCause::kBusError, op.pc, op.vaddr, 0, op.pc, op.metal);
    return;
  }
  // One-shot bus-response corruption (fault injection): the glitch is silent —
  // there is no parity on the system bus, so the bad value simply lands in rd.
  if (bus_fault_armed_ && !op.is_store) {
    bus_fault_armed_ = false;
    loaded = (loaded & bus_fault_and_) ^ bus_fault_xor_;
  }
  if (!op.is_store) {
    WriteReg(op.rd, loaded);
  }
  ++stats_.instret;
  if (op.metal) {
    ++stats_.metal_instret;
  }
  tracer_.Emit(TraceEventKind::kRetire, op.pc, op.raw, 0, op.metal);
}

// ---------------------------------------------------------------------------
// EX stage
// ---------------------------------------------------------------------------

uint32_t Core::DataAccessLatency(uint32_t paddr, bool metal_op) {
  if (paddr >= kMmioBase) {
    return config_.mmio_latency;
  }
  if (metal_op && config_.mroutine_storage == MroutineStorage::kDramUncached) {
    return config_.dram_latency;
  }
  return dcache_.Access(paddr);
}

bool Core::StartMemOp(const Op& op) {
  MemOp mem;
  mem.valid = true;
  mem.pc = op.pc;
  mem.kind = op.d.kind;
  mem.raw = op.d.raw;
  mem.metal = op.metal;
  mem.rd = op.d.rd;
  const InstrInfo& info = op.d.info();
  mem.is_store = info.is_store;
  const uint32_t rs1 = ReadReg(op.d.rs1);
  mem.store_value = ReadReg(op.d.rs2);
  const uint32_t addr = rs1 + static_cast<uint32_t>(op.d.imm);
  mem.vaddr = addr;

  // MRAM data segment accesses (mld/mst): `addr` is a byte offset.
  if (op.d.kind == InstrKind::kMld || op.d.kind == InstrKind::kMst) {
    if ((addr & 3) != 0) {
      TakeException(mem.is_store ? ExcCause::kMisalignedStore : ExcCause::kMisalignedLoad,
                    op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    if (addr + 4 > kMramDataSize) {
      TakeException(ExcCause::kMramOutOfBounds, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    if (config_.mroutine_storage == MroutineStorage::kMram) {
      mem.target = MemOp::Target::kMramData;
      mem.paddr = addr;
      mem.wait = config_.mram_latency;
    } else {
      // DRAM-resident handler data area (trap / PALcode configurations).
      mem.target = MemOp::Target::kDram;
      mem.paddr = config_.dram_handler_data_base + addr;
      mem.wait = config_.mroutine_storage == MroutineStorage::kDramUncached
                     ? config_.dram_latency
                     : dcache_.Access(mem.paddr);
    }
    ex_mem_ = mem;
    if (!mem.is_store) {
      ex_load_this_cycle_ = true;
      ex_load_rd_ = mem.rd;
    }
    return true;
  }

  // Alignment by access size.
  uint32_t size = 4;
  switch (op.d.kind) {
    case InstrKind::kLb:
    case InstrKind::kLbu:
    case InstrKind::kSb:
      size = 1;
      break;
    case InstrKind::kLh:
    case InstrKind::kLhu:
    case InstrKind::kSh:
      size = 2;
      break;
    default:
      size = 4;
      break;
  }
  if ((addr & (size - 1)) != 0) {
    TakeException(mem.is_store ? ExcCause::kMisalignedStore : ExcCause::kMisalignedLoad, op.pc,
                  addr, op.d.raw, op.pc, op.metal);
    return false;
  }

  // Translation: normal-mode accesses only. Metal mode runs with bare
  // physical addressing (paper §2.3, Access to Physical Memory); plw/psw are
  // physical by definition.
  uint32_t paddr = addr;
  const bool physical = op.metal || op.d.kind == InstrKind::kPlw ||
                        op.d.kind == InstrKind::kPsw || !metal_.paging_enabled();
  if (!physical) {
    const TranslateResult tr =
        mmu_.Translate(addr, mem.is_store ? AccessType::kStore : AccessType::kLoad,
                       metal_.asid(), metal_.keyperm());
    if (!tr.ok) {
      TakeException(tr.fault, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    paddr = tr.paddr;
  }
  mem.paddr = paddr;
  if (paddr >= kMmioBase) {
    if (size != 4) {
      TakeException(ExcCause::kBusError, op.pc, addr, op.d.raw, op.pc, op.metal);
      return false;
    }
    mem.target = MemOp::Target::kMmio;
  } else {
    mem.target = MemOp::Target::kDram;
  }
  mem.wait = DataAccessLatency(paddr, op.metal);
  ex_mem_ = mem;
  if (!mem.is_store) {
    ex_load_this_cycle_ = true;
    ex_load_rd_ = mem.rd;
  }
  return true;
}

void Core::StageEx() {
  if (!id_ex_.valid || ex_mem_.valid) {
    return;  // nothing to do, or MEM occupied (structural stall)
  }
  Op op = id_ex_;
  id_ex_.valid = false;

  // Commit the Metal mode transition chain attached in the decode stage.
  // The committed mode after the chain is the mode this (final replacement)
  // instruction decodes in; m31 carries the link of the last menter. Exits
  // apply any pending intercepted-rd writeback (mopw).
  if (op.has_transition()) {
    --inflight_mode_ops_;
    stats_.menters += op.enters;
    stats_.mexits += op.exits;
    if (op.exits != 0) {
      // A committed mexit ends machine-check handling (recovery succeeded).
      in_machine_check_ = false;
    }
    for (uint8_t i = 0; i < op.chain_len; ++i) {
      if (op.chain[i].is_enter) {
        last_metal_entry_ = op.chain[i].entry;
      }
    }
    if (tracer_.enabled()) {
      // Replay the folded transition chain in committed order. Enter and exit
      // land on the same cycle, which is exactly the zero-bubble contract.
      for (uint8_t i = 0; i < op.chain_len; ++i) {
        const ChainStep& step = op.chain[i];
        if (step.is_enter) {
          tracer_.Emit(TraceEventKind::kMenter, step.pc, step.entry, step.target);
        } else {
          tracer_.Emit(TraceEventKind::kMexit, step.pc, step.target,
                       Mram::InCodeRange(step.target) ? 1u : 0u, /*metal=*/true);
        }
      }
      if (op.enters + op.exits >= 2) {
        tracer_.Emit(TraceEventKind::kChainFold, op.pc, op.enters, op.exits, op.metal);
      }
    }
    for (int i = 0; i < op.exits; ++i) {
      uint8_t rd = 0;
      uint32_t value = 0;
      if (metal_.TakePendingWriteback(&rd, &value)) {
        WriteReg(rd, value);
      }
    }
    if (op.enters != 0) {
      metal_.WriteMreg(kMetalLinkRegister, op.link);
      metal_.SetTrapState(0, op.pc, 0, op.d.raw);
    }
    arch_metal_ = op.metal;
  }

  // Faults detected at fetch time are delivered here, in program order.
  if (op.fetch_fault != ExcCause::kNone) {
    if (op.fetch_fault == ExcCause::kMachineCheck) {
      // MRAM fetch parity mismatch (AccessFetch): deliverable from Metal mode.
      RaiseMachineCheck(McheckKind::kMramCodeParity, op.fetch_fault_addr, op.pc);
    } else {
      TakeException(op.fetch_fault, op.pc, op.fetch_fault_addr, 0, op.pc, op.metal);
    }
    return;
  }

  // Instruction interception (paper §2.3): latch operands and vector into the
  // configured mroutine. m31 = pc + 4 (skip-and-emulate semantics; the
  // handler can rewrite m31 with MEPC to retry instead).
  if (op.intercepted) {
    OperandLatch latch;
    latch.rs1_value = ReadReg(op.d.rs1);
    latch.rs2_value = ReadReg(op.d.rs2);
    latch.imm = op.d.imm;
    latch.rd_index = op.d.rd;
    latch.rs1_index = op.d.rs1;
    latch.rs2_index = op.d.rs2;
    latch.raw = op.d.raw;
    metal_.LatchOperands(latch);
    ++stats_.intercepts;
    TakeTrapToEntry(op.intercept_entry, static_cast<uint32_t>(ExcCause::kIntercept), op.pc, 0,
                    op.d.raw, op.pc + 4, op.metal);
    return;
  }

  const InstrInfo& info = op.d.info();
  if (info.kind == InstrKind::kIllegal) {
    TakeException(ExcCause::kIllegalInstruction, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }
  if (info.metal_only && !op.metal) {
    TakeException(ExcCause::kPrivilegeViolation, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }
  if (op.d.kind == InstrKind::kMenter && op.metal) {
    // Nested menter is not architected (paper §3.5 discusses layering as
    // future work; src/ext/nested.cc builds it in software).
    TakeException(ExcCause::kPrivilegeViolation, op.pc, 0, op.d.raw, op.pc + 4, op.metal);
    return;
  }

  if (info.is_load || info.is_store) {
    StartMemOp(op);  // retires at MEM completion
    return;
  }
  ExecuteAluOp(op);
}

void Core::ExecuteAluOp(Op& op) {
  using K = InstrKind;
  const uint32_t pc = op.pc;
  const uint32_t a = ReadReg(op.d.rs1);
  const uint32_t b = ReadReg(op.d.rs2);
  const uint32_t imm = static_cast<uint32_t>(op.d.imm);
  const int32_t sa = static_cast<int32_t>(a);
  const int32_t sb = static_cast<int32_t>(b);
  bool retire = true;

  auto branch_to = [&](uint32_t target) {
    ++stats_.control_flushes;
    RedirectFetch(target);
  };

  switch (op.d.kind) {
    case K::kLui:
      WriteReg(op.d.rd, imm << 12);
      break;
    case K::kAuipc:
      WriteReg(op.d.rd, pc + (imm << 12));
      break;
    case K::kJal:
      WriteReg(op.d.rd, pc + 4);
      branch_to(pc + imm);
      break;
    case K::kJalr: {
      const uint32_t target = (a + imm) & ~1u;
      WriteReg(op.d.rd, pc + 4);
      branch_to(target);
      break;
    }
    case K::kBeq:
      if (a == b) branch_to(pc + imm);
      break;
    case K::kBne:
      if (a != b) branch_to(pc + imm);
      break;
    case K::kBlt:
      if (sa < sb) branch_to(pc + imm);
      break;
    case K::kBge:
      if (sa >= sb) branch_to(pc + imm);
      break;
    case K::kBltu:
      if (a < b) branch_to(pc + imm);
      break;
    case K::kBgeu:
      if (a >= b) branch_to(pc + imm);
      break;
    case K::kAddi:
      WriteReg(op.d.rd, a + imm);
      break;
    case K::kSlti:
      WriteReg(op.d.rd, sa < static_cast<int32_t>(imm) ? 1 : 0);
      break;
    case K::kSltiu:
      WriteReg(op.d.rd, a < imm ? 1 : 0);
      break;
    case K::kXori:
      WriteReg(op.d.rd, a ^ imm);
      break;
    case K::kOri:
      WriteReg(op.d.rd, a | imm);
      break;
    case K::kAndi:
      WriteReg(op.d.rd, a & imm);
      break;
    case K::kSlli:
      WriteReg(op.d.rd, a << (imm & 31));
      break;
    case K::kSrli:
      WriteReg(op.d.rd, a >> (imm & 31));
      break;
    case K::kSrai:
      WriteReg(op.d.rd, static_cast<uint32_t>(sa >> (imm & 31)));
      break;
    case K::kAdd:
      WriteReg(op.d.rd, a + b);
      break;
    case K::kSub:
      WriteReg(op.d.rd, a - b);
      break;
    case K::kSll:
      WriteReg(op.d.rd, a << (b & 31));
      break;
    case K::kSlt:
      WriteReg(op.d.rd, sa < sb ? 1 : 0);
      break;
    case K::kSltu:
      WriteReg(op.d.rd, a < b ? 1 : 0);
      break;
    case K::kXor:
      WriteReg(op.d.rd, a ^ b);
      break;
    case K::kSrl:
      WriteReg(op.d.rd, a >> (b & 31));
      break;
    case K::kSra:
      WriteReg(op.d.rd, static_cast<uint32_t>(sa >> (b & 31)));
      break;
    case K::kOr:
      WriteReg(op.d.rd, a | b);
      break;
    case K::kAnd:
      WriteReg(op.d.rd, a & b);
      break;
    case K::kFence:
      break;  // no-op: the model is sequentially consistent
    case K::kMul:
      WriteReg(op.d.rd, a * b);
      break;
    case K::kMulh:
      WriteReg(op.d.rd, static_cast<uint32_t>(
                            (static_cast<int64_t>(sa) * static_cast<int64_t>(sb)) >> 32));
      break;
    case K::kMulhsu:
      WriteReg(op.d.rd, static_cast<uint32_t>(
                            (static_cast<int64_t>(sa) * static_cast<uint64_t>(b)) >> 32));
      break;
    case K::kMulhu:
      WriteReg(op.d.rd, static_cast<uint32_t>(
                            (static_cast<uint64_t>(a) * static_cast<uint64_t>(b)) >> 32));
      break;
    case K::kDiv:
      WriteReg(op.d.rd, b == 0 ? 0xFFFFFFFFu
                        : (sa == INT32_MIN && sb == -1)
                            ? static_cast<uint32_t>(INT32_MIN)
                            : static_cast<uint32_t>(sa / sb));
      break;
    case K::kDivu:
      WriteReg(op.d.rd, b == 0 ? 0xFFFFFFFFu : a / b);
      break;
    case K::kRem:
      WriteReg(op.d.rd, b == 0 ? a
                        : (sa == INT32_MIN && sb == -1) ? 0
                                                        : static_cast<uint32_t>(sa % sb));
      break;
    case K::kRemu:
      WriteReg(op.d.rd, b == 0 ? a : a % b);
      break;
    case K::kEcall:
      TakeException(ExcCause::kEcall, pc, 0, op.d.raw, pc + 4, op.metal);
      retire = false;
      break;
    case K::kEbreak:
      TakeException(ExcCause::kBreakpoint, pc, 0, op.d.raw, pc + 4, op.metal);
      retire = false;
      break;
    case K::kHalt:
      halted_ = true;
      exit_code_ = a;
      break;
    case K::kMenter: {
      // Slow path: fast_transition disabled, DRAM-resident mroutines, or an
      // unconfigured entry (which faults).
      const uint32_t handler = metal_.EntryAddress(static_cast<uint32_t>(op.d.imm) & 63);
      if (handler == 0) {
        TakeException(ExcCause::kIllegalInstruction, pc, 0, op.d.raw, pc + 4, op.metal);
        retire = false;
        break;
      }
      tracer_.Emit(TraceEventKind::kMenter, pc, static_cast<uint32_t>(op.d.imm) & 63,
                   handler);
      metal_.SetTrapState(0, pc, 0, op.d.raw);
      metal_.WriteMreg(kMetalLinkRegister, pc + 4);
      arch_metal_ = true;
      frontend_metal_ = true;
      last_metal_entry_ = static_cast<uint8_t>(op.d.imm & 63);
      ++stats_.menters;
      ++stats_.control_flushes;
      RedirectFetch(handler);
      break;
    }
    case K::kMexit: {
      const uint32_t resume = metal_.ReadMreg(kMetalLinkRegister);
      // A machine-check recovery mroutine may point m31 at MEPC to retry the
      // aborted mroutine: an MRAM-resident resume address keeps Metal
      // privileges, and the hardware restores m31 from MCHECKM31 so the
      // retried mroutine's own mexit still returns to the interrupted
      // program (docs/robustness.md).
      const bool resume_metal = Mram::InCodeRange(resume);
      // arg1 bit 0: Metal mode retained across the exit; bit 1: this exit
      // ends a machine-check recovery with a retained-mode resume — the
      // scrub-and-retry path, which re-enters the aborted mroutine without a
      // fresh delivery event (span tracing keys the retry span off this).
      const uint32_t exit_flags = (resume_metal ? 1u : 0u) |
                                  ((in_machine_check_ && resume_metal) ? 2u : 0u);
      tracer_.Emit(TraceEventKind::kMexit, pc, resume, exit_flags, /*metal=*/true);
      arch_metal_ = resume_metal;
      frontend_metal_ = resume_metal;
      if (resume_metal) {
        metal_.WriteMreg(kMetalLinkRegister,
                         metal_.ReadCreg(kCrMcheckM31, cycle_, stats_.instret,
                                         intc_.pending()));
      }
      in_machine_check_ = false;
      ++stats_.mexits;
      uint8_t rd = 0;
      uint32_t value = 0;
      if (metal_.TakePendingWriteback(&rd, &value)) {
        WriteReg(rd, value);
      }
      ++stats_.control_flushes;
      RedirectFetch(resume);
      break;
    }
    case K::kRmr:
      WriteReg(op.d.rd, metal_.ReadMreg(static_cast<uint8_t>(op.d.imm & 31)));
      break;
    case K::kWmr:
      metal_.WriteMreg(static_cast<uint8_t>(op.d.imm & 31), a);
      break;
    case K::kRcr:
      WriteReg(op.d.rd, metal_.ReadCreg(static_cast<uint32_t>(op.d.imm) & 0xFF, cycle_,
                                        stats_.instret, intc_.pending()));
      break;
    case K::kWcr: {
      const uint32_t creg = static_cast<uint32_t>(op.d.imm) & 0xFF;
      if (creg == kCrMramScrub) {
        // Write-only trigger: restore parity-failing MRAM words from the
        // shadow copy (the recovery mroutine's repair step).
        mram_.Scrub();
      } else {
        metal_.WriteCreg(creg, a);
      }
      break;
    }
    case K::kTlbwr:
      mmu_.tlb().Insert(a, b, metal_.asid());
      break;
    case K::kTlbinv:
      mmu_.tlb().InvalidateVaddr(a, metal_.asid());
      break;
    case K::kTlbflush:
      if (op.d.rs1 == 0) {
        mmu_.tlb().FlushAll();
      } else {
        mmu_.tlb().FlushAsid(static_cast<uint16_t>(a));
      }
      break;
    case K::kTlbrd:
      WriteReg(op.d.rd, mmu_.tlb().Probe(a, metal_.asid()));
      break;
    case K::kMintset:
      metal_.ApplyMintset(a, b);
      break;
    case K::kMopr: {
      const OperandLatch& latch = metal_.operands();
      uint32_t value = 0;
      switch (op.d.rs2) {
        case kMoprRs1Value:
          value = latch.rs1_value;
          break;
        case kMoprRs2Value:
          value = latch.rs2_value;
          break;
        case kMoprImm:
          value = static_cast<uint32_t>(latch.imm);
          break;
        case kMoprRdIndex:
          value = latch.rd_index;
          break;
        case kMoprRaw:
          value = latch.raw;
          break;
        case kMoprRs1Index:
          value = latch.rs1_index;
          break;
        case kMoprRs2Index:
          value = latch.rs2_index;
          break;
        default:
          break;
      }
      WriteReg(op.d.rd, value);
      break;
    }
    case K::kMopw:
      metal_.SetPendingWriteback(a);
      break;
    default:
      TakeException(ExcCause::kIllegalInstruction, pc, 0, op.d.raw, pc + 4, op.metal);
      retire = false;
      break;
  }

  if (retire) {
    ++stats_.instret;
    if (op.metal) {
      ++stats_.metal_instret;
    }
    tracer_.Emit(TraceEventKind::kRetire, op.pc, op.d.raw, 0, op.metal);
  }
}

// ---------------------------------------------------------------------------
// ID stage
// ---------------------------------------------------------------------------

bool Core::InterruptDeliverable() const {
  if (arch_metal_ || frontend_metal_ || inflight_mode_ops_ != 0) {
    return false;  // mroutines are non-interruptible
  }
  return (intc_.pending() & metal_.ienable()) != 0;
}

void Core::IdReplacementChain(Op& op) {
  if (!config_.fast_transition || config_.mroutine_storage != MroutineStorage::kMram) {
    return;
  }
  for (int guard = 0; guard < 4; ++guard) {
    if (op.d.kind == InstrKind::kMenter && !op.metal) {
      const uint32_t handler = metal_.EntryAddress(static_cast<uint32_t>(op.d.imm) & 63);
      if (!Mram::InCodeRange(handler)) {
        return;  // unconfigured entry: let EX raise the fault
      }
      // Predecoded combinational MRAM read (same contract as AccessFetch: a
      // generation hit trusts the cached word and skips the parity check; a
      // word that fails decode still reaches EX and traps identically to the
      // slow path, because the cached decode IS the decode of the fetched
      // word).
      const uint64_t gen = mram_.generation();
      Decoded d;
      if (const Decoded* hit = predecode_.Find(handler, gen)) {
        mram_.NoteCachedFetch(handler);
        d = *hit;
      } else {
        const auto word = mram_.FetchWord(handler);
        if (!word) {
          return;
        }
        if (mram_.CodeParityError(handler)) {
          // Corrupted first instruction: fall back to the EX slow path, whose
          // redirected fetch re-detects the mismatch and machine-checks.
          return;
        }
        if (const Decoded* verified = predecode_.Verify(handler, gen, *word)) {
          d = *verified;
        } else {
          d = DecodeInstr(*word);
          predecode_.Insert(handler, gen, *word, d);
        }
      }
      // Replace menter with the first mroutine instruction (paper §2.2).
      if (!op.has_transition()) {
        ++inflight_mode_ops_;
      }
      if (op.chain_len < op.chain.size()) {
        op.chain[op.chain_len++] =
            ChainStep{true, static_cast<uint8_t>(op.d.imm & 63), op.pc, handler};
      }
      ++op.enters;
      op.link = op.pc + 4;
      op.pc = handler;
      op.metal = true;
      op.d = d;
      op.intercepted = false;
      frontend_metal_ = true;
      ++stats_.fast_replacements;
      // Steer fetch to the second mroutine instruction, without counting a
      // control flush (this is the zero-bubble path).
      ResetFetch(handler + 4);
      continue;
    }
    if (op.d.kind == InstrKind::kMexit && op.metal) {
      // Within a chain, the effective m31 is the link of the pending menter.
      const uint32_t resume =
          op.enters != 0 ? op.link : metal_.ReadMreg(kMetalLinkRegister);
      // The replacement needs the resume instruction immediately; that only
      // works when it is resident (I-cache hit on a translated address).
      // Otherwise fall back to the EX slow path (plain redirect) and let the
      // normal fetch machinery (and its faults) take over.
      uint32_t paddr = resume;
      if ((resume & 3) != 0 || Mram::InCodeRange(resume)) {
        return;
      }
      if (metal_.paging_enabled()) {
        const TranslateResult tr =
            mmu_.Translate(resume, AccessType::kFetch, metal_.asid(), metal_.keyperm());
        if (!tr.ok) {
          return;
        }
        paddr = tr.paddr;
      }
      if (paddr >= kMmioBase || !icache_.Probe(paddr)) {
        return;
      }
      const uint64_t gen = bus_.dram().write_generation();
      Decoded d;
      if (const Decoded* hit = predecode_.Find(paddr, gen)) {
        d = *hit;
      } else {
        const auto word = bus_.dram().Read32(paddr);
        if (!word) {
          return;
        }
        if (const Decoded* verified = predecode_.Verify(paddr, gen, *word)) {
          d = *verified;
        } else {
          d = DecodeInstr(*word);
          predecode_.Insert(paddr, gen, *word, d);
        }
      }
      icache_.Access(paddr);  // count the hit
      if (!op.has_transition()) {
        ++inflight_mode_ops_;
      }
      if (op.chain_len < op.chain.size()) {
        op.chain[op.chain_len++] = ChainStep{false, 0, op.pc, resume};
      }
      ++op.exits;
      op.pc = resume;
      op.metal = false;
      op.d = d;
      frontend_metal_ = false;
      ++stats_.fast_replacements;
      ResetFetch(resume + 4);
      // The resumed instruction executes in normal mode: interception applies.
      if (metal_.AnyInterceptEnabled()) {
        if (const InterceptSlot* slot = metal_.MatchIntercept(op.d.raw)) {
          op.intercepted = true;
          op.intercept_entry = slot->entry;
        }
      }
      continue;
    }
    return;
  }
}

void Core::StageId() {
  if (redirect_this_cycle_ || !if_id_.valid || id_ex_.valid) {
    return;
  }
  Op op;
  op.valid = true;
  op.pc = if_id_.pc;
  op.metal = if_id_.metal;
  op.fetch_fault = if_id_.fault;
  op.fetch_fault_addr = if_id_.fault_addr;

  if (op.fetch_fault == ExcCause::kNone) {
    op.d = if_id_.d;  // predecoded at fetch (AccessFetch)

    // Load-use hazard: the load is in EX this cycle; stall one cycle.
    if (ex_load_this_cycle_ && InstrReadsGpr(op.d, ex_load_rd_)) {
      ++stats_.load_use_stalls;
      tracer_.Emit(TraceEventKind::kStall, op.pc, /*arg0=*/0, 0, op.metal);
      return;  // keep if_id_
    }

    // Interrupt delivery at an instruction boundary (normal mode only).
    if (InterruptDeliverable()) {
      const uint32_t line = LowestSetBit(intc_.pending() & metal_.ienable());
      ++stats_.interrupts;
      TakeTrapToEntry(metal_.IrqEntry(), InterruptCause(line), op.pc, 0, 0, op.pc,
                      /*faulting_op_is_metal=*/false);
      return;  // frontend flushed; the interrupted instruction re-fetches
    }

    // Instruction interception (normal mode only).
    if (!op.metal && metal_.AnyInterceptEnabled()) {
      if (const InterceptSlot* slot = metal_.MatchIntercept(op.d.raw)) {
        op.intercepted = true;
        op.intercept_entry = slot->entry;
      }
    }

    IdReplacementChain(op);
  }

  if_id_.valid = false;
  id_ex_ = op;
  id_ex_.valid = true;
}

// ---------------------------------------------------------------------------
// IF stage
// ---------------------------------------------------------------------------

Core::FetchResult Core::AccessFetch(uint32_t pc, bool metal_frontend, bool timing) {
  FetchResult r;
  if ((pc & 3) != 0) {
    r.fault = ExcCause::kMisalignedFetch;
    r.fault_addr = pc;
    return r;
  }
  if (Mram::InCodeRange(pc)) {
    if (!metal_frontend) {
      r.fault = ExcCause::kPrivilegeViolation;
      r.fault_addr = pc;
      return r;
    }
    // Predecoded MRAM fetch. A generation hit means no MRAM write, scrub or
    // injected corruption since the fill, so the cached word is the backing
    // word and the parity re-check (which passed at fill time) is skipped —
    // parity state cannot change without the generation changing.
    const uint64_t gen = mram_.generation();
    if (const Decoded* hit = predecode_.Find(pc, gen)) {
      mram_.NoteCachedFetch(pc);  // count + trace exactly like FetchWord
      r.ok = true;
      r.raw = hit->raw;
      r.d = *hit;
      r.latency = config_.mram_latency;
      return r;
    }
    const auto word = mram_.FetchWord(pc);
    if (!word) {
      r.fault = ExcCause::kBusError;
      r.fault_addr = pc;
      return r;
    }
    if (mram_.CodeParityError(pc)) {
      // The word is untrustworthy; deliver a machine check instead of
      // decoding it (the EX stage maps this cause to kMramCodeParity). Not
      // cached: a parity-failing word must keep failing on every fetch.
      r.fault = ExcCause::kMachineCheck;
      r.fault_addr = pc;
      return r;
    }
    r.ok = true;
    r.raw = *word;
    if (const Decoded* verified = predecode_.Verify(pc, gen, *word)) {
      r.d = *verified;
    } else {
      r.d = DecodeInstr(*word);
      predecode_.Insert(pc, gen, *word, r.d);
    }
    r.latency = config_.mram_latency;
    return r;
  }
  uint32_t paddr = pc;
  if (!metal_frontend && metal_.paging_enabled()) {
    const TranslateResult tr =
        mmu_.Translate(pc, AccessType::kFetch, metal_.asid(), metal_.keyperm());
    if (!tr.ok) {
      r.fault = tr.fault;
      r.fault_addr = pc;
      return r;
    }
    paddr = tr.paddr;
  }
  if (paddr >= kMmioBase) {
    r.fault = ExcCause::kBusError;
    r.fault_addr = pc;
    return r;
  }
  // Predecoded DRAM fetch, keyed on the physical word address (virtual
  // aliases of one physical line share the entry) and the DRAM write
  // generation (every store path — pipeline, loader, host helpers — funnels
  // through PhysicalMemory and bumps it, so self-modifying code misses).
  const uint64_t gen = bus_.dram().write_generation();
  if (const Decoded* hit = predecode_.Find(paddr, gen)) {
    r.ok = true;
    r.raw = hit->raw;
    r.d = *hit;
  } else {
    const auto word = bus_.dram().Read32(paddr);
    if (!word) {
      r.fault = ExcCause::kBusError;
      r.fault_addr = pc;
      return r;
    }
    r.ok = true;
    r.raw = *word;
    if (const Decoded* verified = predecode_.Verify(paddr, gen, *word)) {
      r.d = *verified;
    } else {
      r.d = DecodeInstr(*word);
      predecode_.Insert(paddr, gen, *word, r.d);
    }
  }
  if (metal_frontend && config_.mroutine_storage == MroutineStorage::kDramUncached) {
    // PALcode-style handler: fetched uncached from main memory.
    r.latency = config_.dram_latency;
  } else if (timing) {
    r.latency = icache_.Access(paddr);
  } else {
    r.latency = config_.cache_hit_latency;
  }
  return r;
}

void Core::StageIf() {
  if (redirect_this_cycle_) {
    return;  // fetch restarts at the redirect target next cycle
  }
  // Deliver a previously completed fetch.
  if (fetch_buffer_.valid) {
    if (if_id_.valid) {
      return;  // decode is stalled; hold
    }
    if_id_ = fetch_buffer_;
    fetch_buffer_.valid = false;
  }
  // Start a new fetch if the unit is idle and the skid buffer is free.
  if (!fetch_inflight_ && !fetch_buffer_.valid) {
    const FetchResult r = AccessFetch(fetch_pc_, frontend_metal_, /*timing=*/true);
    fetch_inflight_ = true;
    fetch_wait_ = r.ok ? r.latency : 1;
    fetch_buffer_.pc = fetch_pc_;
    fetch_buffer_.raw = r.raw;
    fetch_buffer_.d = r.d;
    fetch_buffer_.metal = frontend_metal_;
    fetch_buffer_.fault = r.fault;
    fetch_buffer_.fault_addr = r.fault_addr;
    fetch_buffer_.valid = false;  // becomes valid when the wait elapses
  }
  // Progress the in-flight fetch.
  if (fetch_inflight_) {
    if (fetch_wait_ > 0) {
      --fetch_wait_;
    }
    if (fetch_wait_ == 0) {
      fetch_inflight_ = false;
      fetch_buffer_.valid = true;
      fetch_pc_ += 4;
      // Same-cycle delivery when the decode slot is free (1-cycle fetch).
      if (!if_id_.valid) {
        if_id_ = fetch_buffer_;
        fetch_buffer_.valid = false;
      }
    }
  }
}

// --- checkpoint/restore ------------------------------------------------------
//
// The pipeline latches are serialized field by field; Decoded is rebuilt from
// the raw instruction word on restore (DecodeInstr is pure), so the format
// does not depend on the decoder's in-memory representation.

void Core::SaveState(SnapWriter& w, bool include_dram) const {
  for (uint32_t reg : regs_) {
    w.U32(reg);
  }
  w.U64(cycle_);

  // Fetch unit + IF/ID latch.
  w.U32(fetch_pc_);
  w.Bool(frontend_metal_);
  w.Bool(fetch_inflight_);
  w.U32(fetch_wait_);
  for (const FetchSlot* slot : {&fetch_buffer_, &if_id_}) {
    w.Bool(slot->valid);
    w.U32(slot->pc);
    w.U32(slot->raw);
    w.Bool(slot->metal);
    w.U32(static_cast<uint32_t>(slot->fault));
    w.U32(slot->fault_addr);
  }

  // ID/EX latch.
  w.Bool(id_ex_.valid);
  w.U32(id_ex_.pc);
  w.U32(id_ex_.d.raw);
  w.Bool(id_ex_.metal);
  w.U8(id_ex_.enters);
  w.U8(id_ex_.exits);
  w.U32(id_ex_.link);
  w.U8(id_ex_.chain_len);
  for (const ChainStep& step : id_ex_.chain) {
    w.Bool(step.is_enter);
    w.U8(step.entry);
    w.U32(step.pc);
    w.U32(step.target);
  }
  w.Bool(id_ex_.intercepted);
  w.U8(id_ex_.intercept_entry);
  w.U32(static_cast<uint32_t>(id_ex_.fetch_fault));
  w.U32(id_ex_.fetch_fault_addr);

  // EX/MEM latch.
  w.Bool(ex_mem_.valid);
  w.U32(ex_mem_.pc);
  w.U32(static_cast<uint32_t>(ex_mem_.kind));
  w.Bool(ex_mem_.metal);
  w.Bool(ex_mem_.is_store);
  w.U32(ex_mem_.vaddr);
  w.U32(ex_mem_.paddr);
  w.U32(ex_mem_.store_value);
  w.U32(ex_mem_.raw);
  w.U8(ex_mem_.rd);
  w.U32(ex_mem_.wait);
  w.U8(static_cast<uint8_t>(ex_mem_.target));

  // Mode / machine-check / hazard bookkeeping.
  w.Bool(arch_metal_);
  w.U32(static_cast<uint32_t>(inflight_mode_ops_));
  w.Bool(in_machine_check_);
  w.U64(metal_resident_cycles_);
  w.U8(last_metal_entry_);
  w.Bool(bus_fault_armed_);
  w.U32(bus_fault_and_);
  w.U32(bus_fault_xor_);
  w.Bool(ex_load_this_cycle_);
  w.U8(ex_load_rd_);
  w.Bool(redirect_this_cycle_);

  // Run outcome.
  w.Bool(halted_);
  w.U32(exit_code_);
  w.Bool(has_fatal_);
  w.U32(static_cast<uint32_t>(fatal_.code()));
  w.Str(fatal_.message());

  // Statistics.
  w.U64(stats_.cycles);
  w.U64(stats_.instret);
  w.U64(stats_.metal_instret);
  w.U64(stats_.metal_cycles);
  w.U64(stats_.menters);
  w.U64(stats_.mexits);
  w.U64(stats_.fast_replacements);
  w.U64(stats_.exceptions);
  w.U64(stats_.interrupts);
  w.U64(stats_.intercepts);
  w.U64(stats_.control_flushes);
  w.U64(stats_.load_use_stalls);
  w.U64(stats_.machine_checks);
  w.U64(stats_.watchdog_fires);

  // Predecode cache: contents AND counters, so a restored run's stats-json
  // stays byte-identical to the uninterrupted run (snapshot version 2).
  predecode_.SaveState(w);

  // Components.
  metal_.SaveState(w);
  mram_.SaveState(w);
  mmu_.tlb().SaveState(w);
  icache_.SaveState(w);
  dcache_.SaveState(w);
  intc_.SaveState(w);
  timer_.SaveState(w);
  nic_.SaveState(w);
  console_.SaveState(w);

  w.Bool(include_dram);
  if (include_dram) {
    bus_.dram().SaveState(w);
  }
}

Status Core::RestoreState(SnapReader& r) {
  // Restore replaces DRAM wholesale: every cached trace's raw words are
  // suspect. Trace state is not part of this stream (it is architecturally
  // invisible, like the stepping mode); msim restores it from the optional
  // "superblocks" snapshot section afterwards.
  superblocks_.InvalidateAll();
  for (uint32_t& reg : regs_) {
    reg = r.U32();
  }
  cycle_ = r.U64();

  fetch_pc_ = r.U32();
  frontend_metal_ = r.Bool();
  fetch_inflight_ = r.Bool();
  fetch_wait_ = r.U32();
  for (FetchSlot* slot : {&fetch_buffer_, &if_id_}) {
    slot->valid = r.Bool();
    slot->pc = r.U32();
    slot->raw = r.U32();
    slot->metal = r.Bool();
    slot->fault = static_cast<ExcCause>(r.U32());
    slot->fault_addr = r.U32();
    // Rebuilt, not serialized: DecodeInstr is pure, and `d` is only consulted
    // for faultless slots, whose raw word is the real fetched word.
    slot->d = DecodeInstr(slot->raw);
  }

  id_ex_.valid = r.Bool();
  id_ex_.pc = r.U32();
  id_ex_.d = DecodeInstr(r.U32());
  id_ex_.metal = r.Bool();
  id_ex_.enters = r.U8();
  id_ex_.exits = r.U8();
  id_ex_.link = r.U32();
  id_ex_.chain_len = r.U8();
  for (ChainStep& step : id_ex_.chain) {
    step.is_enter = r.Bool();
    step.entry = r.U8();
    step.pc = r.U32();
    step.target = r.U32();
  }
  id_ex_.intercepted = r.Bool();
  id_ex_.intercept_entry = r.U8();
  id_ex_.fetch_fault = static_cast<ExcCause>(r.U32());
  id_ex_.fetch_fault_addr = r.U32();

  ex_mem_.valid = r.Bool();
  ex_mem_.pc = r.U32();
  ex_mem_.kind = static_cast<InstrKind>(r.U32());
  ex_mem_.metal = r.Bool();
  ex_mem_.is_store = r.Bool();
  ex_mem_.vaddr = r.U32();
  ex_mem_.paddr = r.U32();
  ex_mem_.store_value = r.U32();
  ex_mem_.raw = r.U32();
  ex_mem_.rd = r.U8();
  ex_mem_.wait = r.U32();
  ex_mem_.target = static_cast<MemOp::Target>(r.U8());

  arch_metal_ = r.Bool();
  inflight_mode_ops_ = static_cast<int>(r.U32());
  in_machine_check_ = r.Bool();
  metal_resident_cycles_ = r.U64();
  last_metal_entry_ = r.U8();
  bus_fault_armed_ = r.Bool();
  bus_fault_and_ = r.U32();
  bus_fault_xor_ = r.U32();
  ex_load_this_cycle_ = r.Bool();
  ex_load_rd_ = r.U8();
  redirect_this_cycle_ = r.Bool();

  halted_ = r.Bool();
  exit_code_ = r.U32();
  has_fatal_ = r.Bool();
  const uint32_t fatal_code = r.U32();
  const std::string fatal_message = r.Str();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core fatal status"));
  fatal_ = fatal_code == 0 ? Status::Ok()
                           : Status(static_cast<ErrorCode>(fatal_code), fatal_message);

  stats_.cycles = r.U64();
  stats_.instret = r.U64();
  stats_.metal_instret = r.U64();
  stats_.metal_cycles = r.U64();
  stats_.menters = r.U64();
  stats_.mexits = r.U64();
  stats_.fast_replacements = r.U64();
  stats_.exceptions = r.U64();
  stats_.interrupts = r.U64();
  stats_.intercepts = r.U64();
  stats_.control_flushes = r.U64();
  stats_.load_use_stalls = r.U64();
  stats_.machine_checks = r.U64();
  stats_.watchdog_fires = r.U64();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core scalar state"));

  MSIM_RETURN_IF_ERROR(predecode_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(metal_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(mram_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(mmu_.tlb().RestoreState(r));
  MSIM_RETURN_IF_ERROR(icache_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(dcache_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(intc_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(timer_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(nic_.RestoreState(r));
  MSIM_RETURN_IF_ERROR(console_.RestoreState(r));

  const bool has_dram = r.Bool();
  MSIM_RETURN_IF_ERROR(r.ToStatus("core dram flag"));
  if (has_dram) {
    MSIM_RETURN_IF_ERROR(bus_.dram().RestoreState(r));
  }
  return Status::Ok();
}

uint64_t Core::StateDigest(bool include_dram) const {
  SnapWriter w(SnapWriter::Mode::kDigestOnly);
  SaveState(w, include_dram);
  return w.digest();
}

}  // namespace msim
