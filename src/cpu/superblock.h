// Superblock translation tier: chained decoded traces over the predecode
// cache, the hot-path stepping tier of Core::StepFast (docs/performance.md).
//
// A superblock is a straight-line run of trace-safe DRAM instructions
// starting at a pipeline refill point (a branch target or a cold entry),
// extended THROUGH not-taken conditional branches and terminated by an
// unconditional jump (jal/jalr), the first trace-unsafe or unfetchable
// word, the DRAM/MMIO segment boundary, or kSuperblockMaxLen instructions.
// Core::StepFast executes whole traces with a computed-goto inner loop over
// pre-extracted operand fields, dispatching once per instruction instead of
// re-deciding hazards, branch direction and decode per cycle; a taken
// branch whose target starts another cached trace chains directly into it.
//
// Beyond straight-line ALU and branch code, traces hold:
//   * Memory-op slots. lw/lh/lhu/lb/lbu/sw/sh/sb join traces. At execution
//     time a memory slot takes the fast path only when the access is
//     TLB-resident with the required permission (paging on), a dcache hit,
//     and DRAM-targeted (never MRAM or device MMIO); anything else exits the
//     trace uncommitted and replays through the per-cycle machinery. The
//     executor models the MEM stage as a one-cycle pending op completed at
//     the top of the next committed cycle (StageMem runs before StageEx),
//     including load-use stall bubbles and the fetch skid buffer the stall
//     leaves engaged, so N trace cycles stay byte-identical to N
//     Core::StepCycle calls.
//   * Trace trees. Conditional branch slots carry taken/not-taken counters;
//     when a branch is observed strongly biased toward taken, the hot
//     successor is built as an additional SEGMENT of the same superblock
//     (SbSegment) and the branch links to it, so the taken edge replays
//     in-trace (the architectural two-cycle flush still happens — trees buy
//     immunity from trace-cache conflict eviction and skip the per-chain
//     cache lookup, not pipeline cycles). Growth is bounded by
//     kSuperblockMaxTrees and happens only outside the executor (slot
//     storage may reallocate).
//
// Byte-exactness is the contract, exactly as for the predecode cache below
// it: N cycles through a superblock leave machine state byte-identical to N
// Core::StepCycle calls (enforced by `msim replay --b-no-fast-step`, the
// mfuzz "faststep" oracle and the superblock_test digest matrix). Three
// mechanisms carry the contract:
//   * Entry guards. Traces run only inside StepFast, so every StepFast
//     entry guard (no fault engine, not Metal, no pending interrupt,
//     device-event horizon, the pipeline at a refill point with both latches
//     and MEM empty) is already established; trace entry additionally
//     requires every icache line spanning the entered segment resident,
//     and — with paging on — a single consistent virtual-to-physical delta
//     for the segment's pages.
//     The horizon stays valid across a whole trace because device state is
//     MMIO-only and memory slots are DRAM-only.
//   * Per-fetch revalidation. Each trace slot records the raw word it was
//     built from. Every simulated fetch still consults the predecode cache
//     (side-effect-free Peek before the cycle commits, the counting
//     Verify/Insert after), so predecode hit/verified/miss counters match a
//     per-cycle run exactly, and a slot whose raw word no longer matches the
//     backing store invalidates the whole trace before any cycle commits.
//   * Generation-driven invalidation. The Peek/Verify pair keys on
//     PhysicalMemory::write_generation. In-trace stores bump it mid-trace:
//     the cycle that completes a pending store checks the fetched word
//     against the post-store bytes (merging the store into the backing word
//     BEFORE committing), so a store into the executing trace's own backing
//     words — self-modifying code — exits and invalidates before the cycle
//     commits, and every same-cycle fetch takes the Verify/Insert path a
//     per-cycle run would take under the bumped generation.
//
// Trace state is NOT part of Core::SaveState — the tier is architecturally
// invisible and snapshots stay portable across it. msim serializes the cache
// and its counters as a "superblocks" snapshot extras section instead
// (tools/msim_main.cc), so a restored run reports the same --stats-json
// superblock counters as the straight run; a snapshot without the section
// simply restores to a cold cache. Tree links and bias counters serialize
// with the traces, so a restored run grows the same trees at the same cycles
// as the straight run.
#ifndef MSIM_CPU_SUPERBLOCK_H_
#define MSIM_CPU_SUPERBLOCK_H_

#include <cstdint>
#include <vector>

#include "isa/decode.h"
#include "support/result.h"
#include "trace/metrics.h"

namespace msim {

class PhysicalMemory;
class Mmu;
class SnapWriter;
class SnapReader;

// True for the kinds the superblock build walk admits: faultless 1-cycle
// ALU/branch work with no Metal state, plus the DRAM loads/stores the trace
// executor models with a pending MEM op. Everything else — menter/mexit,
// ecall/ebreak/halt and every Metal-only kind — ends a trace.
bool TraceSafeInstr(InstrKind kind);

// True if the decoded instruction reads GPR `reg`. This is the load-use
// hazard predicate StageId applies per cycle; the build walk applies it
// statically to mark load slots whose successor stalls (SbSlot::stall_after).
bool InstrReadsGpr(const Decoded& d, uint8_t reg);

// Executor opcode: the computed-goto dispatch index. Operands are
// pre-extracted at build time (pc-relative constants folded, shift amounts
// pre-masked) so the inner loop reads fields, never re-decodes.
enum class SbExec : uint8_t {
  kConst = 0,  // rd <- cval (lui, auipc)
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence,      // architectural no-op
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  kJal,        // rd <- cval (pc+4); always redirects to target
  kJalr,       // rd <- cval (pc+4); redirects to (rs1 + imm) & ~1
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  // Memory-op slots. kLb is the first: `exec >= SbExec::kLb` tests
  // "is a memory slot" in the executor and the exit materialization.
  kLb, kLbu, kLh, kLhu, kLw,
  kSb, kSh, kSw,
  kCount,
};

// Executor slot-class predicates (dense SbExec ranges; see the enum order).
inline bool SbIsMem(SbExec e) { return e >= SbExec::kLb; }
inline bool SbIsLoad(SbExec e) { return e >= SbExec::kLb && e <= SbExec::kLw; }
inline bool SbIsStore(SbExec e) { return e >= SbExec::kSb; }
inline bool SbIsCondBranch(SbExec e) { return e >= SbExec::kBeq && e <= SbExec::kBgeu; }

// Access width in bytes of a memory slot.
inline uint32_t SbMemSize(SbExec e) {
  switch (e) {
    case SbExec::kLb:
    case SbExec::kLbu:
    case SbExec::kSb:
      return 1;
    case SbExec::kLh:
    case SbExec::kLhu:
    case SbExec::kSh:
      return 2;
    default:
      return 4;
  }
}

// Branch-slot tree-link states (SbSlot::taken_seg).
inline constexpr int16_t kSbSegUnlinked = -1;  // counting; may still grow
inline constexpr int16_t kSbSegNoGrow = -2;    // growth tried/refused: stop counting

struct SbSlot {
  SbExec exec = SbExec::kFence;
  uint8_t rd = 0;    // pre-masked to 5 bits; 0 means "no writeback"
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  // Load slot whose rd the NEXT slot reads: dispatching it costs the
  // load-use stall cycle plus a bubble, computed at build time (the dynamic
  // StageId check is a pure function of two adjacent slots).
  bool stall_after = false;
  // Conditional branches: segment index inlining the taken successor, or a
  // kSbSeg* state. Never 0 (the root segment is entered only via Lookup).
  int16_t taken_seg = kSbSegUnlinked;
  uint32_t taken_n = 0;     // taken-branch bias counters; frozen once linked
  uint32_t nottaken_n = 0;
  uint32_t imm = 0;     // imm32; shift amounts pre-masked to 5 bits
  uint32_t cval = 0;    // folded constant: lui/auipc result, jal/jalr link
  uint32_t target = 0;  // pc + imm for branches and jal
  uint32_t addr = 0;    // the word's virtual address within its segment
  uint32_t raw = 0;     // raw word at build time; revalidated per fetch
  Decoded d;            // for latch-payload writeback and predecode Insert
};

// One straight-line run of a trace tree. Segment 0 is the root (the trace's
// only Lookup entry point); segments >= 1 are grown taken-branch successors
// entered exclusively through their linking branch slot's taken edge.
struct SbSegment {
  uint32_t start = 0;     // virtual address of the segment's first slot
  uint32_t base = 0;      // index of that slot in Superblock::slots
  uint32_t exec_len = 0;  // executable slots (>= kSuperblockMinLen)
  uint32_t len = 0;       // total slots including the fetch-only tail
};

struct Superblock {
  bool valid = false;
  uint32_t start = 0;     // root segment start; the only Lookup entry point
  uint32_t exec_len = 0;  // root segment executable slots (mirror of segs[0])
  // Root segment total slots including up to two trailing FETCH-ONLY slots:
  // the pipeline fetches two words past the last executable slot before a
  // terminal branch resolves (one speculative fall-through fetch per
  // unresolved stage), and recording those words lets the hot taken-branch
  // back edge of a loop execute fully in-trace. Fetch-only slots carry
  // addr/raw/d only; the executor exits before one would reach EX.
  uint32_t len = 0;
  // Flat slot storage for every segment (segs[i] spans
  // [segs[i].base, segs[i].base + segs[i].len)). Reallocates only outside
  // the executor (Build/MaybeGrow are never called while slot pointers are
  // live).
  std::vector<SbSlot> slots;
  std::vector<SbSegment> segs;
  // Deferred tree growth: a biased branch was observed at flat slot index
  // grow_slot; MaybeGrow (called at trace entry and chain points, never
  // inside a running segment) builds the successor segment.
  bool grow_pending = false;
  uint32_t grow_slot = 0;
};

struct SuperblockStats {
  uint64_t builds = 0;         // traces constructed (build walk succeeded)
  uint64_t executions = 0;     // trace entries at pipeline refill points
  uint64_t chains = 0;         // taken branches that chained trace-to-trace
  uint64_t instructions = 0;   // instructions retired inside traces
  uint64_t invalidations = 0;  // traces killed (stale raw word, InvalidateAll)
  uint64_t evictions = 0;      // builds that overwrote a different live trace
  // Memory-slot attribution (--stats-json; bench/CI regression
  // triage distinguishes "memory ops ran fast" from "memory ops threw the
  // trace out").
  uint64_t mem_fast_hits = 0;   // memory slots dispatched on the fast path
  uint64_t mem_slow_exits = 0;  // trace exits forced by a slow-path memory op
  uint64_t tree_grows = 0;        // successor segments built
  uint64_t tree_transitions = 0;  // taken branches that stayed in-trace via a segment
};

// Fetch-address resolver for the build walk and segment entry: maps a
// virtual word address to the physical address raw words live at. Identity
// when mmu is null (paging off). Pure: never counts, never traces.
struct SbAddrSpace {
  const Mmu* mmu = nullptr;
  uint16_t asid = 0;
  uint32_t keyperm = 0;
  // False on TLB miss / permission or key failure; *paddr untouched.
  bool Resolve(uint32_t vaddr, uint32_t* paddr) const;
};

// Direct-mapped trace cache, indexed by start address. Deterministic by
// construction: build-on-first-miss with overwrite eviction and
// entry-point-only growth, so cache contents are a pure function of the
// execution history (which checkpoint restore replays via the serialized
// trace list, tree links and bias counters).
class SuperblockCache {
 public:
  // Geometry is fixed (kSuperblockEntries); `enabled` off constructs an
  // empty cache that Lookup/Build treat as permanently cold.
  explicit SuperblockCache(bool enabled);

  bool enabled() const { return !traces_.empty(); }

  // Trace lookup for `pc`. No counters are touched: executions/chains are
  // counted by the executor, which may still reject the trace (icache lines
  // not resident).
  Superblock* Lookup(uint32_t pc) {
    if (traces_.empty()) {
      return nullptr;
    }
    Superblock& sb = traces_[Index(pc)];
    return (sb.valid && sb.start == pc) ? &sb : nullptr;
  }

  // Builds, caches and returns the trace starting at `start`, or nullptr if
  // no trace of at least kSuperblockMinLen trace-safe instructions exists
  // there. The walk is side-effect-free on machine state: raw words come
  // from PhysicalMemory::Read32 through `as` (current translation; a single
  // consistent delta per segment) and are revalidated per fetch at execution
  // time, so no generation is recorded. A failed walk stops at the first
  // offending word — re-probing an unsafe target costs O(1) decodes.
  Superblock* Build(uint32_t start, const PhysicalMemory& dram, const SbAddrSpace& as);

  // Applies a pending tree growth: builds the successor segment at the
  // biased branch's target and links the branch to it. Bounded by
  // kSuperblockMaxTrees grown segments per trace; a refused or failed growth
  // marks the branch kSbSegNoGrow so it is never retried. Reallocates
  // sb.slots — must not be called while executor slot pointers are live.
  void MaybeGrow(Superblock& sb, const PhysicalMemory& dram, const SbAddrSpace& as);

  // Kills one stale trace (raw word changed under a bumped generation).
  void Invalidate(Superblock& sb) {
    sb.valid = false;
    ++stats_.invalidations;
  }

  // Kills every trace (program load, snapshot restore). Counts one
  // invalidation only when at least one live trace died: unlike the
  // predecode cache this keeps the counter identical across stepping modes
  // (a run that never built a trace reports 0, whichever mode ran).
  void InvalidateAll();

  // Executor counter ports (Core::StepFast).
  void CountExecution() { ++stats_.executions; }
  void CountChain() { ++stats_.chains; }
  void CountTreeTransition() { ++stats_.tree_transitions; }
  void CountMemFastHit() { ++stats_.mem_fast_hits; }
  void CountMemSlowExit() { ++stats_.mem_slow_exits; }
  void CreditInstructions(uint64_t n) { stats_.instructions += n; }

  const SuperblockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SuperblockStats{}; }
  void RegisterMetrics(MetricRegistry& registry) const;

  // Checkpoint/restore for the msim "superblocks" snapshot extras section:
  // live traces as (segment geometry, raw words, tree links, bias counters)
  // plus the stats counters. Restore rebuilds slots by re-translating the
  // SERIALIZED raw words — not current DRAM — so a trace that had gone stale
  // in the checkpointed machine restores equally stale and dies at the same
  // future fetch, keeping restored-run counters byte-identical to the
  // straight run. Traces longer than kSuperblockMaxLen restore intact (the
  // bound gates new builds only). Reads and writes the segmented v2 section
  // format only.
  void SaveState(SnapWriter& w) const;
  Status RestoreState(SnapReader& r);

 private:
  uint32_t Index(uint32_t addr) const { return (addr >> 2) & mask_; }

  // Translates one decoded word at `pc` into an executor slot. False when
  // the kind has no executor op (trace-unsafe or unknown).
  static bool TranslateSlot(const Decoded& d, uint32_t pc, uint32_t raw, SbSlot* out);

  // Shared straight-line walk for Build (root segment) and MaybeGrow
  // (successor segments): appends the run starting at `start` to `slots`,
  // returning the executable length (0 if shorter than kSuperblockMinLen).
  uint32_t WalkSegment(uint32_t start, const PhysicalMemory& dram, const SbAddrSpace& as,
                       std::vector<SbSlot>* slots) const;

  std::vector<Superblock> traces_;
  uint32_t mask_ = 0;
  SuperblockStats stats_;
};

// Cache geometry: fixed so snapshot sections are portable across configs.
inline constexpr uint32_t kSuperblockEntries = 1024;
// Maximum executable instructions per trace segment.
inline constexpr uint32_t kSuperblockMaxLen = 64;
// Maximum tree segments grown past strongly biased conditional branches,
// per trace.
inline constexpr uint32_t kSuperblockMaxTrees = 8;
// Refilling the two pipeline latches costs two in-trace cycles before the
// first slot reaches EX, so a shorter trace could never execute anything.
inline constexpr uint32_t kSuperblockMinLen = 2;
// Restore-time sanity bound on serialized trace length (corrupt snapshots).
inline constexpr uint32_t kSuperblockMaxRestoreLen = 4096;
// Restore-time sanity bound on segments per trace.
inline constexpr uint32_t kSuperblockMaxRestoreSegs = 257;
// Bias threshold: a branch grows its taken successor once taken at least
// this often AND at least 8x more often than not taken.
inline constexpr uint32_t kSbGrowMinTaken = 16;
// Leading sentinel of the v2 "superblocks" snapshot section. A v1 section
// led with its live-trace count instead and is rejected.
inline constexpr uint32_t kSuperblockSectionV2 = 0xFFFFFFFFu;

}  // namespace msim

#endif  // MSIM_CPU_SUPERBLOCK_H_
