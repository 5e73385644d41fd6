#include "cpu/superblock.h"

#include "isa/decode.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "mmu/mmu.h"
#include "snap/snapstream.h"

namespace msim {

bool TraceSafeInstr(InstrKind kind) {
  switch (kind) {
    case InstrKind::kLui:
    case InstrKind::kAuipc:
    case InstrKind::kJal:
    case InstrKind::kJalr:
    case InstrKind::kBeq:
    case InstrKind::kBne:
    case InstrKind::kBlt:
    case InstrKind::kBge:
    case InstrKind::kBltu:
    case InstrKind::kBgeu:
    case InstrKind::kAddi:
    case InstrKind::kSlti:
    case InstrKind::kSltiu:
    case InstrKind::kXori:
    case InstrKind::kOri:
    case InstrKind::kAndi:
    case InstrKind::kSlli:
    case InstrKind::kSrli:
    case InstrKind::kSrai:
    case InstrKind::kAdd:
    case InstrKind::kSub:
    case InstrKind::kSll:
    case InstrKind::kSlt:
    case InstrKind::kSltu:
    case InstrKind::kXor:
    case InstrKind::kSrl:
    case InstrKind::kSra:
    case InstrKind::kOr:
    case InstrKind::kAnd:
    case InstrKind::kFence:
    case InstrKind::kMul:
    case InstrKind::kMulh:
    case InstrKind::kMulhsu:
    case InstrKind::kMulhu:
    case InstrKind::kDiv:
    case InstrKind::kDivu:
    case InstrKind::kRem:
    case InstrKind::kRemu:
    case InstrKind::kLb:
    case InstrKind::kLh:
    case InstrKind::kLw:
    case InstrKind::kLbu:
    case InstrKind::kLhu:
    case InstrKind::kSb:
    case InstrKind::kSh:
    case InstrKind::kSw:
      return true;
    default:
      return false;
  }
}

bool InstrReadsGpr(const Decoded& d, uint8_t reg) {
  if (reg == 0) {
    return false;
  }
  switch (d.kind) {
    // No GPR sources.
    case InstrKind::kLui:
    case InstrKind::kAuipc:
    case InstrKind::kJal:
    case InstrKind::kEcall:
    case InstrKind::kEbreak:
    case InstrKind::kFence:
    case InstrKind::kMenter:
    case InstrKind::kMexit:
    case InstrKind::kRmr:
    case InstrKind::kRcr:
    case InstrKind::kMopr:
      return false;
    // rs1 only.
    case InstrKind::kJalr:
    case InstrKind::kWmr:
    case InstrKind::kWcr:
    case InstrKind::kMopw:
    case InstrKind::kTlbinv:
    case InstrKind::kTlbflush:
    case InstrKind::kTlbrd:
    case InstrKind::kHalt:
    case InstrKind::kMld:
    case InstrKind::kPlw:
      return d.rs1 == reg;
    // rs1 + rs2.
    case InstrKind::kMst:
    case InstrKind::kPsw:
    case InstrKind::kTlbwr:
    case InstrKind::kMintset:
      return d.rs1 == reg || d.rs2 == reg;
    default:
      break;
  }
  switch (d.info().format) {
    case InstrFormat::kR:
    case InstrFormat::kS:
    case InstrFormat::kB:
      return d.rs1 == reg || d.rs2 == reg;
    case InstrFormat::kI:
      return d.rs1 == reg;
    default:
      return false;
  }
}

namespace {

// A word the fetch unit could pull speculatively: aligned and below the MMIO
// aperture (which also excludes the MRAM code range at 0xFFFF0000). Physical
// bounds are checked separately on the RESOLVED address — with paging on the
// two differ. The icache probe is dynamic and verified at every segment
// entry instead (Core::StepFast).
bool FetchableVa(uint32_t addr) { return (addr & 3) == 0 && addr < kMmioBase; }

bool FetchablePa(uint32_t paddr, uint32_t dram_size) {
  return paddr < kMmioBase && paddr + 4 <= dram_size;
}

// Marks load slots whose successor reads the loaded register: dispatching
// one costs the per-cycle load-use stall plus a bubble, and the executor
// models exactly that (core.cc). Static because the dynamic StageId hazard
// check is a pure function of two adjacent instructions.
void ComputeStallAfter(std::vector<SbSlot>& slots, uint32_t base, uint32_t exec_len) {
  for (uint32_t i = 0; i + 1 < exec_len; ++i) {
    SbSlot& slot = slots[base + i];
    slot.stall_after = SbIsLoad(slot.exec) && slot.rd != 0 &&
                       InstrReadsGpr(slots[base + i + 1].d, slot.rd);
  }
}

}  // namespace

bool SbAddrSpace::Resolve(uint32_t vaddr, uint32_t* paddr) const {
  if (mmu == nullptr) {
    *paddr = vaddr;
    return true;
  }
  const TranslateResult tr = mmu->ProbeTranslate(vaddr, AccessType::kFetch, asid, keyperm);
  if (!tr.ok) {
    return false;
  }
  *paddr = tr.paddr;
  return true;
}

SuperblockCache::SuperblockCache(bool enabled) {
  if (!enabled) {
    return;
  }
  traces_.resize(kSuperblockEntries);
  mask_ = kSuperblockEntries - 1;
}

bool SuperblockCache::TranslateSlot(const Decoded& d, uint32_t pc, uint32_t raw,
                                    SbSlot* out) {
  using K = InstrKind;
  using E = SbExec;
  const uint32_t imm = static_cast<uint32_t>(d.imm);
  out->rd = d.rd & 31;
  out->rs1 = d.rs1 & 31;
  out->rs2 = d.rs2 & 31;
  out->imm = imm;
  out->cval = 0;
  out->target = 0;
  out->addr = pc;
  out->raw = raw;
  out->d = d;
  switch (d.kind) {
    case K::kLui:
      out->exec = E::kConst;
      out->cval = imm << 12;
      break;
    case K::kAuipc:
      out->exec = E::kConst;
      out->cval = pc + (imm << 12);
      break;
    case K::kJal:
      out->exec = E::kJal;
      out->cval = pc + 4;
      out->target = pc + imm;
      break;
    case K::kJalr:
      out->exec = E::kJalr;
      out->cval = pc + 4;
      break;
    case K::kBeq: out->exec = E::kBeq; out->target = pc + imm; break;
    case K::kBne: out->exec = E::kBne; out->target = pc + imm; break;
    case K::kBlt: out->exec = E::kBlt; out->target = pc + imm; break;
    case K::kBge: out->exec = E::kBge; out->target = pc + imm; break;
    case K::kBltu: out->exec = E::kBltu; out->target = pc + imm; break;
    case K::kBgeu: out->exec = E::kBgeu; out->target = pc + imm; break;
    case K::kAddi: out->exec = E::kAddi; break;
    case K::kSlti: out->exec = E::kSlti; break;
    case K::kSltiu: out->exec = E::kSltiu; break;
    case K::kXori: out->exec = E::kXori; break;
    case K::kOri: out->exec = E::kOri; break;
    case K::kAndi: out->exec = E::kAndi; break;
    case K::kSlli: out->exec = E::kSlli; out->imm = imm & 31; break;
    case K::kSrli: out->exec = E::kSrli; out->imm = imm & 31; break;
    case K::kSrai: out->exec = E::kSrai; out->imm = imm & 31; break;
    case K::kAdd: out->exec = E::kAdd; break;
    case K::kSub: out->exec = E::kSub; break;
    case K::kSll: out->exec = E::kSll; break;
    case K::kSlt: out->exec = E::kSlt; break;
    case K::kSltu: out->exec = E::kSltu; break;
    case K::kXor: out->exec = E::kXor; break;
    case K::kSrl: out->exec = E::kSrl; break;
    case K::kSra: out->exec = E::kSra; break;
    case K::kOr: out->exec = E::kOr; break;
    case K::kAnd: out->exec = E::kAnd; break;
    case K::kFence: out->exec = E::kFence; break;
    case K::kMul: out->exec = E::kMul; break;
    case K::kMulh: out->exec = E::kMulh; break;
    case K::kMulhsu: out->exec = E::kMulhsu; break;
    case K::kMulhu: out->exec = E::kMulhu; break;
    case K::kDiv: out->exec = E::kDiv; break;
    case K::kDivu: out->exec = E::kDivu; break;
    case K::kRem: out->exec = E::kRem; break;
    case K::kRemu: out->exec = E::kRemu; break;
    case K::kLb: out->exec = E::kLb; break;
    case K::kLbu: out->exec = E::kLbu; break;
    case K::kLh: out->exec = E::kLh; break;
    case K::kLhu: out->exec = E::kLhu; break;
    case K::kLw: out->exec = E::kLw; break;
    case K::kSb: out->exec = E::kSb; break;
    case K::kSh: out->exec = E::kSh; break;
    case K::kSw: out->exec = E::kSw; break;
    default:
      return false;
  }
  return true;
}

uint32_t SuperblockCache::WalkSegment(uint32_t start, const PhysicalMemory& dram,
                                      const SbAddrSpace& as,
                                      std::vector<SbSlot>* slots) const {
  const uint32_t base = static_cast<uint32_t>(slots->size());
  uint32_t addr = start;
  // A segment spans at most one virtual-to-physical delta: the executor
  // translates the segment entry once (a consistent delta re-probed per
  // page) and fetches slot words at addr + delta, so a page run mapped with
  // a different offset ends the walk. Identity mapping when paging is off.
  uint32_t delta = 0;
  bool have_delta = false;
  auto resolve = [&](uint32_t va, uint32_t* pa) {
    if (!FetchableVa(va) || !as.Resolve(va, pa) || !FetchablePa(*pa, dram.size())) {
      return false;
    }
    if (!have_delta) {
      delta = *pa - va;
      have_delta = true;
    }
    return *pa - va == delta;
  };
  while (slots->size() - base < kSuperblockMaxLen) {
    uint32_t pa = 0;
    if (!resolve(addr, &pa)) {
      break;
    }
    const auto word = dram.Read32(pa);
    if (!word) {
      break;
    }
    const Decoded d = DecodeInstr(*word);
    if (!TraceSafeInstr(d.kind)) {
      break;
    }
    SbSlot slot;
    if (!TranslateSlot(d, addr, *word, &slot)) {
      break;
    }
    slots->push_back(slot);
    addr += 4;
    if (d.kind == InstrKind::kJal || d.kind == InstrKind::kJalr) {
      break;
    }
  }
  const uint32_t exec_len = static_cast<uint32_t>(slots->size()) - base;
  if (exec_len < kSuperblockMinLen) {
    slots->resize(base);
    return 0;
  }
  // Fetch-only tail: the words the pipeline pulls speculatively while the
  // final slots execute (see Superblock::len). Two words even for a
  // jump-terminated segment: under a live load-use skid (depth 1) the
  // frontend runs one fetch ahead, reaching exec_len + 1 on the cycle
  // before the jump dispatches.
  for (uint32_t i = 0; i < 2; ++i) {
    uint32_t pa = 0;
    if (!resolve(addr, &pa)) {
      break;
    }
    const auto word = dram.Read32(pa);
    if (!word) {
      break;
    }
    SbSlot slot;
    slot.exec = SbExec::kFence;  // never dispatched
    slot.addr = addr;
    slot.raw = *word;
    slot.d = DecodeInstr(*word);
    slots->push_back(slot);
    addr += 4;
  }
  ComputeStallAfter(*slots, base, exec_len);
  return exec_len;
}

Superblock* SuperblockCache::Build(uint32_t start, const PhysicalMemory& dram,
                                   const SbAddrSpace& as) {
  if (traces_.empty()) {
    return nullptr;
  }
  std::vector<SbSlot> slots;
  slots.reserve(16);
  const uint32_t exec_len = WalkSegment(start, dram, as, &slots);
  if (exec_len == 0) {
    return nullptr;
  }
  Superblock& sb = traces_[Index(start)];
  if (sb.valid && sb.start != start) {
    ++stats_.evictions;
  }
  sb.valid = true;
  sb.start = start;
  sb.exec_len = exec_len;
  sb.len = static_cast<uint32_t>(slots.size());
  sb.slots = std::move(slots);
  sb.segs.clear();
  sb.segs.push_back(SbSegment{start, 0, exec_len, sb.len});
  sb.grow_pending = false;
  sb.grow_slot = 0;
  ++stats_.builds;
  return &sb;
}

void SuperblockCache::MaybeGrow(Superblock& sb, const PhysicalMemory& dram,
                                const SbAddrSpace& as) {
  if (!sb.grow_pending) {
    return;
  }
  sb.grow_pending = false;
  const uint32_t slot_index = sb.grow_slot;
  if (slot_index >= sb.slots.size() ||
      sb.slots[slot_index].taken_seg != kSbSegUnlinked) {
    return;
  }
  if (sb.segs.size() > kSuperblockMaxTrees) {
    // Over budget: freeze the branch's counters so it never re-arms growth.
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  const uint32_t target = sb.slots[slot_index].target;
  const uint32_t before = static_cast<uint32_t>(sb.slots.size());
  // WalkSegment may reallocate sb.slots: no slot references survive it.
  const uint32_t exec_len = WalkSegment(target, dram, as, &sb.slots);
  if (exec_len == 0) {
    sb.slots[slot_index].taken_seg = kSbSegNoGrow;
    return;
  }
  const uint32_t seg_index = static_cast<uint32_t>(sb.segs.size());
  sb.segs.push_back(SbSegment{target, before, exec_len,
                              static_cast<uint32_t>(sb.slots.size()) - before});
  sb.slots[slot_index].taken_seg = static_cast<int16_t>(seg_index);
  ++stats_.tree_grows;
}

void SuperblockCache::InvalidateAll() {
  bool any = false;
  for (Superblock& sb : traces_) {
    any |= sb.valid;
    sb.valid = false;
  }
  if (any) {
    ++stats_.invalidations;
  }
}

void SuperblockCache::RegisterMetrics(MetricRegistry& registry) const {
  registry.Register("superblock", "builds", &stats_.builds,
                    "superblock traces constructed");
  registry.Register("superblock", "executions", &stats_.executions,
                    "trace entries at pipeline refill points");
  registry.Register("superblock", "chains", &stats_.chains,
                    "taken branches chained directly into a cached trace");
  registry.Register("superblock", "instructions", &stats_.instructions,
                    "instructions retired inside superblock traces");
  registry.Register("superblock", "invalidations", &stats_.invalidations,
                    "traces killed by stale raw words or InvalidateAll");
  registry.Register("superblock", "evictions", &stats_.evictions,
                    "builds that overwrote a different live trace");
  registry.Register("superblock", "mem_fast_hits", &stats_.mem_fast_hits,
                    "memory slots dispatched on the in-trace fast path");
  registry.Register("superblock", "mem_slow_exits", &stats_.mem_slow_exits,
                    "trace exits forced by a slow-path memory op");
  registry.Register("superblock", "tree_grows", &stats_.tree_grows,
                    "biased-branch successor segments built");
  registry.Register("superblock", "tree_transitions", &stats_.tree_transitions,
                    "taken branches that stayed in-trace via a tree segment");
}

void SuperblockCache::SaveState(SnapWriter& w) const {
  w.U32(kSuperblockSectionV2);
  w.U32(2);  // section format version
  uint32_t live = 0;
  for (const Superblock& sb : traces_) {
    live += sb.valid ? 1 : 0;
  }
  w.U32(live);
  for (const Superblock& sb : traces_) {
    if (!sb.valid) {
      continue;
    }
    w.U32(sb.start);
    w.U32(static_cast<uint32_t>(sb.segs.size()));
    for (const SbSegment& seg : sb.segs) {
      w.U32(seg.start);
      w.U32(seg.exec_len);
      w.U32(seg.len);
    }
    for (const SbSlot& slot : sb.slots) {
      w.U32(slot.raw);
    }
    for (const SbSlot& slot : sb.slots) {
      w.U32(static_cast<uint32_t>(static_cast<int32_t>(slot.taken_seg)));
      w.U32(slot.taken_n);
      w.U32(slot.nottaken_n);
    }
    w.U8(sb.grow_pending ? 1 : 0);
    w.U32(sb.grow_slot);
  }
  w.U64(stats_.builds);
  w.U64(stats_.executions);
  w.U64(stats_.chains);
  w.U64(stats_.instructions);
  w.U64(stats_.invalidations);
  w.U64(stats_.evictions);
  w.U64(stats_.mem_fast_hits);
  w.U64(stats_.mem_slow_exits);
  w.U64(stats_.tree_grows);
  w.U64(stats_.tree_transitions);
}

Status SuperblockCache::RestoreState(SnapReader& r) {
  for (Superblock& sb : traces_) {
    sb.valid = false;
  }
  const uint32_t first = r.U32();
  if (!r.ok()) {
    return InvalidArgument("superblock section: truncated header");
  }
  if (first != kSuperblockSectionV2) {
    return InvalidArgument(
        "superblock section: not the v2 format (the v1 format is no longer read)");
  }
  const uint32_t version = r.U32();
  if (!r.ok() || version != 2) {
    return InvalidArgument("superblock section: unsupported version");
  }
  const uint32_t live = r.U32();
  if (!r.ok() || live > kSuperblockEntries) {
    return InvalidArgument("superblock section: bad trace count");
  }
  for (uint32_t i = 0; i < live; ++i) {
    const uint32_t start = r.U32();
    const uint32_t n_segs = r.U32();
    if (!r.ok() || n_segs == 0 || n_segs > kSuperblockMaxRestoreSegs) {
      return InvalidArgument("superblock section: bad segment count");
    }
    std::vector<SbSegment> segs;
    segs.reserve(n_segs);
    uint32_t total = 0;
    for (uint32_t s = 0; s < n_segs; ++s) {
      SbSegment seg;
      seg.start = r.U32();
      seg.exec_len = r.U32();
      seg.len = r.U32();
      seg.base = total;
      if (!r.ok() || seg.exec_len < kSuperblockMinLen || seg.len < seg.exec_len ||
          seg.len > seg.exec_len + 2 || seg.len > kSuperblockMaxRestoreLen ||
          (seg.start & 3) != 0) {
        return InvalidArgument("superblock section: bad segment geometry");
      }
      total += seg.len;
      segs.push_back(seg);
    }
    if (segs[0].start != start) {
      return InvalidArgument("superblock section: root segment mismatch");
    }
    std::vector<SbSlot> slots;
    slots.reserve(total);
    for (const SbSegment& seg : segs) {
      for (uint32_t j = 0; j < seg.len; ++j) {
        const uint32_t raw = r.U32();
        const uint32_t addr = seg.start + 4 * j;
        const Decoded d = DecodeInstr(raw);
        SbSlot slot;
        if (j < seg.exec_len) {
          if (!TranslateSlot(d, addr, raw, &slot)) {
            return InvalidArgument("superblock section: untranslatable slot");
          }
        } else {
          slot.exec = SbExec::kFence;
          slot.addr = addr;
          slot.raw = raw;
          slot.d = d;
        }
        slots.push_back(slot);
      }
    }
    for (uint32_t j = 0; j < total; ++j) {
      const int32_t ts = static_cast<int32_t>(r.U32());
      SbSlot& slot = slots[j];
      slot.taken_n = r.U32();
      slot.nottaken_n = r.U32();
      if (!r.ok() || ts < kSbSegNoGrow || ts >= static_cast<int32_t>(n_segs)) {
        return InvalidArgument("superblock section: bad tree link");
      }
      // A live link is only meaningful on a conditional-branch slot whose
      // taken edge actually lands at the segment start (the executor follows
      // it blind): reject anything else rather than execute a wrong tree.
      if (ts >= 1 &&
          (!SbIsCondBranch(slot.exec) || segs[ts].start != slot.target)) {
        return InvalidArgument("superblock section: inconsistent tree link");
      }
      if (ts == 0) {
        return InvalidArgument("superblock section: link to root segment");
      }
      slot.taken_seg = static_cast<int16_t>(ts);
    }
    const bool grow_pending = r.U8() != 0;
    const uint32_t grow_slot = r.U32();
    if (!r.ok() || (grow_pending && grow_slot >= total)) {
      return InvalidArgument("superblock section: bad growth state");
    }
    for (const SbSegment& seg : segs) {
      ComputeStallAfter(slots, seg.base, seg.exec_len);
    }
    MSIM_RETURN_IF_ERROR(r.ToStatus("superblock trace"));
    if (traces_.empty()) {
      // Cache disabled in this core: drop the traces, keep the counters (the
      // executor never runs, so they stay frozen at their restored values).
      continue;
    }
    Superblock& sb = traces_[Index(start)];
    sb.valid = true;
    sb.start = start;
    sb.exec_len = segs[0].exec_len;
    sb.len = segs[0].len;
    sb.slots = std::move(slots);
    sb.segs = std::move(segs);
    sb.grow_pending = grow_pending;
    sb.grow_slot = grow_slot;
  }
  stats_.builds = r.U64();
  stats_.executions = r.U64();
  stats_.chains = r.U64();
  stats_.instructions = r.U64();
  stats_.invalidations = r.U64();
  stats_.evictions = r.U64();
  stats_.mem_fast_hits = r.U64();
  stats_.mem_slow_exits = r.U64();
  stats_.tree_grows = r.U64();
  stats_.tree_transitions = r.U64();
  return r.ToStatus("superblock counters");
}

}  // namespace msim
