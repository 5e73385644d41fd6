// The fault-campaign machine shared by bench_campaign (outcome rows) and
// bench_simspeed (BM_CampaignTrial host throughput): a counter accelerator in
// MRAM with a transparent scrub-and-retry recovery mroutine, driven by a guest
// whose halt code depends on the counter. Same machine as
// tests/data/campaign_guest.s + tests/data/campaign_mcode.s.
#ifndef MSIM_BENCH_CAMPAIGN_MACHINE_H_
#define MSIM_BENCH_CAMPAIGN_MACHINE_H_

#include <cstdint>

#include "campaign/campaign.h"
#include "metal/system.h"

namespace msim {

inline constexpr const char* kCampaignMcode = R"(
    .equ D_COUNT, 0
    .equ CR_MEPC, 1
    .equ CR_MRAM_SCRUB, 52

    .mentry 1, count_add
    .mentry 2, mcheck_recover

  count_add:
    mld t0, D_COUNT(zero)
    add t0, t0, a0
    mst t0, D_COUNT(zero)
    mv a0, t0
    mexit

  mcheck_recover:
    wcr CR_MRAM_SCRUB, zero
    wmr m30, t0
    rcr t0, CR_MEPC
    wmr m31, t0
    rmr t0, m30
    mexit
)";

// Twelve accelerator calls, one console byte per iteration, data-dependent
// halt code — corruption of the counter is architecturally visible.
inline constexpr const char* kCampaignGuest = R"(
  _start:
    li s0, 12
    li s1, 0
    li s2, 0xF0003000
  loop:
    li a0, 5
    menter 1
    mv s1, a0
    andi t0, s1, 63
    addi t0, t0, 32
    sw t0, 0(s2)
    addi s0, s0, -1
    bnez s0, loop
    halt s1
)";

inline Status SetUpCampaignMachine(MetalSystem& system) {
  system.AddMcode(kCampaignMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  return system.LoadProgramSource(kCampaignGuest);
}

// `trials` seeded trials over MRAM data and code, trials forked from the
// default golden snapshots.
inline CampaignOptions CampaignMachineOptions(uint64_t trials, uint64_t seed) {
  CampaignOptions options;
  options.targets = {FaultTarget::kMramData, FaultTarget::kMramCode};
  options.trials = trials;
  options.seed = seed;
  // Focus the location universe on live state: D_COUNT is MRAM data word 0
  // and the mcode body is the first handful of code words. Uniform sampling
  // over the full 2048-word segments would mostly measure dead space.
  options.max_location = 8;
  return options;
}

}  // namespace msim

#endif  // MSIM_BENCH_CAMPAIGN_MACHINE_H_
