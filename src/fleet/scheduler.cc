#include "fleet/scheduler.h"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "fleet/report.h"
#include "snap/snapshot.h"
#include "support/exit_codes.h"
#include "support/strings.h"

namespace msim {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void SleepMs(uint64_t ms) { ::usleep(static_cast<useconds_t>(ms * 1000)); }

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
    return Internal(StrFormat("cannot create directory '%s': %s", path.c_str(),
                              std::strerror(errno)));
  }
  return Status::Ok();
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// POSIX-shell single quoting for repro.sh.
std::string ShellQuote(const std::string& arg) {
  std::string quoted = "'";
  for (char c : arg) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

}  // namespace

Result<ChaosSpec> ParseChaosSpec(std::string_view text) {
  const size_t at = text.find('@');
  if (at == std::string_view::npos) {
    return ParseError(StrFormat("chaos spec '%.*s': want ACTION@JOB",
                                static_cast<int>(text.size()), text.data()));
  }
  const std::string_view action = text.substr(0, at);
  const std::string_view job = text.substr(at + 1);
  ChaosSpec spec;
  if (action == "kill") {
    spec.action = ChaosSpec::Action::kKill;
  } else if (action == "term") {
    spec.action = ChaosSpec::Action::kTerm;
  } else if (action == "stop") {
    spec.action = ChaosSpec::Action::kStop;
  } else {
    return ParseError(StrFormat("chaos spec '%.*s': unknown action (want kill, term or stop)",
                                static_cast<int>(text.size()), text.data()));
  }
  if (!IsValidJobName(job)) {
    return ParseError(StrFormat("chaos spec '%.*s': invalid job name",
                                static_cast<int>(text.size()), text.data()));
  }
  spec.job = std::string(job);
  return spec;
}

const char* JobOutcomeName(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kPending: return "pending";
    case JobOutcome::kOk: return "ok";
    case JobOutcome::kRetriedOk: return "retried";
    case JobOutcome::kEvictedOk: return "evicted";
    case JobOutcome::kCrashed: return "crashed";
    case JobOutcome::kTimedOut: return "timed-out";
  }
  return "unknown";
}

struct FleetSupervisor::RunningJob {
  size_t index = 0;
  WorkerProcess process;
  AttemptPlan plan;
  uint64_t attempt = 0;
  std::string restore_path;  // checkpoint this attempt resumed from, if any

  uint64_t started_ms = 0;
  uint64_t deadline_at_ms = 0;  // absolute, 0 = none

  enum class KillReason { kNone, kDeadline, kHang, kEvict };
  KillReason kill_reason = KillReason::kNone;
  uint64_t term_sent_ms = 0;

  uint64_t heartbeat_size = 0;
  uint64_t last_progress_ms = 0;
};

FleetSupervisor::~FleetSupervisor() = default;

FleetSupervisor::FleetSupervisor(std::vector<JobSpec> jobs, FleetOptions options)
    : jobs_(std::move(jobs)), options_(std::move(options)) {
  records_.resize(jobs_.size());
  for (size_t i = 0; i < jobs_.size(); ++i) {
    records_[i].name = jobs_[i].name;
  }
  const auto count_outcome = [this](JobOutcome outcome) {
    uint64_t n = 0;
    for (const JobRecord& record : records_) {
      n += record.outcome == outcome ? 1 : 0;
    }
    return n;
  };
  metrics_.RegisterFn("fleet", "jobs_total", [this] { return (uint64_t)records_.size(); },
                      "jobs in the manifest");
  metrics_.RegisterFn("fleet", "jobs_ok", [=] { return count_outcome(JobOutcome::kOk); },
                      "clean first-attempt successes");
  metrics_.RegisterFn("fleet", "jobs_retried",
                      [=] { return count_outcome(JobOutcome::kRetriedOk); },
                      "successes after >=1 failed attempt");
  metrics_.RegisterFn("fleet", "jobs_evicted",
                      [=] { return count_outcome(JobOutcome::kEvictedOk); },
                      "successes after >=1 checkpoint-eviction");
  metrics_.RegisterFn("fleet", "jobs_crashed",
                      [=] { return count_outcome(JobOutcome::kCrashed); },
                      "terminal failures (crash class)");
  metrics_.RegisterFn("fleet", "jobs_timed_out",
                      [=] { return count_outcome(JobOutcome::kTimedOut); },
                      "terminal failures (budget class)");
  metrics_.Register("fleet", "attempts_total", &attempts_total_, "worker processes launched");
  metrics_.Register("fleet", "retries_total", &retries_total_, "failed attempts retried");
  metrics_.Register("fleet", "evictions_total", &evictions_total_,
                    "graceful checkpoint-evictions");
  metrics_.Register("fleet", "deadline_kills", &deadline_kills_,
                    "attempts killed at the wall-clock deadline");
  metrics_.Register("fleet", "hang_kills", &hang_kills_,
                    "attempts killed by the heartbeat hang detector");
  metrics_.Register("fleet", "mem_evictions", &mem_evictions_,
                    "evictions forced by the memory-pressure limit");
  metrics_.Register("fleet", "chaos_fired", &chaos_fired_, "chaos injections delivered");
  metrics_.Register("fleet", "admission_throttled", &admission_throttled_,
                    "admission halvings after failure streaks");
  metrics_.RegisterHistogram("fleet", "job_guest_cycles", &job_cycles_,
                             "absolute guest cycles per successful job");
  metrics_.RegisterHistogram("fleet", "job_attempts", &job_attempts_,
                             "attempts per terminal job");
}

std::string FleetSupervisor::JobDir(const JobSpec& spec) const {
  return options_.out_dir + "/jobs/" + spec.name;
}

uint64_t FleetSupervisor::EffectiveWorkers() const {
  uint64_t workers = options_.workers != 0 ? options_.workers : 1;
  if (options_.fail_streak_throttle == 0) {
    return workers;
  }
  uint64_t halvings = fail_streak_ / options_.fail_streak_throttle;
  while (halvings-- > 0 && workers > 1) {
    workers /= 2;
  }
  return workers;
}

Status FleetSupervisor::LaunchAttempt(size_t index) {
  const JobSpec& spec = jobs_[index];
  JobRecord& record = records_[index];
  const std::string job_dir = JobDir(spec);
  MSIM_RETURN_IF_ERROR(MakeDir(job_dir));
  if (spec.checkpoint_every != 0) {
    MSIM_RETURN_IF_ERROR(MakeDir(job_dir + "/ckpts"));
  }

  auto running = std::make_unique<RunningJob>();
  running->index = index;
  running->attempt = record.attempts;
  uint64_t restore_cycle = 0;
  if (spec.checkpoint_every != 0 && record.attempts > 0) {
    // Resume from the newest checkpoint that validates; a first attempt never
    // restores (there is nothing to resume, and a stale dir must not leak
    // state into a fresh job).
    if (const auto found = FindLatestValidSnapshot(job_dir + "/ckpts"); found.ok()) {
      running->restore_path = found->path;
      restore_cycle = found->cycle;
    }
  }
  running->plan =
      PlanAttempt(spec, options_.msim_path, job_dir, record.attempts, running->restore_path,
                  restore_cycle, options_.hang_timeout_ms != 0 ? options_.heartbeat_every_cycles : 0);
  MSIM_RETURN_IF_ERROR(running->process.Start(running->plan));
  record.attempts += 1;
  attempts_total_ += 1;

  const uint64_t now = NowMs();
  running->started_ms = now;
  running->last_progress_ms = now;
  const uint64_t deadline = spec.deadline_ms != 0 ? spec.deadline_ms : options_.deadline_ms;
  running->deadline_at_ms = deadline != 0 ? now + deadline : 0;
  if (options_.verbose) {
    std::fprintf(stderr, "[fleet] %s: attempt %llu started (pid %d)%s%s\n", spec.name.c_str(),
                 (unsigned long long)running->attempt, (int)running->process.pid(),
                 running->restore_path.empty() ? "" : ", resuming from ",
                 running->restore_path.c_str());
  }
  running_.push_back(std::move(running));
  return Status::Ok();
}

void FleetSupervisor::RequeueFront(size_t index, uint64_t eligible_at_ms) {
  eligible_at_ms_[index] = eligible_at_ms;
  queue_.push_front(index);
}

void FleetSupervisor::FinishJob(size_t index, JobOutcome outcome, const AttemptOutcome& last) {
  JobRecord& record = records_[index];
  record.outcome = outcome;
  record.exit_code = last.exit_code;
  record.signal = last.signal;
  job_attempts_.Record(record.attempts);
  const bool success = outcome == JobOutcome::kOk || outcome == JobOutcome::kRetriedOk ||
                       outcome == JobOutcome::kEvictedOk;
  if (success) {
    const std::string stats_path = JobDir(jobs_[index]) + "/stats.json";
    if (const auto bytes = ReadFileBytes(stats_path); bytes.ok()) {
      const std::string text(bytes->begin(), bytes->end());
      if (const auto cycles = ExtractJsonUint(text, "cycles"); cycles.ok()) {
        record.guest_cycles = *cycles;
      }
      record.stats_json = "jobs/" + record.name + "/stats.json";
    }
    job_cycles_.Record(record.guest_cycles);
  }
  if (options_.verbose) {
    std::fprintf(stderr,
                 "[fleet] %s: %s (exit=%d signal=%d attempts=%llu failures=%llu "
                 "evictions=%llu cycles=%llu)\n",
                 record.name.c_str(), JobOutcomeName(outcome), record.exit_code, record.signal,
                 (unsigned long long)record.attempts, (unsigned long long)record.failures,
                 (unsigned long long)record.evictions, (unsigned long long)record.guest_cycles);
  }
}

void FleetSupervisor::HarvestRepro(size_t index, const RunningJob& running,
                                   const AttemptOutcome& last) {
  const JobSpec& spec = jobs_[index];
  JobRecord& record = records_[index];
  const std::string job_dir = JobDir(spec);
  const std::string repro_dir = job_dir + "/repro";
  if (!MakeDir(repro_dir).ok()) {
    return;
  }
  // repro.sh: the exact failing command line, runnable standalone.
  std::string repro = "#!/bin/sh\n";
  repro += StrFormat("# msimd repro for job '%s': attempt %llu ended %s (exit=%d signal=%d)\n",
                     spec.name.c_str(), (unsigned long long)running.attempt,
                     ExitCodeName(last.exit_code), last.exit_code, last.signal);
  if (!running.restore_path.empty()) {
    repro += StrFormat("# attempt resumed from %s (copied here as resume.msnap)\n",
                       running.restore_path.c_str());
  }
  repro += "exec";
  for (const std::string& arg : running.plan.argv) {
    repro += " " + ShellQuote(arg);
  }
  repro += "\n";
  {
    std::vector<uint8_t> bytes(repro.begin(), repro.end());
    WriteFileBytes(repro_dir + "/repro.sh", bytes);
    ::chmod((repro_dir + "/repro.sh").c_str(), 0755);
  }
  // stderr tail of the failing attempt.
  const std::string tail = ReadFileTail(running.plan.stderr_path, 4096);
  WriteFileBytes(repro_dir + "/stderr.tail", std::vector<uint8_t>(tail.begin(), tail.end()));
  // Crash dump, when the worker lived long enough to write one.
  if (const auto dump = ReadFileBytes(job_dir + "/crash.json"); dump.ok()) {
    WriteFileBytes(repro_dir + "/crash.json", *dump);
  }
  // Newest valid checkpoint, so the repro can resume from where it died.
  if (spec.checkpoint_every != 0) {
    if (const auto found = FindLatestValidSnapshot(job_dir + "/ckpts"); found.ok()) {
      if (const auto snap = ReadFileBytes(found->path); snap.ok()) {
        WriteFileBytes(repro_dir + "/resume.msnap", *snap);
      }
    }
  }
  record.repro_dir = "jobs/" + record.name + "/repro";
}

void FleetSupervisor::HandleExit(RunningJob& running, int raw_status, uint64_t now_ms) {
  const size_t index = running.index;
  const JobSpec& spec = jobs_[index];
  JobRecord& record = records_[index];
  AttemptOutcome outcome = ClassifyWaitStatus(raw_status);

  if (outcome.cls == AttemptClass::kSuccess) {
    fail_streak_ = 0;
    FinishJob(index,
              record.evictions > 0   ? JobOutcome::kEvictedOk
              : record.failures > 0 ? JobOutcome::kRetriedOk
                                    : JobOutcome::kOk,
              outcome);
    return;
  }

  // A worker that died on the eviction SIGTERM itself (signal landed before
  // the graceful handler was installed, or the run loop never got to poll it)
  // is still an eviction: the supervisor chose to stop it, and the newest
  // checkpoint makes the stop lossless. A worker that had to be SIGKILLed
  // after the grace period stays a crash — it was wedged, not stopping.
  const bool died_on_evict_term = running.kill_reason == RunningJob::KillReason::kEvict &&
                                  outcome.cls == AttemptClass::kCrash &&
                                  outcome.signal == SIGTERM;
  if ((outcome.cls == AttemptClass::kEvicted || died_on_evict_term) &&
      (running.kill_reason == RunningJob::KillReason::kNone ||
       running.kill_reason == RunningJob::KillReason::kEvict)) {
    // A genuine graceful eviction (memory pressure, chaos, or an external
    // SIGTERM): requeue behind the currently waiting jobs, resume later.
    // Evictions do not consume the retry budget.
    record.evictions += 1;
    evictions_total_ += 1;
    eligible_at_ms_[index] = now_ms;
    queue_.push_back(index);
    if (options_.verbose) {
      std::fprintf(stderr, "[fleet] %s: evicted at attempt %llu, requeued\n", spec.name.c_str(),
                   (unsigned long long)running.attempt);
    }
    return;
  }

  // A graceful exit after a deadline/hang SIGTERM is still a budget failure;
  // so is a self-reported guest cycle-budget timeout.
  const bool budget_class = running.kill_reason == RunningJob::KillReason::kDeadline ||
                            running.kill_reason == RunningJob::KillReason::kHang ||
                            outcome.cls == AttemptClass::kGuestTimeout;

  if (outcome.cls == AttemptClass::kUsageError && !running.restore_path.empty()) {
    // The worker rejected the checkpoint we handed it (truncated or
    // config-mismatched). Quarantine it so the next attempt resumes from an
    // older checkpoint — or cold-starts — instead of failing forever.
    std::rename(running.restore_path.c_str(), (running.restore_path + ".bad").c_str());
    outcome.cls = AttemptClass::kCrash;
  }

  record.failures += 1;
  fail_streak_ += 1;
  if (options_.fail_streak_throttle != 0 && fail_streak_ % options_.fail_streak_throttle == 0 &&
      EffectiveWorkers() < (options_.workers != 0 ? options_.workers : 1)) {
    admission_throttled_ += 1;
    if (options_.verbose) {
      std::fprintf(stderr, "[fleet] failure streak %llu: admission throttled to %llu worker(s)\n",
                   (unsigned long long)fail_streak_, (unsigned long long)EffectiveWorkers());
    }
  }

  const uint64_t retry_budget =
      spec.retries >= 0 ? static_cast<uint64_t>(spec.retries) : options_.retries;
  // SDC findings are deterministic (same program, seed and fault space every
  // attempt), so a retry would only reproduce the corruption — fail fast and
  // harvest the repro instead.
  const bool retry_futile = outcome.cls == AttemptClass::kUsageError ||
                            outcome.cls == AttemptClass::kGuestTimeout ||
                            outcome.cls == AttemptClass::kSdc;
  if (retry_futile || record.failures > retry_budget) {
    HarvestRepro(index, running, outcome);
    FinishJob(index, budget_class ? JobOutcome::kTimedOut : JobOutcome::kCrashed, outcome);
    return;
  }
  retries_total_ += 1;
  const uint64_t delay = BackoffDelayMs(options_.backoff, record.failures);
  if (options_.verbose) {
    std::fprintf(stderr, "[fleet] %s: attempt %llu failed (%s, exit=%d signal=%d), retry %llu/%llu "
                         "in %llu ms\n",
                 spec.name.c_str(), (unsigned long long)running.attempt,
                 budget_class ? "budget" : "crash", outcome.exit_code, outcome.signal,
                 (unsigned long long)record.failures, (unsigned long long)retry_budget,
                 (unsigned long long)delay);
  }
  RequeueFront(index, now_ms + delay);
}

void FleetSupervisor::CheckMemoryPressure(uint64_t now_ms) {
  if (options_.mem_limit_mb == 0 || running_.size() <= 1) {
    return;
  }
  // One eviction per grace period at most: give the fleet time to actually
  // shrink before concluding the pressure persists, instead of TERMing every
  // worker on consecutive polls.
  if (last_mem_evict_ms_ != 0 && now_ms - last_mem_evict_ms_ < options_.grace_ms) {
    return;
  }
  uint64_t total_kb = 0;
  for (const auto& running : running_) {
    total_kb += running->process.RssKb();
  }
  if (total_kb <= options_.mem_limit_mb * 1024) {
    return;
  }
  // Checkpoint-evict the oldest running job that is not already being killed:
  // it has the most sunk work, which the checkpoint preserves, and freeing
  // the oldest avoids starving recent admissions into thrash.
  RunningJob* oldest = nullptr;
  for (const auto& running : running_) {
    if (running->kill_reason == RunningJob::KillReason::kNone &&
        (oldest == nullptr || running->started_ms < oldest->started_ms)) {
      oldest = running.get();
    }
  }
  if (oldest == nullptr) {
    return;
  }
  oldest->kill_reason = RunningJob::KillReason::kEvict;
  oldest->term_sent_ms = now_ms;
  last_mem_evict_ms_ = now_ms;
  mem_evictions_ += 1;
  if (options_.verbose) {
    std::fprintf(stderr, "[fleet] memory pressure (%llu MiB > %llu MiB): evicting %s\n",
                 (unsigned long long)(total_kb / 1024), (unsigned long long)options_.mem_limit_mb,
                 jobs_[oldest->index].name.c_str());
  }
  oldest->process.Signal(SIGTERM);
}

Status FleetSupervisor::Run() {
  if (options_.msim_path.empty()) {
    return InvalidArgument("fleet: msim path not set");
  }
  if (::access(options_.msim_path.c_str(), X_OK) != 0) {
    return InvalidArgument(StrFormat("fleet: '%s' is not an executable msim binary",
                                     options_.msim_path.c_str()));
  }
  chaos_.clear();
  for (const std::string& text : options_.chaos) {
    MSIM_ASSIGN_OR_RETURN(ChaosSpec spec, ParseChaosSpec(text));
    bool known = false;
    for (const JobSpec& job : jobs_) {
      known |= job.name == spec.job;
    }
    if (!known) {
      return InvalidArgument(StrFormat("chaos spec targets unknown job '%s'", spec.job.c_str()));
    }
    chaos_.push_back(std::move(spec));
  }
  MSIM_RETURN_IF_ERROR(MakeDir(options_.out_dir));
  MSIM_RETURN_IF_ERROR(MakeDir(options_.out_dir + "/jobs"));

  queue_.clear();
  eligible_at_ms_.assign(jobs_.size(), 0);
  for (size_t i = 0; i < jobs_.size(); ++i) {
    queue_.push_back(i);
  }

  while (!queue_.empty() || !running_.empty()) {
    uint64_t now = NowMs();

    // Admission: launch eligible jobs in queue order up to the (possibly
    // failure-throttled) worker cap.
    while (running_.size() < EffectiveWorkers()) {
      size_t pick = queue_.size();
      for (size_t p = 0; p < queue_.size(); ++p) {
        if (eligible_at_ms_[queue_[p]] <= now) {
          pick = p;
          break;
        }
      }
      if (pick == queue_.size()) {
        break;
      }
      const size_t index = queue_[pick];
      queue_.erase(queue_.begin() + static_cast<long>(pick));
      MSIM_RETURN_IF_ERROR(LaunchAttempt(index));
    }

    // Poll the fleet.
    for (size_t r = 0; r < running_.size();) {
      RunningJob& running = *running_[r];
      int raw_status = 0;
      MSIM_ASSIGN_OR_RETURN(const bool exited, running.process.Poll(&raw_status));
      now = NowMs();
      if (exited) {
        HandleExit(running, raw_status, now);
        running_.erase(running_.begin() + static_cast<long>(r));
        continue;
      }
      // Chaos injection: fire once per spec, as soon as the target can
      // resume (first checkpoint written, or immediately when the job does
      // not checkpoint).
      for (ChaosSpec& chaos : chaos_) {
        if (chaos.fired || chaos.job != jobs_[running.index].name) {
          continue;
        }
        const bool resumable =
            jobs_[running.index].checkpoint_every == 0 ||
            FindLatestValidSnapshot(JobDir(jobs_[running.index]) + "/ckpts").ok();
        if (!resumable) {
          continue;
        }
        chaos.fired = true;
        chaos_fired_ += 1;
        switch (chaos.action) {
          case ChaosSpec::Action::kKill:
            if (options_.verbose) {
              std::fprintf(stderr, "[fleet] chaos: SIGKILL %s\n", chaos.job.c_str());
            }
            running.process.Signal(SIGKILL);
            break;
          case ChaosSpec::Action::kTerm:
            if (options_.verbose) {
              std::fprintf(stderr, "[fleet] chaos: SIGTERM (evict) %s\n", chaos.job.c_str());
            }
            running.kill_reason = RunningJob::KillReason::kEvict;
            running.term_sent_ms = now;
            running.process.Signal(SIGTERM);
            break;
          case ChaosSpec::Action::kStop:
            if (options_.verbose) {
              std::fprintf(stderr, "[fleet] chaos: SIGSTOP (wedge) %s\n", chaos.job.c_str());
            }
            running.process.Signal(SIGSTOP);
            break;
        }
      }
      // Hang detector: guest-cycle progress shows up as heartbeat growth.
      if (options_.hang_timeout_ms != 0 &&
          running.kill_reason == RunningJob::KillReason::kNone) {
        const uint64_t size = FileSize(JobDir(jobs_[running.index]) + "/heartbeat.jsonl");
        if (size != running.heartbeat_size) {
          running.heartbeat_size = size;
          running.last_progress_ms = now;
        } else if (now - running.last_progress_ms > options_.hang_timeout_ms) {
          running.kill_reason = RunningJob::KillReason::kHang;
          running.term_sent_ms = now;
          records_[running.index].hang_kills += 1;
          hang_kills_ += 1;
          if (options_.verbose) {
            std::fprintf(stderr, "[fleet] %s: no heartbeat progress for %llu ms, killing\n",
                         jobs_[running.index].name.c_str(),
                         (unsigned long long)options_.hang_timeout_ms);
          }
          running.process.Signal(SIGTERM);
        }
      }
      // Wall-clock deadline.
      if (running.deadline_at_ms != 0 && now >= running.deadline_at_ms &&
          running.kill_reason == RunningJob::KillReason::kNone) {
        running.kill_reason = RunningJob::KillReason::kDeadline;
        running.term_sent_ms = now;
        records_[running.index].deadline_kills += 1;
        deadline_kills_ += 1;
        if (options_.verbose) {
          std::fprintf(stderr, "[fleet] %s: wall deadline exceeded, killing\n",
                       jobs_[running.index].name.c_str());
        }
        running.process.Signal(SIGTERM);
      }
      // SIGTERM -> SIGKILL escalation (also catches SIGSTOPped wedges, which
      // never process the SIGTERM).
      if (running.kill_reason != RunningJob::KillReason::kNone &&
          now - running.term_sent_ms >= options_.grace_ms) {
        running.process.Signal(SIGKILL);
      }
      ++r;
    }

    CheckMemoryPressure(NowMs());

    if (!running_.empty()) {
      SleepMs(options_.poll_ms);
    } else if (!queue_.empty()) {
      // Everyone is backing off; sleep until the earliest retry gate.
      uint64_t earliest = UINT64_MAX;
      for (size_t index : queue_) {
        earliest = eligible_at_ms_[index] < earliest ? eligible_at_ms_[index] : earliest;
      }
      now = NowMs();
      const uint64_t wait = earliest > now ? earliest - now : 1;
      SleepMs(wait < 200 ? wait : 200);
    }
  }
  return Status::Ok();
}

int FleetSupervisor::SuggestedExitCode() const {
  for (const JobRecord& record : records_) {
    if (record.outcome != JobOutcome::kOk && record.outcome != JobOutcome::kRetriedOk &&
        record.outcome != JobOutcome::kEvictedOk) {
      return kExitJobsFailed;
    }
  }
  return kExitOk;
}

}  // namespace msim
