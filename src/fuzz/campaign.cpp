#include "fuzz/campaign.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <thread>

#include <unistd.h>

#include "campaign/checkpoint.h"
#include "campaign/corpus_store.h"
#include "campaign/crash_archive.h"
#include "campaign/forensics.h"
#include "campaign/monitor.h"
#include "fuzz/sandbox.h"
#include "fuzz/vm_pool.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"
#include "support/fs_atomic.h"
#include "support/model_fault.h"
#include "support/retry.h"
#include "support/telemetry.h"

namespace iris::fuzz {
namespace {

using Clock = std::chrono::steady_clock;
using Coverage = std::vector<std::pair<hv::BlockKey, std::uint8_t>>;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// One cell's throwaway VM stack (the reuse_vm_stacks == false path).
/// Construction is a pure function of config; naively reusing a manager
/// across cells would leak hypervisor-global state (device/timer
/// histories, coverage registry, clock) into later cells' results. The
/// pooled path reuses stacks anyway — safely — because PooledVm::reset()
/// provably reconstructs this exact post-construction state
/// (hv::state_digest equality, asserted in debug builds).
struct CellVm {
  CellVm(const CampaignConfig& config, const vtx::VmxCapabilityProfile& profile)
      : hv(config.hv_seed, config.async_noise_prob, profile), manager(hv) {}

  hv::Hypervisor hv;
  Manager manager;
};

/// The cell's coverage contribution: every non-IRIS block its fresh
/// hypervisor registered, with LOC weights. The record/replay components
/// instrument themselves under kIris; filter them exactly as
/// ExitCoverage does, so the merged bitmap stays comparable to the
/// per-cell Table I numbers.
Coverage cell_coverage(const hv::CoverageMap& cov) {
  Coverage blocks;
  blocks.reserve(cov.registered_blocks().size());
  for (const hv::BlockKey block : cov.registered_blocks()) {
    if (hv::block_component(block) == hv::Component::kIris) continue;
    blocks.emplace_back(block, cov.loc_of(block));
  }
  return blocks;
}

// --- Campaign events ---------------------------------------------------

/// The closed set of things a run reports. Every per-run tally, registry
/// metric, status-file count and trace event of the runner derives from
/// one CampaignEvent handed to CampaignEvents::emit().
enum class EventKind : std::uint8_t {
  kCellStart, kCellDone, kHarnessFault, kModelFault, kRetry, kQuarantine,
  kReprobe, kForensics, kSyncEpoch, kDegrade, kResumed,
};
constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::kResumed) + 1;

/// Trace event name and same-named registry counter of each kind, in
/// EventKind order (nullptr = none; `resumed` is counted, never traced).
constexpr std::array<std::array<const char*, 2>, kEventKinds> kEventNames = {{
    {"cell_start", nullptr},
    {"cell_done", "campaign.cells_done"},
    {"harness_fault", "campaign.harness_faults"},
    {"model_fault", "fuzz.model_faults"},
    {"retry", "campaign.cell_retries"},
    {"quarantine", "campaign.cells_poisoned"},
    {"reprobe", "poison.reprobes"},
    {"forensics", "forensics.written"},
    {"sync_epoch", nullptr},
    {"degrade", nullptr},
    {nullptr, "campaign.cells_resumed"},
}};

/// Per-run tallies beyond the one-per-kind event counts.
constexpr std::size_t kTallyMutants = kEventKinds;
constexpr std::size_t kTallyRlimitKills = kEventKinds + 1;
constexpr std::size_t kTallyRehabilitated = kEventKinds + 2;
constexpr std::size_t kTallies = kEventKinds + 3;

constexpr std::size_t kIdle = ~std::size_t{0};

/// One event; each kind reads only the fields its comment names.
struct CampaignEvent {
  EventKind kind = EventKind::kCellStart;
  std::size_t cell = 0;
  /// In-flight slot a cell_start takes and a cell_done/quarantine frees.
  std::size_t worker = kIdle;
  /// harness_fault/retry/forensics: attempt number; quarantine/reprobe:
  /// attempts so far.
  std::size_t attempt = 0;
  std::size_t round = 0;  ///< reprobe: round; sync_epoch: epoch
  /// resumed: cells; forensics: crumbs; sync_epoch: imports.
  std::size_t count = 0;
  /// cell_done and a rehabilitating reprobe: the committed result.
  const TestCaseResult* result = nullptr;
  /// harness_fault, model_fault, quarantine, a re-poisoning reprobe.
  const HarnessFault* fault = nullptr;
  double wall_us = 0.0;     ///< cell_done: the whole cell incl. retries
  double backoff_ms = 0.0;  ///< retry
  /// harness_fault / cell_done of a sandboxed grid-pass attempt: its
  /// job dispatch + run + result latency, including the fork when the
  /// attempt spawns its child (0 = not measured).
  double attempt_us = 0.0;
  std::string_view error = {};  ///< degrade
};

/// The one emit: per-run tallies (the only source of CampaignResult's
/// fault fields and of the status file), the registry, the trace
/// stream, and the live status board with its in-flight slots. A pure
/// observer: nothing here feeds back into what a cell computes, so the
/// telemetry determinism tests hold by construction.
class CampaignEvents {
 public:
  CampaignEvents(const CampaignConfig& config, std::size_t cells_total,
                 std::size_t workers)
      : config_(config), cells_total_(cells_total), in_flight_(workers) {
    for (std::size_t k = 0; k < kEventKinds; ++k) {
      const char* counter = kEventNames[k][1];
      ids_[k] = counter ? reg_.counter_id(counter) : support::kInvalidMetric;
    }
    for (auto& slot : in_flight_) slot.store(kIdle, std::memory_order_relaxed);
  }

  void emit(const CampaignEvent& e) {
    const auto k = static_cast<std::size_t>(e.kind);
    const std::size_t n = e.kind == EventKind::kResumed ? e.count : 1;
    bump(k, ids_[k], n);
    // cell_start takes its worker's in-flight slot; cell_done and
    // quarantine free it.
    if (e.worker < in_flight_.size()) {
      const bool start = e.kind == EventKind::kCellStart;
      in_flight_[e.worker].store(start ? e.cell : kIdle, std::memory_order_relaxed);
    }
    if (e.attempt_us > 0.0) reg_.observe(sandbox_cell_us_, e.attempt_us);
    switch (e.kind) {
      case EventKind::kCellDone:
        bump(kTallyMutants, mutants_, e.result->executed);
        reg_.observe(cell_us_, e.wall_us);
        break;
      case EventKind::kHarnessFault:
        if (e.fault->kind == HarnessFault::Kind::kResourceExhausted) {
          bump(kTallyRlimitKills, rlimit_kills_, 1);
        }
        break;
      case EventKind::kReprobe:
        if (e.fault == nullptr) {  // rehabilitated: a clean, journaled cell
          bump(kTallyRehabilitated, rehabilitated_, 1);
          bump(kTallyMutants, mutants_, e.result->executed);
          reg_.add(cells_done_);
        }
        break;
      case EventKind::kResumed:
        reg_.add(cells_done_, n);
        break;
      default:
        break;
    }
    if (kEventNames[k][0] != nullptr && support::trace_active()) {
      support::trace(render(e));
    }
  }

  [[nodiscard]] std::size_t tally(std::size_t t) const {
    return tallies_[t].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t count(EventKind kind) const {
    return tally(static_cast<std::size_t>(kind));
  }

  /// Workers call this between cells; publishes when the cadence is due.
  void tick() { publish(/*force=*/false); }
  /// Unconditional publication (run start, after re-probe, run end).
  void publish_now() { publish(/*force=*/true); }

 private:
  void bump(std::size_t t, support::MetricId id, std::size_t n) {
    tallies_[t].fetch_add(n, std::memory_order_relaxed);
    reg_.add(id, n);
  }

  static support::TraceEvent render(const CampaignEvent& e) {
    support::TraceEvent t(kEventNames[static_cast<std::size_t>(e.kind)][0]);
    if (e.kind == EventKind::kSyncEpoch) {
      t.num("epoch", e.round).num("imports", e.count);
      return t;
    }
    if (e.kind == EventKind::kDegrade) {
      t.str("what", "checkpoint").str("error", e.error);
      return t;
    }
    t.num("cell", e.cell);
    switch (e.kind) {
      case EventKind::kCellStart:
        t.num("worker", e.worker);
        break;
      case EventKind::kCellDone:
        t.num("executed", e.result->executed)
            .num("vm_crashes", e.result->vm_crashes)
            .num("hv_crashes", e.result->hv_crashes)
            .num("wall_ms", e.wall_us / 1000.0);
        break;
      case EventKind::kHarnessFault:
        t.num("attempt", e.attempt)
            .num("kind", static_cast<double>(e.fault->kind))
            .str("fault", e.fault->describe());
        break;
      case EventKind::kModelFault:
        t.num("code", e.fault->detail).str("fault", e.fault->describe());
        break;
      case EventKind::kRetry:
        t.num("attempt", e.attempt).num("backoff_ms", e.backoff_ms);
        break;
      case EventKind::kQuarantine:
        t.num("attempts", e.attempt).str("fault", e.fault->describe());
        break;
      case EventKind::kReprobe:
        t.num("round", e.round).num("attempts", e.attempt);
        t.str("outcome", e.fault ? "repoisoned" : "rehabilitated");
        if (e.fault) t.str("fault", e.fault->describe());
        break;
      case EventKind::kForensics:
        t.num("attempt", e.attempt).num("crumbs", e.count);
        t.str("file", campaign::forensic_file_name(e.cell));
        break;
      default:
        break;
    }
    return t;
  }

  void publish(bool force) {
    if (config_.status_path.empty() && config_.on_progress == nullptr) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto now = Clock::now();
    if (!force && published_once_ &&
        std::chrono::duration<double>(now - last_publish_).count() <
            config_.status_interval_seconds) {
      return;
    }
    published_once_ = true;
    last_publish_ = now;
    campaign::ShardStatus status;
    status.shard_id = config_.shard_label.empty() ? "local" : config_.shard_label;
    status.pid = static_cast<std::uint64_t>(::getpid());
    status.started_unix = started_unix_;
    status.heartbeat_unix = campaign::wall_clock_unix();
    status.cells_total = cells_total_;
    status.cells_resumed = count(EventKind::kResumed);
    const std::size_t rehabilitated = tally(kTallyRehabilitated);
    status.cells_done =
        status.cells_resumed + count(EventKind::kCellDone) + rehabilitated;
    // This run's quarantines, net of re-probe rehabilitations.
    status.cells_poisoned =
        count(EventKind::kQuarantine) -
        std::min(count(EventKind::kQuarantine), rehabilitated);
    status.harness_faults = count(EventKind::kHarnessFault);
    status.executed = tally(kTallyMutants);
    status.elapsed_seconds = std::chrono::duration<double>(now - started_).count();
    status.mutants_per_second =
        status.elapsed_seconds > 0.0
            ? static_cast<double>(status.executed) / status.elapsed_seconds
            : 0.0;
    for (const auto& slot : in_flight_) {
      const std::size_t cell = slot.load(std::memory_order_relaxed);
      if (cell != kIdle) status.in_flight.push_back(cell);
    }
    // The registry is process-global, so in a multi-run process the
    // counters are process totals — exactly what a fleet monitor wants
    // across a shard's claim passes.
    auto snap = reg_.snapshot();
    status.counters = std::move(snap.counters);
    status.gauges = std::move(snap.gauges);
    // Best-effort by contract: a sick status file must never sicken the
    // campaign.
    if (!config_.status_path.empty()) {
      (void)campaign::write_status_file(config_.status_path, status);
    }
    if (config_.on_progress) config_.on_progress(status);
  }

  const CampaignConfig& config_;
  const std::size_t cells_total_;
  support::MetricsRegistry& reg_ = support::metrics();
  std::array<support::MetricId, kEventKinds> ids_{};
  const support::MetricId cells_done_ = reg_.counter_id("campaign.cells_done");
  const support::MetricId mutants_ = reg_.counter_id("campaign.mutants");
  const support::MetricId rlimit_kills_ = reg_.counter_id("cell.rlimit_kills");
  const support::MetricId rehabilitated_ = reg_.counter_id("poison.rehabilitated");
  const support::MetricId cell_us_ = reg_.histogram_id("campaign.cell_us");
  const support::MetricId sandbox_cell_us_ = reg_.histogram_id("sandbox.cell_us");
  std::array<std::atomic<std::size_t>, kTallies> tallies_{};
  std::vector<std::atomic<std::size_t>> in_flight_;
  const double started_unix_ = campaign::wall_clock_unix();
  const Clock::time_point started_ = Clock::now();
  std::mutex mutex_;
  Clock::time_point last_publish_;
  bool published_once_ = false;
};

// --- Run state ---------------------------------------------------------

/// What one run() shares between its driver, executor and policy.
struct RunState {
  explicit RunState(const std::vector<TestCaseSpec>& specs)
      : grid(specs), done(specs.size(), 0), poisoned(specs.size(), 0),
        forensic_written(specs.size(), 0), coverage(specs.size()) {
    // Placeholder results of pending cells still carry their real spec,
    // so partial-run reporting can label them.
    out.results.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) out.results[i].spec = specs[i];
  }

  /// First persistence failure wins; results stay valid in memory.
  void note_error(const Status& status) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!status.ok() && out.persistence_error.empty()) {
      out.persistence_error = status.error().message;
    }
  }

  const std::vector<TestCaseSpec>& grid;
  CampaignResult out;
  // Per-cell flags. Cell i is touched only by the worker that owns it
  // (fixed stride) and, before and after the grid pass, by the driver.
  std::vector<char> done, poisoned, forensic_written;
  std::vector<Coverage> coverage;
  std::optional<campaign::CampaignCheckpoint> checkpoint;
  bool sync_enabled = false;
  std::uint32_t sync_epoch = 0;
  std::vector<VmSeed> imports;
  std::mutex error_mutex;
};

// --- Cell executor -------------------------------------------------------

/// One attempt's inputs: which cell, fuzzing which recorded behavior, on
/// which worker's stack and flight-recorder ring.
struct CellJob {
  std::size_t index;
  const TestCaseSpec& spec;
  const VmBehavior& behavior;
  std::size_t worker;
};

/// Runs one attempt of one cell, in-process or in the worker's sandbox
/// child (fuzz/sandbox.h), and returns its fault (nullopt = clean). The
/// only code that decides when a worker's child is spawned, reused or
/// retired. Both paths share body(), which makes "clean sandboxed cell ≡
/// in-process cell" a serialization round-trip property, not a hope.
class CellExecutor {
 public:
  CellExecutor(const CampaignConfig& config, std::size_t workers,
               const RunState& state)
      : config_(config), state_(state) {
    // Per-worker pooled VM stacks (the default): one Hypervisor/Manager
    // per worker for the whole grid, reset to the post-construction
    // state between cells. Slots are created lazily, so a fully-resumed
    // run builds none.
    if (config.reuse_vm_stacks) {
      pool_.emplace(workers, config.hv_seed, config.async_noise_prob);
    }
    // One crash-surviving flight-recorder ring per worker, created
    // BEFORE any fork so every sandbox child inherits its worker's
    // MAP_SHARED mapping; the parent harvests it after any harness fault.
    if (config.flight_recorder || !config.forensics_dir.empty()) {
      for (std::size_t w = 0; w < workers; ++w) {
        recorders_.push_back(std::make_unique<support::FlightRecorder>());
      }
    }
    if (config.sandbox_cells) {
      children_ = std::vector<Child>(workers);
      spawns_ = support::metrics().counter_id("sandbox.spawns");
    }
  }

  /// Record `workload` on first need, on the needing worker's own stack
  /// (slot w belongs to worker w; the post-join phases use slot 0).
  /// Recording is a pure function of (workload, config) — identical
  /// bytes whichever worker records — so laziness cannot change results;
  /// it only skips workloads this run never executes. Always on the
  /// BASELINE profile: the capability matrix is record-once/replay-
  /// everywhere, and body() re-resets the stack to the cell's profile.
  const VmBehavior& behavior(guest::Workload workload, std::size_t worker) {
    const std::lock_guard<std::mutex> lock(behaviors_mutex_);
    auto it = behaviors_.find(workload);
    if (it != behaviors_.end()) return it->second;
    std::optional<CellVm> throwaway;
    Manager* recorder = stack(worker, vtx::baseline_profile(), throwaway).second;
    // Map references stay valid across inserts.
    return behaviors_[workload] = recorder->record_workload(
               workload, config_.record_exits, config_.record_seed);
  }

  /// One attempt. A clean result lands in *out (nullptr = discard: the
  /// re-probe's canary). In-process attempts never fault — a dying cell
  /// takes the process with it — but arm the worker's private ring, the
  /// path the byte-identity matrix and the armed-overhead bench cover.
  std::optional<HarnessFault> attempt(const CellJob& job,
                                      const SandboxLimits& limits,
                                      campaign::CheckpointCell* out) {
    if (config_.sandbox_cells) return sandboxed(job, limits, out);
    support::FlightRecorder* const ring = recorder(job.worker);
    if (ring != nullptr) {
      ring->reset();
      ring->arm();
    }
    campaign::CheckpointCell run = body(job);
    if (ring != nullptr) ring->disarm();
    if (out != nullptr) *out = std::move(run);
    return std::nullopt;
  }

  /// Re-establish a worker's pooled stack from scratch; its sandbox
  /// child, forked from the old stack, goes with it.
  void rebuild(std::size_t worker) {
    retire(worker);
    if (pool_) pool_->rebuild(worker);
  }

  /// Bracket a worker thread's grid pass. In sandbox mode the worker
  /// holds fork_gate_ shared for the whole pass, except while it waits
  /// for its child's answer, and retires its child before its thread
  /// ends: the child's parent-death signal follows the forking thread.
  void begin_pass(std::size_t worker) {
    if (worker >= children_.size()) return;
    fork_gate_.lock_shared();
    children_[worker].in_pass = true;
  }
  void end_pass(std::size_t worker) {
    if (worker >= children_.size()) return;
    retire(worker);
    children_[worker].in_pass = false;
    fork_gate_.unlock_shared();
  }

  [[nodiscard]] support::FlightRecorder* recorder(std::size_t worker) const {
    return worker < recorders_.size() ? recorders_[worker].get() : nullptr;
  }

 private:
  /// A worker's sandbox child and the behaviors it copied at fork.
  struct Child {
    SandboxChild child;
    std::uint32_t workloads = 0;  ///< bit w set: holds workload w's behavior
    bool in_pass = false;  ///< the worker holds fork_gate_ shared
  };

  /// Kill and reap a worker's sandbox child, if it has one.
  void retire(std::size_t worker) {
    if (worker < children_.size()) children_[worker].child.retire();
  }

  static std::uint32_t workload_bit(guest::Workload workload) {
    return std::uint32_t{1} << static_cast<unsigned>(workload);
  }

  /// A stack for `profile`, from one of two sources: the worker's reset
  /// pooled slot, or a throwaway CellVm (provably equivalent — see
  /// PooledVm::reset).
  std::pair<hv::Hypervisor*, Manager*> stack(
      std::size_t worker, const vtx::VmxCapabilityProfile& profile,
      std::optional<CellVm>& throwaway) {
    if (!pool_) {
      CellVm& vm = throwaway.emplace(config_, profile);
      return {&vm.hv, &vm.manager};
    }
    PooledVm& slot = pool_->worker(worker);
    slot.reset(profile);
    return {&slot.hv(), &slot.manager()};
  }

  /// The one cell body, on a stack built for the cell's profile.
  campaign::CheckpointCell body(const CellJob& job) {
    std::optional<CellVm> throwaway;
    const auto [cell_hv, manager] =
        stack(job.worker, vtx::profile_by_id(job.spec.profile), throwaway);
    Fuzzer fuzzer(*manager, config_.fuzzer);
    TestCaseResult result = fuzzer.run_test_case(
        job.spec, job.behavior, state_.imports,
        state_.sync_enabled ? config_.import_mutants : 0);
    return {job.index, state_.sync_epoch, std::move(result),
            cell_coverage(cell_hv->coverage())};
  }

  /// One attempt in the worker's long-lived child. The cell_exec
  /// failpoint is drawn here in the parent, once per attempt, and rides
  /// in the job; the child executes it and is retired after the attempt.
  /// A child is respawned when it would run under other limits, or when
  /// its fork-time copy of behaviors_ lacks the job's workload (the
  /// parent recorded it later). The sync-epoch imports need no such
  /// rule: run() resolves them before the executor exists, so every
  /// child's copy matches them.
  std::optional<HarnessFault> sandboxed(const CellJob& job,
                                        const SandboxLimits& limits,
                                        campaign::CheckpointCell* out) {
    std::optional<support::failpoints::Hit> injected;
    if (support::failpoints::active()) {
      injected = support::failpoints::evaluate("cell_exec", job.index);
    }
    Child& c = children_[job.worker];
    if (c.child.alive() && (c.child.limits() != limits ||
                            (c.workloads & workload_bit(job.spec.workload)) == 0)) {
      c.child.retire();
    }
    if (!c.child.alive() && !spawn(job.worker, limits)) {
      return HarnessFault{HarnessFault::Kind::kProtocol, errno, {}};
    }
    return c.child.run(job.index, job.spec, injected, out,
                       c.in_pass ? &fork_gate_ : nullptr);
  }

  /// Fork the worker's child from a built pooled slot, so the child
  /// never constructs a stack of its own. Fork safety: the fork happens
  /// under fork_gate_ held exclusively, so no other worker is running
  /// parent-side code, and every lock it could hold (allocator locks
  /// included) is free in the child. behaviors_mutex_ is held too, so
  /// the child copies a whole behaviors_ map and never needs the lock.
  bool spawn(std::size_t worker, const SandboxLimits& limits) {
    if (pool_) (void)pool_->worker(worker);
    Child& c = children_[worker];
    if (c.in_pass) fork_gate_.unlock_shared();
    bool spawned = false;
    {
      const std::lock_guard<std::shared_mutex> exclusive(fork_gate_);
      const std::lock_guard<std::mutex> lock(behaviors_mutex_);
      c.workloads = 0;
      for (const auto& entry : behaviors_) c.workloads |= workload_bit(entry.first);
      spawned = c.child.spawn(
          limits, recorder(worker),
          [this, worker](std::size_t index, const TestCaseSpec& spec) {
            // Child side: the respawn rule sends this child only jobs
            // whose workload its copy of behaviors_ holds.
            return body({index, spec, behaviors_.at(spec.workload), worker});
          });
    }
    if (c.in_pass) fork_gate_.lock_shared();
    if (spawned) support::metrics().add(spawns_);
    return spawned;
  }

  const CampaignConfig& config_;
  const RunState& state_;
  std::optional<VmPool> pool_;
  std::vector<std::unique_ptr<support::FlightRecorder>> recorders_;
  std::mutex behaviors_mutex_;
  std::map<guest::Workload, VmBehavior> behaviors_;
  support::MetricId spawns_ = support::kInvalidMetric;
  /// Held shared by every worker while it runs parent-side code, and
  /// exclusively across fork(). A child inherits each lock as it was at
  /// the fork and never sees its holder release it; not every lock is
  /// fork-safe (under ASan, a child hung on an allocator mutex that a
  /// sibling worker held while decoding its own child's result).
  std::shared_mutex fork_gate_;
  /// Declared last, so every child is reaped before the rest goes.
  std::vector<Child> children_;
};

// --- Cell policy ---------------------------------------------------------

bool by_index(const PoisonedCell& a, const PoisonedCell& b) {
  return a.index < b.index;
}

/// What happens to a cell around its attempts: attempt → jittered
/// backoff → retry → quarantine in the grid pass, then degraded re-probe
/// → rehabilitate or re-poison after it. Both passes share one fault
/// step (account, harvest forensics, rebuild the slot), one commit and
/// one journal append helper.
class CellPolicy {
 public:
  CellPolicy(const CampaignConfig& config, RunState& state, CellExecutor& exec,
             CampaignEvents& events)
      : config_(config), state_(state), exec_(exec), events_(events),
        limits_{config.cell_deadline_seconds, config.rlimit_cpu_seconds,
                config.rlimit_as_mb, config.rlimit_core_mb},
        budget_(config.cell_budget == 0 ? std::numeric_limits<std::size_t>::max()
                                        : config.cell_budget) {}

  /// Worker `worker`'s fixed-stride share of the grid.
  void grid_pass(std::size_t worker, std::size_t workers) {
    if (config_.sandbox_cells) {
      // Record every behavior this worker's pending cells fuzz before its
      // first cell, so its sandbox child is forked once, holding them all.
      for (std::size_t i = worker; i < state_.grid.size(); i += workers) {
        if (state_.done[i] == 0 && state_.poisoned[i] == 0) {
          (void)exec_.behavior(state_.grid[i].workload, worker);
        }
      }
    }
    for (std::size_t i = worker; i < state_.grid.size(); i += workers) {
      if (state_.done[i] != 0 || state_.poisoned[i] != 0) continue;
      if (stop_requested()) {
        // Cooperative stop: the in-flight cell (if any) already finished
        // and journaled; just stop claiming new ones.
        saw_stop_.store(true, std::memory_order_relaxed);
        return;
      }
      events_.tick();
      if (config_.gate != nullptr) {
        config_.gate->heartbeat();
        if (!config_.gate->try_claim(i)) continue;  // another shard's range
      }
      if (!claim_budget()) return;
      run_cell(i, worker);
    }
  }

  /// After the grid pass, each still-poisoned cell (fresh quarantine or
  /// resumed) gets one more chance. Main thread only; borrows worker
  /// slot 0 and its ring.
  void reprobe_pass() {
    auto& poisoned_cells = state_.out.poisoned_cells;
    if (!config_.sandbox_cells || !config_.reprobe_poisoned ||
        poisoned_cells.empty() || stop_requested()) {
      return;
    }
    std::sort(poisoned_cells.begin(), poisoned_cells.end(), by_index);
    std::vector<PoisonedCell> still_poisoned;
    for (PoisonedCell poison : poisoned_cells) {
      if (state_.done[poison.index] != 0) continue;
      if (!reprobe(poison)) still_poisoned.push_back(poison);
    }
    poisoned_cells = std::move(still_poisoned);
    events_.publish_now();
  }

  [[nodiscard]] bool interrupted() const {
    return saw_stop_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool stop_requested() const {
    return config_.stop != nullptr &&
           config_.stop->load(std::memory_order_relaxed);
  }

  /// Workers claim a budget slot before executing a new cell, so a
  /// budgeted run completes exactly min(budget, remaining) cells. Which
  /// cells land inside it depends on thread timing — harmless, since the
  /// merged result is a function of the full grid only.
  bool claim_budget() {
    std::size_t current = budget_.load(std::memory_order_relaxed);
    while (current != 0) {
      if (budget_.compare_exchange_weak(current, current - 1,
                                        std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void run_cell(std::size_t i, std::size_t worker) {
    const TestCaseSpec& spec = state_.grid[i];
    const CellJob job{i, spec, exec_.behavior(spec.workload, worker), worker};
    events_.emit({.kind = EventKind::kCellStart, .cell = i, .worker = worker});
    const auto started = Clock::now();
    const std::size_t max_attempts =
        config_.sandbox_cells ? 1 + config_.cell_retries : 1;
    campaign::CheckpointCell run;
    std::optional<HarnessFault> fault;
    double attempt_us = 0.0;
    for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      const auto attempt_started = Clock::now();
      fault = exec_.attempt(job, limits_, &run);
      if (config_.sandbox_cells) attempt_us = us_since(attempt_started);
      if (!fault) break;
      on_fault(i, worker, attempt, *fault, attempt_us);
      if (attempt < max_attempts) backoff(i, attempt);
    }
    if (fault) return quarantine(i, worker, max_attempts, *fault);
    commit(i, std::move(run));
    events_.emit({.kind = EventKind::kCellDone, .cell = i, .worker = worker,
                  .result = &state_.out.results[i],
                  .wall_us = us_since(started), .attempt_us = attempt_us});
    // Only journaled cells may retire toward a (final) done marker: the
    // reducer only ever sees journaled results, so a cell lost to a
    // persistence failure must leave its range claimable.
    if (journal_cell(i) && config_.gate != nullptr) config_.gate->completed(i);
  }

  /// The fault step of both passes: account the fault, harvest the dead
  /// child's ring, and rebuild the worker's pooled stack from scratch
  /// after reaping a dead harness.
  void on_fault(std::size_t i, std::size_t worker, std::size_t attempt,
                const HarnessFault& fault, double attempt_us) {
    if (fault.kind == HarnessFault::Kind::kModelFault) {
      events_.emit({.kind = EventKind::kModelFault, .cell = i, .fault = &fault});
    }
    events_.emit({.kind = EventKind::kHarnessFault, .cell = i,
                  .attempt = attempt, .fault = &fault,
                  .attempt_us = attempt_us});
    publish_forensics(i, worker, attempt, fault);
    exec_.rebuild(worker);
  }

  /// Deterministic jittered exponential backoff before the next attempt.
  void backoff(std::size_t i, std::size_t attempt) {
    const support::RetryPolicy policy{
        .base_delay_ms = config_.retry_base_backoff_ms, .multiplier = 2.0,
        .max_delay_ms = 2000.0,
        .jitter_seed = 0x9E3779B97F4A7C15ULL ^ (i * 0x100000001B3ULL)};
    const double backoff_ms = support::retry_delay_ms(policy, attempt);
    events_.emit({.kind = EventKind::kRetry, .cell = i, .attempt = attempt,
                  .backoff_ms = backoff_ms});
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }

  /// Every attempt faulted: carry the cell as an explicit hole. A
  /// journaled quarantine retires the range exactly like a journaled
  /// result — the reducer will see and report it.
  void quarantine(std::size_t i, std::size_t worker, std::size_t attempts,
                  const HarnessFault& fault) {
    std::fprintf(stderr, "campaign: cell %zu poisoned after %zu attempts: %s\n",
                 i, attempts, fault.describe().c_str());
    state_.poisoned[i] = 1;
    events_.emit({.kind = EventKind::kQuarantine, .cell = i, .worker = worker,
                  .attempt = attempts, .fault = &fault});
    const auto attempts32 = static_cast<std::uint32_t>(attempts);
    {
      const std::lock_guard<std::mutex> lock(journal_mutex_);
      state_.out.poisoned_cells.push_back(PoisonedCell{i, attempts32, fault});
    }
    const campaign::PoisonRecord record{
        i, attempts32, static_cast<std::uint8_t>(fault.kind), fault.detail,
        fault.describe() + forensics_note(i)};
    if (journal([&](auto& ckpt) { return ckpt.append_poison(record); }) &&
        config_.gate != nullptr) {
      config_.gate->completed(i);
    }
  }

  /// One re-probe round: a degraded canary on a fresh slot whose result
  /// is DISCARDED (journaling a reduced-budget result would hand the
  /// reducer two conflicting records for one index); a clean canary
  /// earns a full-fidelity re-execution that, if clean, rehabilitates the
  /// cell (journaled like any clean cell — clean-cell-wins does the rest
  /// on resume and reduce). Otherwise it re-poisons with the attempt
  /// history. True iff rehabilitated.
  bool reprobe(PoisonedCell& poison) {
    const std::size_t i = poison.index;
    const TestCaseSpec& spec = state_.grid[i];
    const VmBehavior& behavior = exec_.behavior(spec.workload, 0);
    // Round number is per-journal history: earlier runs' re-probes of
    // this cell (loaded at open) come first.
    std::uint32_t round = 1;
    if (state_.checkpoint) {
      for (const auto& rp : state_.checkpoint->reprobes()) {
        if (rp.index == i) ++round;
      }
    }
    TestCaseSpec probe = spec;
    probe.mutants = std::min(spec.mutants, config_.reprobe_probe_mutants);
    exec_.rebuild(0);
    std::uint32_t spent = 1;
    campaign::CheckpointCell run;
    auto fault =
        exec_.attempt({i, probe, behavior, 0}, limits_.degraded(), nullptr);
    if (!fault) {
      exec_.rebuild(0);
      ++spent;
      fault = exec_.attempt({i, spec, behavior, 0}, limits_, &run);
    }
    campaign::ReprobeRecord record{i, round, campaign::kReprobeRehabilitated,
                                   0, 0, poison.attempts + spent, {}};
    if (fault) {
      on_fault(i, 0, spent, *fault, 0.0);
      poison.attempts = record.attempts_total;
      poison.fault = *fault;
      record.outcome = campaign::kReprobeRepoisoned;
      record.fault_kind = static_cast<std::uint8_t>(fault->kind);
      record.detail = fault->detail;
      record.message = fault->describe() + forensics_note(i);
      std::fprintf(stderr,
                   "campaign: cell %zu re-poisoned by re-probe round %u: %s\n",
                   i, round, fault->describe().c_str());
    }
    journal([&](auto& ckpt) { return ckpt.append_reprobe(record); });
    if (!fault) {
      state_.poisoned[i] = 0;
      commit(i, std::move(run));
      std::fprintf(stderr,
                   "campaign: cell %zu rehabilitated by re-probe round %u\n", i,
                   round);
      journal_cell(i);
    }
    events_.emit({.kind = EventKind::kReprobe, .cell = i,
                  .attempt = record.attempts_total, .round = round,
                  .result = fault ? nullptr : &state_.out.results[i],
                  .fault = fault ? &*fault : nullptr});
    return !fault;
  }

  void commit(std::size_t i, campaign::CheckpointCell&& run) {
    state_.out.results[i] = std::move(run.result);
    state_.coverage[i] = std::move(run.coverage);
    state_.done[i] = 1;
  }

  /// Decode the dead child's ring and publish forensics-<cell>.json.
  /// Best-effort like the status file: a sick write surfaces in
  /// persistence_error but never fails or perturbs the campaign.
  void publish_forensics(std::size_t i, std::size_t worker, std::size_t attempt,
                         const HarnessFault& fault) {
    support::FlightRecorder* const ring = exec_.recorder(worker);
    if (ring == nullptr || config_.forensics_dir.empty()) return;
    const campaign::ForensicRecord record{
        i, static_cast<std::uint32_t>(attempt), config_.shard_label,
        fault.describe(),
        static_cast<std::uint64_t>(campaign::wall_clock_unix()),
        ring->harvest()};
    const Status status = campaign::write_forensics(config_.forensics_dir, record);
    if (!status.ok()) return state_.note_error(status);
    state_.forensic_written[i] = 1;
    events_.emit({.kind = EventKind::kForensics, .cell = i, .attempt = attempt,
                  .count = record.harvest.crumbs.size()});
  }

  /// Points triage at a quarantined cell's breadcrumbs. Free text by
  /// design: no journal version bump, old readers show it verbatim.
  [[nodiscard]] std::string forensics_note(std::size_t i) const {
    return state_.forensic_written[i] != 0
               ? " forensics=" + campaign::forensic_file_name(i)
               : std::string();
  }

  /// True iff the cell's record reached this shard's journal.
  bool journal_cell(std::size_t i) {
    const campaign::CheckpointCell cell{i, state_.sync_epoch,
                                        state_.out.results[i],
                                        state_.coverage[i]};
    return journal([&](auto& ckpt) { return ckpt.append(cell); });
  }

  /// The one journal append path. After the first post-retry (i.e.
  /// permanent: ENOSPC, EACCES, ...) failure the journal is degraded:
  /// the campaign completes in memory without hammering a hopeless
  /// filesystem once per cell, and persistence_error surfaces the cause.
  template <typename Append>
  bool journal(const Append& append) {
    const std::lock_guard<std::mutex> lock(journal_mutex_);
    if (!state_.checkpoint || journal_degraded_) return false;
    const Status status = append(*state_.checkpoint);
    if (status.ok()) return true;
    state_.note_error(status);
    journal_degraded_ = true;
    events_.emit({.kind = EventKind::kDegrade, .error = status.error().message});
    return false;
  }

  const CampaignConfig& config_;
  RunState& state_;
  CellExecutor& exec_;
  CampaignEvents& events_;
  const SandboxLimits limits_;  ///< every ordinary attempt's limits
  std::atomic<std::size_t> budget_;
  std::atomic<bool> saw_stop_{false};
  std::mutex journal_mutex_;  ///< appends, degraded flag, poisoned_cells
  bool journal_degraded_ = false;
};

// --- Driver phases -------------------------------------------------------

/// Quarantined cells resume as quarantined: the journal says every
/// attempt faulted, so this run never re-executes them (a clean record
/// for the same index — conceivable from a hand-merged journal — wins).
/// Re-probe history (v5) then folds in: a re-poisoned round updated the
/// attempt count and fault without a second poison record; rehabilitated
/// rounds need nothing — their clean cell record already marked the
/// cell done.
void resume_quarantines(RunState& s) {
  for (const auto& poison : s.checkpoint->poisons()) {
    if (poison.index >= s.grid.size() || s.done[poison.index] != 0 ||
        s.poisoned[poison.index] != 0) {
      continue;
    }
    s.poisoned[poison.index] = 1;
    s.out.poisoned_cells.push_back(PoisonedCell{
        poison.index, poison.attempts,
        HarnessFault{static_cast<HarnessFault::Kind>(poison.fault_kind),
                     poison.detail, poison.message}});
  }
  for (const auto& rp : s.checkpoint->reprobes()) {
    if (rp.index >= s.grid.size() || s.done[rp.index] != 0 ||
        rp.outcome != campaign::kReprobeRepoisoned) {
      continue;
    }
    for (auto& cell : s.out.poisoned_cells) {
      if (cell.index != rp.index) continue;
      cell.attempts = std::max(cell.attempts, rp.attempts_total);
      cell.fault = HarnessFault{static_cast<HarnessFault::Kind>(rp.fault_kind),
                                rp.detail, rp.message};
    }
  }
}

/// Recover completed and quarantined cells from the checkpoint journal.
/// A journal that cannot be opened (foreign fingerprint, unreadable
/// file) is surfaced but never written to: the run proceeds in memory.
void resume(const CampaignConfig& config, RunState& s, CampaignEvents& events) {
  if (!config.checkpoint_path.empty()) {
    auto opened = campaign::CampaignCheckpoint::open(
        config.checkpoint_path, campaign::campaign_fingerprint(s.grid, config),
        campaign::grid_uses_profiles(s.grid), config.sandbox_cells,
        config.sandbox_cells && config.reprobe_poisoned);
    if (!opened.ok()) {
      s.out.persistence_error = opened.error().message;
    } else {
      s.checkpoint = std::move(opened).take();
      std::size_t resumed = 0;
      for (const auto& cell : s.checkpoint->cells()) {
        if (cell.index >= s.grid.size() || s.done[cell.index] != 0) continue;
        s.done[cell.index] = 1;
        s.out.results[cell.index] = cell.result;
        s.coverage[cell.index] = cell.coverage;
        ++resumed;
      }
      resume_quarantines(s);
      events.emit({.kind = EventKind::kResumed, .count = resumed});
    }
  }
  // Tell a distributed gate about every cell this shard's own journal
  // already covers — completed or quarantined — so it can finish ranges
  // a previous incarnation left half-complete instead of reclaiming a
  // poisoned range forever.
  if (config.gate != nullptr) {
    for (std::size_t i = 0; i < s.grid.size(); ++i) {
      if (s.done[i] != 0 || s.poisoned[i] != 0) config.gate->completed(i);
    }
  }
}

/// Resolve the corpus-sync epoch. Priority: an epoch already in the
/// journal (a resumed run replays exactly the imports the first run
/// froze), then a pinned set from the distributed layer, then a fresh
/// snapshot of the shared store in sorted entry-name order. A fresh
/// epoch is journaled *before* any cell, so even a run killed after one
/// cell leaves its import set on disk.
void resolve_sync_epoch(const CampaignConfig& config, RunState& s,
                        CampaignEvents& events) {
  s.sync_enabled =
      !config.corpus_dir.empty() || config.pinned_imports.has_value();
  if (!s.sync_enabled) return;
  if (s.checkpoint && !s.checkpoint->epochs().empty()) {
    s.imports = s.checkpoint->epochs().back().imports;
    s.sync_epoch = s.checkpoint->epochs().back().epoch;
  } else {
    if (config.pinned_imports.has_value()) {
      s.imports = *config.pinned_imports;
      if (s.imports.size() > config.corpus_max_imports) {
        s.imports.resize(config.corpus_max_imports);
      }
    } else {
      const campaign::CorpusStore store(config.corpus_dir);
      for (const auto& name : store.list()) {
        if (s.imports.size() >= config.corpus_max_imports) break;
        auto entry = store.read_entry(name);
        if (!entry.ok()) continue;  // corrupt entries never kill a run
        s.imports.push_back(std::move(entry).take().seed);
      }
    }
    s.sync_epoch = 1;
    if (s.checkpoint) {
      s.note_error(s.checkpoint->append_epoch(
          campaign::SyncEpochRecord{s.sync_epoch, s.imports}));
    }
  }
  events.emit({.kind = EventKind::kSyncEpoch, .round = s.sync_epoch,
               .count = s.imports.size()});
}

/// Fill the result's completion and accounting fields, then run the
/// merge phase shared with the distributed reducer.
void finalize(RunState& s, const CampaignEvents& events, bool interrupted) {
  CampaignResult& out = s.out;
  // A poisoned cell keeps done[i] == 0: the campaign outcome is honestly
  // partial (complete == false, its result a placeholder).
  out.complete =
      std::all_of(s.done.begin(), s.done.end(), [](char d) { return d != 0; });
  out.cells_completed.assign(s.done.begin(), s.done.end());
  out.cells_resumed = events.count(EventKind::kResumed);
  out.harness_faults = events.count(EventKind::kHarnessFault);
  out.rlimit_kills = events.tally(kTallyRlimitKills);
  out.model_faults = events.count(EventKind::kModelFault);
  out.forensics_written = events.count(EventKind::kForensics);
  out.cells_reprobed = events.count(EventKind::kReprobe);
  out.cells_rehabilitated = events.tally(kTallyRehabilitated);
  out.interrupted = interrupted;
  std::sort(out.poisoned_cells.begin(), out.poisoned_cells.end(), by_index);
  finalize_campaign_result(s.coverage, out);
}

/// One replayable reproducer per crash bucket. If a forensic record
/// exists for a bucket's cell (some attempt faulted before the clean run
/// that found the crash), its name is attached and the file copied
/// beside the reproducer, so the archive stays self-contained.
void archive_crashes(const CampaignConfig& config, RunState& s,
                     CellExecutor& exec) {
  if (config.crash_archive_dir.empty()) return;
  campaign::CrashArchive archive(config.crash_archive_dir);
  s.note_error(archive.init());
  for (const DedupedCrash& bucket : s.out.unique_crashes) {
    const TestCaseResult& cell = s.out.results[bucket.spec_index];
    const VmBehavior& behavior = exec.behavior(cell.spec.workload, 0);
    campaign::CrashReproducer repro;
    repro.key = bucket.key;
    repro.spec = cell.spec;
    repro.hv_seed = config.hv_seed;
    repro.async_noise_prob = config.async_noise_prob;
    repro.target_index = cell.target_index;
    repro.replay = config.fuzzer.replay;
    // target_index may come from a checkpoint file; bound it by the
    // behavior length before reserving, exactly as the loop does.
    const std::size_t prefix_len =
        std::min(cell.target_index + 1, behavior.size());
    repro.prefix.reserve(prefix_len);
    for (std::size_t p = 0; p < prefix_len; ++p) {
      repro.prefix.push_back(behavior[p].seed);
    }
    repro.mutant = bucket.first.mutant;
    if (!config.forensics_dir.empty() &&
        s.forensic_written[bucket.spec_index] != 0) {
      repro.forensics_name = campaign::forensic_file_name(bucket.spec_index);
      auto bytes =
          read_file_bytes(config.forensics_dir + "/" + repro.forensics_name);
      if (bytes.ok()) {
        s.note_error(write_file_atomic(config.crash_archive_dir,
                                       repro.forensics_name, bytes.value()));
      }
    }
    s.note_error(archive.write(repro));
  }
}

}  // namespace

std::string HarnessFault::describe() const {
  switch (kind) {
    case Kind::kSignal:
      return "harness killed by signal " + std::to_string(detail);
    case Kind::kExit:
      return "harness exited with code " + std::to_string(detail);
    case Kind::kDeadline:
      return "harness overran the cell deadline (SIGKILLed)";
    case Kind::kProtocol:
      return "harness result pipe torn or corrupt";
    case Kind::kResourceExhausted:
      return detail == SIGXCPU
                 ? "harness exceeded its CPU resource limit (SIGXCPU)"
                 : "harness exceeded its memory resource limit (exit " +
                       std::to_string(detail) + ")";
    case Kind::kModelFault:
      return message.empty() ? "model-layer invariant violation" : message;
  }
  return "unknown harness fault";
}

bool rlimit_as_supported() noexcept {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

void finalize_campaign_result(
    const std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>>&
        cell_coverage,
    CampaignResult& out) {
  // --- Merge the per-cell coverage in grid order (union; weights are
  // static), accumulating the total LOC as blocks are first inserted.
  out.merged_coverage.clear();
  out.merged_loc = 0;
  for (const auto& blocks : cell_coverage) {
    for (const auto& [block, loc] : blocks) {
      if (out.merged_coverage.emplace(block, loc).second) {
        out.merged_loc += loc;
      }
    }
  }

  // --- Aggregate counters and crash dedup, in grid order. ---
  out.unique_crashes.clear();
  out.total_crashes = 0;
  out.cells_ran = 0;
  out.executed = 0;
  out.vm_crashes = 0;
  out.hv_crashes = 0;
  out.hangs = 0;
  std::map<CrashKey, std::size_t> buckets;  // key -> index in unique_crashes
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const TestCaseResult& r = out.results[i];
    if (r.ran) ++out.cells_ran;
    out.executed += r.executed;
    out.vm_crashes += r.vm_crashes;
    out.hv_crashes += r.hv_crashes;
    out.hangs += r.hangs;
    for (const CrashRecord& crash : r.crashes) {
      ++out.total_crashes;
      const SeedItem& mutated = crash.mutant.items[crash.mutation.item_index];
      const CrashKey key{crash.kind, r.spec.reason, mutated.kind,
                         mutated.encoding};
      auto [it, inserted] = buckets.emplace(key, out.unique_crashes.size());
      if (inserted) {
        out.unique_crashes.push_back(DedupedCrash{key, crash, i, 1});
      } else {
        ++out.unique_crashes[it->second].occurrences;
      }
    }
  }
}

CampaignResult CampaignRunner::run(const std::vector<TestCaseSpec>& grid) {
  RunState state(grid);
  if (grid.empty()) return std::move(state.out);
  const std::size_t workers =
      std::clamp<std::size_t>(config_.workers, 1, grid.size());
  state.out.workers_used = workers;

  CampaignEvents events(config_, grid.size(), workers);
  resume(config_, state, events);
  resolve_sync_epoch(config_, state, events);
  // First status publication before any cell runs, so a fleet monitor
  // sees the shard the moment it starts (CI greps for this).
  events.publish_now();

  CellExecutor exec(config_, workers, state);
  CellPolicy policy(config_, state, exec, events);
  const auto started = Clock::now();
  const auto pass = [&](std::size_t w) {
    exec.begin_pass(w);
    policy.grid_pass(w, workers);
    exec.end_pass(w);
  };
  if (workers == 1) {
    pass(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(pass, w);
    for (auto& t : threads) t.join();
  }
  policy.reprobe_pass();
  state.out.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();

  finalize(state, events, policy.interrupted());
  archive_crashes(config_, state, exec);
  state.out.mutants_per_second =
      state.out.elapsed_seconds > 0.0
          ? static_cast<double>(state.out.executed) / state.out.elapsed_seconds
          : 0.0;
  // Final publication with the run's closing counts. Not a "finished"
  // status: a distributed shard runs several claim passes per shard
  // lifetime, and only the layer that knows the last pass ended (the
  // DistributedCampaign / the CLI) can say so.
  events.publish_now();
  return std::move(state.out);
}

}  // namespace iris::fuzz
