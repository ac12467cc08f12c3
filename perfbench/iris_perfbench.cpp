// iris_perfbench — the benchmark program behind perfbench/run.py.
//
// One process runs one workload for a fixed host-time budget and writes
// one flat JSON result (see write_result). It drives the library only
// through public functions and times every layer from outside, at the
// call into that layer; nothing inside the program is instrumented.
//
// Every timing is host time (std::chrono::steady_clock). The model's own
// outputs — coverage LOC, crash tallies, entry-check rejections,
// simulated cycles, canonical result bytes — are checked as correctness
// (digests, cross-path identities) and never reported as speed.
//
//   iris_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --tmp <dir> --out <result.json>
//
// Workloads (README.md has the why of each):
//   table1_hot        Table I grid in-process, 1 worker, large M
//   record_replay     record 5 long guest traces, replay each in full
//   campaign_sandbox  540-cell profile grid, 2 workers, sandboxed cells,
//                     checkpoint journal + crash archive
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/checkpoint.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/vm_pool.h"
#include "iris/manager.h"
#include "iris/recorder.h"
#include "support/serialize.h"
#include "support/telemetry.h"
#include "vtx/entry_checks.h"

namespace {

using namespace iris;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Workload sizes. Changing any of these changes the pinned digests in
// pinned.json (they are a function of seed and size).

constexpr std::uint64_t kHvSeed = 17;
/// Exits recorded per guest workload before a campaign fuzzes it.
constexpr std::uint64_t kCampaignRecordExits = 500;
/// table1_hot: mutants per cell. 44 of the 54 cells run, so one grid is
/// ~0.9M mutants.
constexpr std::size_t kHotMutants = 20'000;
/// record_replay: exits per guest trace (5 traces per round).
constexpr std::uint64_t kLongTraceExits = 100'000;
/// campaign_sandbox: mutants per cell of the 540-cell grid.
constexpr std::size_t kSandboxMutants = 300;
constexpr std::size_t kSandboxWorkers = 2;
/// Watchdog deadline per sandboxed cell attempt. Cells take ~10 ms; a
/// cell child that hangs (README.md, "Known fault") is killed here and
/// retried instead of stalling a round for the default 120 s.
constexpr double kCellDeadlineSeconds = 5.0;
/// Companion rounds: the short record/replay round that gives the
/// campaign workloads their record/replay metrics, and the short
/// Table I round that gives record_replay its mutant/cell metrics.
constexpr std::uint64_t kShortTraceExits = 20'000;
constexpr std::size_t kCompanionMutants = 1'000;
/// Set-up is repeated this many times per run; its median is setup_s.
constexpr int kSetupRepeats = 15;

/// Record-path exits forced to reason 52 (preemption timer) per guest
/// workload: guest programs never raise it, replay does.
constexpr std::uint64_t kPreemptionProbeExits = 4'000;
/// Exit reasons whose record-path dispatch cost is a per-layer metric:
/// every reason the five guest programs raise, plus the reason-52 probe.
constexpr std::array<int, 14> kRecordReasons = {1,  7,  10, 12, 16, 18, 28,
                                                30, 32, 44, 46, 47, 48, 52};

constexpr std::array<guest::Workload, 3> kTable1Workloads = {
    guest::Workload::kOsBoot, guest::Workload::kCpuBound, guest::Workload::kIdle};
constexpr std::array<guest::Workload, 5> kAllWorkloads = {
    guest::Workload::kOsBoot, guest::Workload::kCpuBound, guest::Workload::kMemBound,
    guest::Workload::kIoBound, guest::Workload::kIdle};

// ---------------------------------------------------------------------
// Time and statistics.

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Cost of one empty span (two back-to-back clock reads), subtracted
/// from every per-call timing: the mean of the middle half of 200K
/// samples, which keeps sub-nanosecond resolution and drops preemptions.
double measure_span_cost_ns() {
  std::vector<double> d(200'000);
  for (double& x : d) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    x = static_cast<double>(b - a);
  }
  std::sort(d.begin(), d.end());
  double sum = 0.0;
  for (std::size_t i = d.size() / 4; i < d.size() * 3 / 4; ++i) sum += d[i];
  return sum / static_cast<double>(d.size() / 2);
}

/// Per-call host timings of one layer, in nanoseconds.
class Layer {
 public:
  void add(std::int64_t ns) {
    samples_.push_back(static_cast<float>(ns));
    total_ns_ += static_cast<double>(ns);
  }
  [[nodiscard]] std::size_t n() const noexcept { return samples_.size(); }
  /// Net of the empty-span cost, in microseconds. Not clamped: a call
  /// cheaper than the span's own error may read slightly below zero.
  [[nodiscard]] double quantile_us(double q, double span_ns) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> v(samples_.begin(), samples_.end());
    return (quantile(std::move(v), q) - span_ns) * 1e-3;
  }
  [[nodiscard]] double total_net_us(double span_ns) const {
    return (total_ns_ - span_ns * static_cast<double>(n())) * 1e-3;
  }

 private:
  std::vector<float> samples_;
  double total_ns_ = 0.0;
};

// ---------------------------------------------------------------------
// Results, checks and output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::string> failures;  ///< correctness-gate violations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failed_base;  ///< what attempted counts

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest_of(const fuzz::CampaignResult& result) {
  return hex64(fnv1a(campaign::canonical_result_bytes(result)));
}

std::string digest_of(const fuzz::TestCaseResult& result) {
  ByteWriter w;
  campaign::serialize_cell_result(result, w);
  return hex64(fnv1a(std::move(w).take()));
}

std::string digest_of(const VmBehavior& behavior) {
  ByteWriter w;
  serialize_behavior(behavior, w);
  return hex64(fnv1a(std::move(w).take()));
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_result(const Run& run, const std::string& path) {
  std::string out = "{\"correct\": ";
  out += run.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"failed_base\": \"" + support::json_escape(run.failed_base) + "\"";
  out += ", \"build_type\": \"" IRIS_PERFBENCH_BUILD_TYPE "\"";
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}, \"digests\": {";
  for (std::size_t i = 0; i < run.digests.size(); ++i) {
    out += (i ? ", \"" : "\"") + run.digests[i].first + "\": \"" +
           run.digests[i].second + "\"";
  }
  out += "}, \"check_failures\": [";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    out += (i ? ", \"" : "\"") + support::json_escape(run.failures[i]) + "\"";
  }
  out += "]}\n";
  std::ofstream(path) << out;
}

// ---------------------------------------------------------------------
// Shared building blocks.

std::string reason_code(vtx::ExitReason reason) {
  return std::to_string(static_cast<int>(reason));
}

fuzz::CampaignConfig campaign_config(std::uint64_t seed, std::size_t workers) {
  fuzz::CampaignConfig config;
  config.workers = workers;
  config.hv_seed = kHvSeed;
  config.record_exits = kCampaignRecordExits;
  config.record_seed = seed;
  return config;
}

std::vector<fuzz::TestCaseSpec> table1_grid(std::size_t mutants, std::uint64_t seed) {
  return fuzz::make_table1_grid({kTable1Workloads.begin(), kTable1Workloads.end()},
                                mutants, seed);
}

std::vector<fuzz::TestCaseSpec> sandbox_grid(std::uint64_t seed) {
  std::vector<vtx::ProfileId> profiles;
  for (const auto& profile : vtx::profile_library()) profiles.push_back(profile.id);
  return fuzz::make_profile_grid({kAllWorkloads.begin(), kAllWorkloads.end()},
                                 kSandboxMutants, seed, profiles);
}

std::size_t completed_cells(const fuzz::CampaignResult& result) {
  return static_cast<std::size_t>(
      std::count(result.cells_completed.begin(), result.cells_completed.end(), 1));
}

/// Median of `fn()` over kSetupRepeats calls, in seconds.
double median_setup_seconds(const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// What every campaign pays before its first cell: a fresh VM stack and
/// the recordings the grid fuzzes.
void campaign_setup(std::span<const guest::Workload> workloads, std::uint64_t seed) {
  fuzz::PooledVm vm(kHvSeed, 0.0);
  for (const auto workload : workloads) {
    vm.reset();
    vm.manager().record_workload(workload, kCampaignRecordExits, seed);
  }
}

// --- One record/replay round: record each guest workload on a freshly
// reset stack, then replay the recording in full on the dummy VM.

struct RecordReplayRound {
  std::uint64_t exits = 0;
  double record_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t replay_failures = 0;
  std::vector<std::pair<std::string, std::string>> digests;  ///< workload -> trace digest
};

/// Record one guest workload on a freshly reset stack, replay the
/// recording in full on the dummy VM, and add the result to `round`.
void record_replay_one(fuzz::PooledVm& vm, guest::Workload workload,
                       std::uint64_t trace_exits, std::uint64_t seed, Run& run,
                       RecordReplayRound& round) {
  const std::string name(guest::to_string(workload));
  vm.reset();
  const std::int64_t t0 = now_ns();
  const VmBehavior& behavior = vm.manager().record_workload(workload, trace_exits, seed);
  const std::int64_t t1 = now_ns();
  const auto outcomes = vm.manager().replay(behavior);
  const std::int64_t t2 = now_ns();
  round.exits += behavior.size();
  round.record_s += static_cast<double>(t1 - t0) * 1e-9;
  round.replay_s += static_cast<double>(t2 - t1) * 1e-9;
  run.check(behavior.size() == trace_exits,
            name + ": recording stopped at " + std::to_string(behavior.size()) + " of " +
                std::to_string(trace_exits) + " exits");
  run.check(outcomes.size() == behavior.size(),
            name + ": replay ran " + std::to_string(outcomes.size()) + " of " +
                std::to_string(behavior.size()) + " recorded exits");
  round.replayed += behavior.size();
  std::uint64_t failures = behavior.size() - std::min(behavior.size(), outcomes.size());
  for (const auto& outcome : outcomes) {
    if (outcome.failure != hv::FailureKind::kNone) ++failures;
  }
  run.check(failures == 0, name + ": " + std::to_string(failures) + " replayed seeds failed");
  round.replay_failures += failures;
  round.digests.emplace_back(name, digest_of(behavior));
}

RecordReplayRound record_replay_round(fuzz::PooledVm& vm, std::uint64_t trace_exits,
                                      std::uint64_t seed, Run& run) {
  RecordReplayRound round;
  for (const auto workload : kAllWorkloads) {
    record_replay_one(vm, workload, trace_exits, seed, run, round);
  }
  return round;
}

std::vector<std::pair<std::string, std::string>> prefixed(
    const std::string& prefix, const std::vector<std::pair<std::string, std::string>>& d) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [k, v] : d) out.emplace_back(prefix + k, v);
  return out;
}

// --- Campaign rounds.

struct CampaignRound {
  fuzz::CampaignResult result;
  double wall_s = 0.0;
};

/// Hand freed heap back to the kernel before a timed round, so no round
/// inherits an earlier one's resident set: every sandboxed cell's fork
/// copies the parent's page tables.
void trim_heap() { ::malloc_trim(0); }

CampaignRound run_campaign(const fuzz::CampaignConfig& config,
                           const std::vector<fuzz::TestCaseSpec>& grid) {
  trim_heap();
  CampaignRound round;
  fuzz::CampaignRunner runner(config);
  const std::int64_t t0 = now_ns();
  round.result = runner.run(grid);
  round.wall_s = seconds_since(t0);
  return round;
}

/// Cells that did not complete or were poisoned, plus harness faults.
std::uint64_t campaign_failures(const fuzz::CampaignResult& result, std::size_t cells) {
  return (cells - std::min(cells, completed_cells(result))) + result.harness_faults;
}

/// A sandboxed campaign config with its journal and archive under `dir`.
fuzz::CampaignConfig sandbox_config(std::uint64_t seed, const fs::path& dir,
                                    bool sandboxed) {
  fs::remove_all(dir);  // a leftover journal would resume instead of run
  fs::create_directories(dir);
  fuzz::CampaignConfig config = campaign_config(seed, kSandboxWorkers);
  config.sandbox_cells = sandboxed;
  config.cell_deadline_seconds = kCellDeadlineSeconds;
  config.checkpoint_path = (dir / "journal.bin").string();
  config.crash_archive_dir = (dir / "archive").string();
  return config;
}

// ---------------------------------------------------------------------
// Untraced runs: end-to-end metrics.

/// Work done over host time, summed across rounds. The host alternates
/// between a fast and a slow mode every few seconds (README.md, "Noise"),
/// so round rates are bimodal: their median jumps between the modes as
/// the mix shifts, while total work over total time moves with the mix.
struct Throughput {
  double work = 0.0;
  double seconds = 0.0;
  std::vector<double> per_round;

  void add(double round_work, double round_seconds) {
    work += round_work;
    seconds += round_seconds;
    per_round.push_back(round_work / round_seconds);
  }
  [[nodiscard]] double rate() const { return seconds > 0 ? work / seconds : 0.0; }
};

struct Rates {
  Throughput mutants, cells, record, replay;
};

/// Share of the time budget given to the workload's own rounds; the rest
/// goes to its companion rounds. The two alternate through the whole
/// budget, so both see the same stretch of host time.
constexpr double kPrimaryShare = 0.8;
constexpr int kMinRounds = 3;

/// Alternate `primary` and `companion` rounds until `budget_s` has
/// passed and each has run kMinRounds times, giving the companion
/// about 1 - kPrimaryShare of the time.
void interleave(double budget_s, const std::function<void()>& primary,
                const std::function<void()>& companion) {
  const std::int64_t start = now_ns();
  double primary_s = 0.0, companion_s = 0.0;
  int primary_n = 0, companion_n = 0;
  for (;;) {
    const bool time_up = seconds_since(start) >= budget_s;
    if (time_up && primary_n >= kMinRounds && companion_n >= kMinRounds) break;
    const bool companion_due =
        time_up ? companion_n < kMinRounds
                : companion_s * kPrimaryShare < primary_s * (1.0 - kPrimaryShare);
    const std::int64_t t0 = now_ns();
    if (companion_due) {
      companion();
      companion_s += seconds_since(t0);
      ++companion_n;
    } else {
      primary();
      primary_s += seconds_since(t0);
      ++primary_n;
    }
  }
}

/// One record/replay round; every round must reproduce the first's traces.
class RecordReplayRounds {
 public:
  RecordReplayRounds(std::uint64_t trace_exits, std::uint64_t seed, bool count_attempts)
      : trace_exits_(trace_exits), seed_(seed), count_attempts_(count_attempts) {}

  void operator()(Rates& rates, Run& run) {
    trim_heap();
    fuzz::PooledVm vm(kHvSeed, 0.0);
    const RecordReplayRound round = record_replay_round(vm, trace_exits_, seed_, run);
    rates.record.add(static_cast<double>(round.exits), round.record_s);
    rates.replay.add(static_cast<double>(round.exits), round.replay_s);
    if (count_attempts_) {
      run.attempted += round.replayed;
      run.failed += round.replay_failures;
    }
    if (first_.empty()) first_ = round.digests;
    run.check(first_ == round.digests, std::to_string(trace_exits_) +
                                           "-exit record/replay round differs from the first");
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& digests() const {
    return first_;
  }

 private:
  std::uint64_t trace_exits_, seed_;
  bool count_attempts_;
  std::vector<std::pair<std::string, std::string>> first_;
};

/// One campaign round on a fixed grid; every round must reproduce the
/// first's canonical result bytes.
class CampaignRounds {
 public:
  CampaignRounds(std::function<fuzz::CampaignConfig()> config,
                 std::vector<fuzz::TestCaseSpec> grid, bool count_attempts, std::string what)
      : config_(std::move(config)),
        grid_(std::move(grid)),
        count_attempts_(count_attempts),
        what_(std::move(what)) {}

  void operator()(Rates& rates, Run& run) {
    const fuzz::CampaignConfig cfg = config_();
    const CampaignRound round = run_campaign(cfg, grid_);
    const auto& r = round.result;
    rates.mutants.add(static_cast<double>(r.executed), round.wall_s);
    rates.cells.add(static_cast<double>(completed_cells(r)), round.wall_s);
    const std::uint64_t failures = campaign_failures(r, grid_.size());
    if (count_attempts_) {
      run.attempted += grid_.size();
      run.failed += failures;
    }
    // A harness fault retried into a clean cell is a failure, not a wrong
    // output; a cell left without a result is both.
    if (failures != 0) {
      std::printf("%s: %llu harness faults, %zu cells without a result\n", what_.c_str(),
                  static_cast<unsigned long long>(r.harness_faults),
                  grid_.size() - completed_cells(r));
    }
    run.check(r.complete && r.persistence_error.empty(),
              what_ + ": " + std::to_string(grid_.size() - completed_cells(r)) +
                  " cells without a result, persistence '" + r.persistence_error + "'");
    const std::string digest = digest_of(r);
    if (first_.empty()) first_ = digest;
    run.check(digest == first_, what_ + ": round result differs from the first round");
    if (!cfg.checkpoint_path.empty()) {
      fs::remove_all(fs::path(cfg.checkpoint_path).parent_path());
    }
  }
  [[nodiscard]] const std::string& digest() const { return first_; }

 private:
  std::function<fuzz::CampaignConfig()> config_;
  std::vector<fuzz::TestCaseSpec> grid_;
  bool count_attempts_;
  std::string what_;
  std::string first_;
};

void emit_rates(const Rates& rates, Run& run) {
  std::printf("throughput over all rounds, and the spread of single rounds\n");
  const std::pair<const char*, const Throughput*> all[] = {
      {"mutants_per_s", &rates.mutants},
      {"cells_per_s", &rates.cells},
      {"record_exits_per_s", &rates.record},
      {"replay_exits_per_s", &rates.replay},
  };
  for (const auto& [name, t] : all) {
    run.metric(name, t->rate(), "1/s");
    std::printf("  %-20s %12.1f over %6.2f s   rounds: n %3zu  min %12.1f  median %12.1f"
                "  max %12.1f\n",
                name, t->rate(), t->seconds, t->per_round.size(), quantile(t->per_round, 0.0),
                median(t->per_round), quantile(t->per_round, 1.0));
  }
}

void untraced_table1_hot(std::uint64_t seed, double budget_s, Run& run) {
  run.metric("setup_s", median_setup_seconds([&] { campaign_setup(kTable1Workloads, seed); }),
             "s");
  Rates rates;
  CampaignRounds hot([&] { return campaign_config(seed, 1); }, table1_grid(kHotMutants, seed),
                     true, "table1_hot");
  // Companion: short traces, so the recorded arena stays cache-resident.
  RecordReplayRounds traces(kShortTraceExits, seed, false);
  interleave(budget_s, [&] { hot(rates, run); }, [&] { traces(rates, run); });
  run.failed_base = "Table I cells attempted";
  emit_rates(rates, run);
  run.digests.emplace_back("table1_hot", hot.digest());
}

void untraced_record_replay(std::uint64_t seed, double budget_s, Run& run) {
  run.metric("setup_s", median_setup_seconds([] {
               fuzz::PooledVm vm(kHvSeed, 0.0);
               (void)vm.manager().test_vm();
               (void)vm.manager().dummy_vm();
             }),
             "s");
  Rates rates;
  RecordReplayRounds traces(kLongTraceExits, seed, true);
  // Companion: a short Table I round for the mutant and cell rates.
  CampaignRounds hot([&] { return campaign_config(seed, 1); },
                     table1_grid(kCompanionMutants, seed), false, "companion Table I");
  interleave(budget_s, [&] { traces(rates, run); }, [&] { hot(rates, run); });
  run.failed_base = "recorded seeds replayed";
  emit_rates(rates, run);
  const auto pinned = prefixed("record_replay.", traces.digests());
  run.digests.insert(run.digests.end(), pinned.begin(), pinned.end());
}

void untraced_campaign_sandbox(std::uint64_t seed, double budget_s, const fs::path& tmp,
                               Run& run) {
  const auto grid = sandbox_grid(seed);
  int dir_serial = 0;
  auto fresh_dir = [&] { return tmp / ("campaign-" + std::to_string(dir_serial++)); };
  run.metric("setup_s", median_setup_seconds([&] {
               const fs::path dir = fresh_dir();
               fs::create_directories(dir);
               campaign_setup(kAllWorkloads, seed);
               fs::remove_all(dir);
             }),
             "s");
  Rates rates;
  CampaignRounds sandboxed([&] { return sandbox_config(seed, fresh_dir(), true); }, grid, true,
                           "campaign_sandbox");
  RecordReplayRounds traces(kShortTraceExits, seed, false);
  interleave(budget_s, [&] { sandboxed(rates, run); }, [&] { traces(rates, run); });
  run.failed_base = "sandboxed cells attempted";
  emit_rates(rates, run);

  // Sandboxed cells must equal in-process cells, byte for byte.
  const fs::path dir = fresh_dir();
  const CampaignRound in_process = run_campaign(sandbox_config(seed, dir, false), grid);
  fs::remove_all(dir);
  run.check(digest_of(in_process.result) == sandboxed.digest(),
            "campaign_sandbox: sandboxed result differs from in-process result");
  run.digests.emplace_back("campaign_sandbox", sandboxed.digest());
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics. Every traced run measures every layer
// (the hot loop, the record path and the campaign cell path); the
// workload names which path's tracing overhead is reported.

struct HotTrace {
  Layer mutate, submit, fold, restore, rearm, entry_checks, cell_setup, record;
  std::map<vtx::ExitReason, Layer> submit_by_reason;
  Layer submit_clean, submit_crash;
  std::uint64_t mutants = 0, restores = 0, rejections = 0;
  std::uint64_t probe_violations = 0;  ///< entry-check violations the probe saw
};

/// Fuzzer::run_test_case, re-driven through the public calls it makes,
/// with a span around each call into a layer.
fuzz::TestCaseResult redrive_cell(const fuzz::TestCaseSpec& spec, const VmBehavior& w,
                                  Manager& manager, const fuzz::Fuzzer::Config& config,
                                  HotTrace& t) {
  fuzz::TestCaseResult result;
  result.spec = spec;
  const std::int64_t setup_start = now_ns();
  fuzz::Mutator mutator(spec.rng_seed);
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i].seed.reason == spec.reason) candidates.push_back(i);
  }
  if (candidates.empty()) return result;
  result.target_index = candidates[mutator.rng().below(candidates.size())];
  const VmSeed& target_seed = w[result.target_index].seed;

  manager.hv().failures().reset();
  manager.reset_dummy_vm();
  if (!manager.enable_replay(config.replay)) return result;
  for (std::size_t i = 0; i < result.target_index; ++i) {
    if (manager.submit_seed(w[i].seed).failure != hv::FailureKind::kNone) return result;
  }
  result.ran = true;

  hv::CoverageAccumulator covered(manager.hv().coverage());
  covered.add(manager.submit_seed(target_seed).coverage);
  result.baseline_loc = covered.total_loc();
  hv::Domain& dummy = manager.dummy_vm();
  const auto s1 = dummy.snapshot();
  t.cell_setup.add(now_ns() - setup_start);

  const vtx::VmxCapabilityProfile& profile = vtx::profile_by_id(spec.profile);
  Layer& by_reason = t.submit_by_reason[spec.reason];
  VmSeed mutant;
  hv::HandleOutcome outcome;
  for (std::size_t m = 0; m < spec.mutants; ++m) {
    fuzz::AppliedMutation applied;
    const std::int64_t t0 = now_ns();
    const bool mutated = mutator.mutate_into(target_seed, spec.area, mutant, &applied);
    const std::int64_t t1 = now_ns();
    t.mutate.add(t1 - t0);
    if (!mutated) break;
    ++result.executed;
    const std::size_t index = m;

    manager.submit_seed_into(mutant, outcome);
    const std::int64_t t2 = now_ns();
    t.submit.add(t2 - t1);
    by_reason.add(t2 - t1);
    (outcome.failure == hv::FailureKind::kNone ? t.submit_clean : t.submit_crash)
        .add(t2 - t1);

    // Probe: the entry checks on the post-mutant VMCS, before restore.
    // Both are pure functions of the VMCS; the program runs them again
    // inside submit, so this span is not part of the per-mutant sum.
    const std::int64_t e0 = now_ns();
    const auto guest = vtx::check_guest_state(dummy.vcpu().vmcs, profile);
    const auto control = vtx::check_control_fields(dummy.vcpu().vmcs, profile);
    const std::int64_t e1 = now_ns();
    t.entry_checks.add(e1 - e0);
    t.probe_violations += guest.size() + control.size();

    const std::int64_t f0 = now_ns();
    result.new_loc += covered.add(outcome.coverage);
    t.fold.add(now_ns() - f0);

    switch (outcome.failure) {
      case hv::FailureKind::kNone:
        continue;
      case hv::FailureKind::kVmCrash:
        ++result.vm_crashes;
        if (outcome.cause == hv::FailureCause::kEntryCheckViolation) {
          ++result.entry_check_rejections;
        }
        break;
      case hv::FailureKind::kHypervisorCrash:
        ++result.hv_crashes;
        break;
      case hv::FailureKind::kVmHang:
      case hv::FailureKind::kHypervisorHang:
        ++result.hangs;
        break;
    }
    if (result.crashes.size() < config.max_archived_crashes) {
      result.crashes.push_back(
          fuzz::CrashRecord{mutant, applied, outcome.failure, outcome.failure_reason, index});
    }
    manager.hv().failures().reset();
    const std::int64_t r0 = now_ns();
    dummy.restore(s1);
    const std::int64_t r1 = now_ns();
    const bool rearmed = manager.rearm_replay(config.replay);
    const std::int64_t r2 = now_ns();
    t.restore.add(r1 - r0);
    t.rearm.add(r2 - r1);
    ++t.restores;
    if (!rearmed) break;
  }
  result.coverage_increase_pct =
      result.baseline_loc == 0 ? 0.0
                               : 100.0 * static_cast<double>(result.new_loc) /
                                     static_cast<double>(result.baseline_loc);
  t.mutants += result.executed;
  t.rejections += result.entry_check_rejections;
  return result;
}

/// Every non-IRIS block a cell's hypervisor registered (the campaign's
/// per-cell coverage contribution).
std::vector<std::pair<hv::BlockKey, std::uint8_t>> cell_coverage(const hv::CoverageMap& cov) {
  std::vector<std::pair<hv::BlockKey, std::uint8_t>> blocks;
  for (const hv::BlockKey block : cov.registered_blocks()) {
    if (hv::block_component(block) == hv::Component::kIris) continue;
    blocks.emplace_back(block, cov.loc_of(block));
  }
  return blocks;
}

struct HotPass {
  HotTrace trace;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::uint64_t untraced_mutants = 0;
};

/// Table I grid three ways: CampaignRunner, a traced re-drive of each
/// cell, and Fuzzer::run_test_case per cell. All three must agree. The
/// host drifts between speed modes (README.md, "Noise"), so the untraced
/// and traced timings alternate cell by cell instead of running as two
/// blocks: both then see the same stretch of host time.
HotPass traced_hot(std::uint64_t seed, Run& run) {
  HotPass pass;
  const auto grid = table1_grid(kHotMutants, seed);
  const fuzz::CampaignConfig config = campaign_config(seed, 1);
  const CampaignRound campaign = run_campaign(config, grid);
  const std::string campaign_digest = digest_of(campaign.result);
  run.digests.emplace_back("table1_hot", campaign_digest);
  run.attempted += grid.size();
  run.failed += campaign_failures(campaign.result, grid.size());

  // One pooled stack, used as a 1-worker campaign uses its slot: record
  // on a baseline reset, reset to the cell's profile before each cell.
  fuzz::PooledVm vm(kHvSeed, 0.0);
  std::map<guest::Workload, VmBehavior> behaviors;
  for (const auto workload : kTable1Workloads) {
    for (const bool traced : {false, true}) {
      const std::int64_t r0 = now_ns();
      vm.reset();
      behaviors[workload] =
          vm.manager().record_workload(workload, config.record_exits, config.record_seed);
      const std::int64_t r1 = now_ns();
      if (traced) {
        pass.trace.record.add(r1 - r0);
        pass.traced_wall_s += static_cast<double>(r1 - r0) * 1e-9;
      } else {
        pass.untraced_wall_s += static_cast<double>(r1 - r0) * 1e-9;
      }
    }
  }

  fuzz::CampaignResult traced;
  traced.results.resize(grid.size());
  std::vector<std::vector<std::pair<hv::BlockKey, std::uint8_t>>> coverage(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const vtx::VmxCapabilityProfile& profile = vtx::profile_by_id(grid[i].profile);
    const VmBehavior& behavior = behaviors.at(grid[i].workload);

    const std::int64_t u0 = now_ns();
    vm.reset(profile);
    fuzz::Fuzzer fuzzer(vm.manager(), config.fuzzer);
    const auto direct = fuzzer.run_test_case(grid[i], behavior);
    pass.untraced_wall_s += seconds_since(u0);
    pass.untraced_mutants += direct.executed;

    const std::int64_t t0 = now_ns();
    vm.reset(profile);
    pass.trace.cell_setup.add(now_ns() - t0);
    traced.results[i] = redrive_cell(grid[i], behavior, vm.manager(), config.fuzzer, pass.trace);
    pass.traced_wall_s += seconds_since(t0);
    coverage[i] = cell_coverage(vm.hv().coverage());

    run.check(digest_of(direct) == digest_of(traced.results[i]),
              "table1_hot: cell " + std::to_string(i) +
                  " re-drive differs from Fuzzer::run_test_case");
  }
  fuzz::finalize_campaign_result(coverage, traced);
  run.check(digest_of(traced) == campaign_digest,
            "table1_hot: traced re-drive differs from the untraced campaign");
  return pass;
}

struct RecordPass {
  Layer guest_next, finish_exit;
  std::map<vtx::ExitReason, Layer> process_exit;
  std::map<std::string, double> replay_us_per_exit;
  std::uint64_t exits = 0;
  double record_loop_s = 0.0;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
};

/// The record path driven as iris::record_workload drives it, a span
/// around each layer call, then a full replay of each trace. Each guest
/// workload is first recorded and replayed untraced, right before its
/// traced re-drive, so both timings see the same stretch of host time.
RecordPass traced_record(std::uint64_t seed, Run& run) {
  RecordPass pass;
  fuzz::PooledVm vm(kHvSeed, 0.0);
  RecordReplayRound untraced;
  std::vector<std::pair<std::string, std::string>> traced_digests;
  for (const auto workload : kAllWorkloads) {
    const std::string name(guest::to_string(workload));
    record_replay_one(vm, workload, kLongTraceExits, seed, run, untraced);

    vm.reset();
    hv::Hypervisor& hv = vm.hv();
    hv::Domain& dom = vm.manager().test_vm();
    hv::HvVcpu& vcpu = dom.vcpu();
    const std::int64_t record_start = now_ns();
    guest::GuestProgram program(workload, seed, kLongTraceExits);
    Recorder recorder(hv);
    recorder.attach();
    hv::HandleOutcome outcome;
    const std::int64_t loop_start = now_ns();
    for (std::uint64_t i = 0; i < kLongTraceExits; ++i) {
      const std::int64_t t0 = now_ns();
      const auto exit = program.next(hv, dom, vcpu);
      const std::int64_t t1 = now_ns();
      hv.process_exit_into(dom, vcpu, exit, outcome);
      const std::int64_t t2 = now_ns();
      recorder.finish_exit(outcome);
      const std::int64_t t3 = now_ns();
      pass.guest_next.add(t1 - t0);
      pass.process_exit[exit.reason].add(t2 - t1);
      pass.finish_exit.add(t3 - t2);
      if (outcome.failure == hv::FailureKind::kHypervisorCrash ||
          outcome.failure == hv::FailureKind::kVmCrash) {
        break;
      }
    }
    pass.record_loop_s += seconds_since(loop_start);
    const VmBehavior behavior = recorder.take_trace();
    pass.traced_wall_s += seconds_since(record_start);
    pass.exits += behavior.size();
    traced_digests.emplace_back(name, digest_of(behavior));

    // Reason-52 probe, after the trace is taken: the program's next
    // exits, forced to the preemption-timer reason, through the same
    // attached recorder.
    for (std::uint64_t i = 0; i < kPreemptionProbeExits; ++i) {
      auto exit = program.next(hv, dom, vcpu);
      exit.reason = vtx::ExitReason::kPreemptionTimer;
      const std::int64_t t0 = now_ns();
      hv.process_exit_into(dom, vcpu, exit, outcome);
      pass.process_exit[exit.reason].add(now_ns() - t0);
      recorder.finish_exit(outcome);
      run.check(outcome.failure == hv::FailureKind::kNone,
                name + ": reason-52 probe exit failed");
      if (outcome.failure != hv::FailureKind::kNone) break;
    }
    recorder.detach();
    recorder.clear();

    const std::int64_t r0 = now_ns();
    const auto outcomes = vm.manager().replay(behavior);
    const double replay_s = seconds_since(r0);
    pass.traced_wall_s += replay_s;
    pass.replay_us_per_exit[name] = replay_s * 1e6 / static_cast<double>(behavior.size());
    const bool clean = std::all_of(outcomes.begin(), outcomes.end(), [](const auto& o) {
      return o.failure == hv::FailureKind::kNone;
    });
    run.check(clean && outcomes.size() == behavior.size(),
              name + ": traced replay failed or ran short");
  }
  pass.untraced_wall_s = untraced.record_s + untraced.replay_s;
  run.attempted += untraced.replayed;
  run.failed += untraced.replay_failures;
  run.check(traced_digests == untraced.digests,
            "record_replay: traced recordings differ from untraced recordings");
  const auto pinned = prefixed("record_replay.", untraced.digests);
  run.digests.insert(run.digests.end(), pinned.begin(), pinned.end());
  return pass;
}

struct SandboxPass {
  Layer walk, pool_reset;
  std::vector<double> cell_ms;
  double attempt_us = 0.0;
  double append_us = 0.0;
  double overhead_us = 0.0;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
};

struct HistogramTotals {
  double sum = 0.0;
  std::uint64_t count = 0;
};

HistogramTotals histogram_totals(std::string_view name) {
  for (const auto& h : support::metrics().snapshot().histograms) {
    if (h.name == name) return {h.sum, h.count};
  }
  return {};
}

double histogram_mean_since(std::string_view name, const HistogramTotals& before) {
  const HistogramTotals after = histogram_totals(name);
  const std::uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : (after.sum - before.sum) / static_cast<double>(n);
}

/// cell_done.wall_ms of every event in a JSONL trace stream.
std::vector<double> cell_done_ms(const fs::path& path, Run& run) {
  std::vector<double> ms;
  auto file = support::read_trace(path.string());
  run.check(file.ok(), "trace stream unreadable: " + path.string());
  if (!file.ok()) return ms;
  for (const auto& event : file.value().events) {
    if (event.event != "cell_done") continue;
    if (const auto v = event.num("wall_ms")) ms.push_back(*v);
  }
  return ms;
}

CampaignRound traced_campaign(const fuzz::CampaignConfig& config,
                              const std::vector<fuzz::TestCaseSpec>& grid,
                              const fs::path& trace_path, Run& run) {
  fs::remove(trace_path);  // the sink appends
  run.check(support::set_trace_path(trace_path.string()).ok(),
            "cannot open trace stream " + trace_path.string());
  CampaignRound round = run_campaign(config, grid);
  (void)support::set_trace_path("");
  return round;
}

SandboxPass traced_sandbox(std::uint64_t seed, const fs::path& tmp, Run& run) {
  SandboxPass pass;
  const auto grid = sandbox_grid(seed);

  const CampaignRound untraced = run_campaign(sandbox_config(seed, tmp / "s-untraced", true), grid);
  const std::string digest = digest_of(untraced.result);
  run.digests.emplace_back("campaign_sandbox", digest);
  run.attempted += grid.size();
  run.failed += campaign_failures(untraced.result, grid.size());

  const HistogramTotals attempts0 = histogram_totals("sandbox.cell_us");
  const HistogramTotals appends0 = histogram_totals("checkpoint.append_us");
  const CampaignRound sandboxed = traced_campaign(
      sandbox_config(seed, tmp / "s-traced", true), grid, tmp / "sandboxed.jsonl", run);
  pass.attempt_us = histogram_mean_since("sandbox.cell_us", attempts0);
  pass.append_us = histogram_mean_since("checkpoint.append_us", appends0);
  pass.traced_wall_s = sandboxed.wall_s;
  pass.cell_ms = cell_done_ms(tmp / "sandboxed.jsonl", run);
  // A second untraced run after the traced one: their mean brackets the
  // traced run, so a host drifting in speed does not read as tracing cost.
  const CampaignRound untraced_after =
      run_campaign(sandbox_config(seed, tmp / "s-untraced", true), grid);
  pass.untraced_wall_s = (untraced.wall_s + untraced_after.wall_s) / 2.0;
  run.check(digest_of(untraced_after.result) == digest,
            "campaign_sandbox: repeated untraced run differs from the first");

  const CampaignRound in_process = traced_campaign(
      sandbox_config(seed, tmp / "p-traced", false), grid, tmp / "in_process.jsonl", run);
  const std::vector<double> in_process_ms = cell_done_ms(tmp / "in_process.jsonl", run);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  pass.overhead_us = (mean(pass.cell_ms) - mean(in_process_ms)) * 1e3;
  run.check(digest_of(sandboxed.result) == digest,
            "campaign_sandbox: traced result differs from untraced result");
  run.check(digest_of(in_process.result) == digest,
            "campaign_sandbox: sandboxed result differs from in-process result");
  run.check(pass.cell_ms.size() == grid.size() && in_process_ms.size() == grid.size(),
            "campaign_sandbox: trace stream is missing cell_done events");

  // Per-cell set-up, re-driven in-process: pool-slot reset to the cell's
  // profile, then the walk to the cell's VMseed_R.
  fuzz::PooledVm vm(kHvSeed, 0.0);
  std::map<guest::Workload, VmBehavior> behaviors;
  for (const auto workload : kAllWorkloads) {
    vm.reset();
    behaviors[workload] =
        vm.manager().record_workload(workload, kCampaignRecordExits, seed);
  }
  const Replayer::Config replay_config = campaign_config(seed, 1).fuzzer.replay;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const fuzz::TestCaseResult& cell = untraced.result.results[i];
    const std::int64_t t0 = now_ns();
    vm.reset(vtx::profile_by_id(grid[i].profile));
    const std::int64_t t1 = now_ns();
    pass.pool_reset.add(t1 - t0);
    if (!cell.ran) continue;
    Manager& manager = vm.manager();
    const VmBehavior& w = behaviors.at(grid[i].workload);
    bool walked = true;
    const std::int64_t w0 = now_ns();
    manager.hv().failures().reset();
    manager.reset_dummy_vm();
    walked = manager.enable_replay(replay_config);
    for (std::size_t k = 0; walked && k < cell.target_index; ++k) {
      walked = manager.submit_seed(w[k].seed).failure == hv::FailureKind::kNone;
    }
    pass.walk.add(now_ns() - w0);
    run.check(walked, "campaign_sandbox: cell " + std::to_string(i) + " walk failed");
  }
  return pass;
}

// --- Reporting.

void layer_metric(Run& run, const std::string& name, const Layer& layer, double span_ns) {
  run.metric(name, layer.quantile_us(0.5, span_ns), "us");
  std::printf("  %-34s p50 %9.3f us  p99 %9.3f us  n %zu\n", name.c_str(),
              layer.quantile_us(0.5, span_ns), layer.quantile_us(0.99, span_ns), layer.n());
}

void budget_table(const HotPass& hot, double span_ns, Run& run) {
  const HotTrace& t = hot.trace;
  const double mutants = static_cast<double>(std::max<std::uint64_t>(t.mutants, 1));
  struct Row {
    const char* layer;
    const Layer* timing;
  };
  const Row rows[] = {
      {"fuzz.mutate_into", &t.mutate},        {"iris.submit", &t.submit},
      {"hv.coverage_fold", &t.fold},          {"hv.restore", &t.restore},
      {"iris.rearm", &t.rearm},               {"cell set-up (reset, walk, s1)", &t.cell_setup},
      {"recording (amortized)", &t.record},
  };
  std::printf("\nper-mutant budget (table1_hot, %llu mutants)\n",
              static_cast<unsigned long long>(t.mutants));
  std::printf("  %-32s %12s %12s %12s\n", "layer", "us/call", "calls/mutant", "us/mutant");
  double sum = 0.0;
  for (const Row& row : rows) {
    const double total = row.timing->total_net_us(span_ns);
    const double calls = static_cast<double>(row.timing->n()) / mutants;
    const double per_call = row.timing->n() ? total / static_cast<double>(row.timing->n()) : 0;
    sum += total / mutants;
    std::printf("  %-32s %12.4f %12.4f %12.4f\n", row.layer, per_call, calls, total / mutants);
  }
  const double untraced = hot.untraced_wall_s * 1e6 /
                          static_cast<double>(std::max<std::uint64_t>(hot.untraced_mutants, 1));
  const double residual = untraced > 0 ? 100.0 * (untraced - sum) / untraced : 0.0;
  std::printf("  %-32s %12s %12s %12.4f\n", "sum", "", "", sum);
  std::printf("  %-32s %12s %12s %12.4f\n", "untraced us/mutant", "", "", untraced);
  std::printf("  %-32s %12s %12s %11.2f%%\n", "budget.residual_pct", "", "", residual);
  std::printf("  (vtx.entry_checks runs inside iris.submit: %.4f us/mutant, not summed;"
              " %llu violations on post-mutant VMCSs)\n\n",
              t.entry_checks.total_net_us(span_ns) / mutants,
              static_cast<unsigned long long>(t.probe_violations));
  run.metric("budget.residual_pct", residual, "%");
}

double overhead_pct(double traced, double untraced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

void traced_run(const std::string& workload, std::uint64_t seed, const fs::path& tmp, Run& run) {
  const double span_ns = measure_span_cost_ns();
  std::printf("empty span: %.1f ns (subtracted from every per-call timing)\n", span_ns);

  // The sandbox pass goes first: fork cost grows with the parent's
  // resident set, which the other passes' samples would inflate.
  const SandboxPass sbx = traced_sandbox(seed, tmp, run);
  const HotPass hot = traced_hot(seed, run);
  const RecordPass rec = traced_record(seed, run);

  std::printf("\nhot loop (table1_hot grid)\n");
  const HotTrace& t = hot.trace;
  layer_metric(run, "fuzz.mutate_into.us", t.mutate, span_ns);
  layer_metric(run, "iris.submit.us", t.submit, span_ns);
  for (const auto reason : vtx::kClusterReasons) {
    static const Layer kEmpty;
    const auto it = t.submit_by_reason.find(reason);
    layer_metric(run, "iris.submit.us." + reason_code(reason),
                 it == t.submit_by_reason.end() ? kEmpty : it->second, span_ns);
  }
  layer_metric(run, "iris.submit.us.clean", t.submit_clean, span_ns);
  layer_metric(run, "iris.submit.us.crash", t.submit_crash, span_ns);
  layer_metric(run, "iris.rearm.us", t.rearm, span_ns);
  layer_metric(run, "hv.coverage_fold.us", t.fold, span_ns);
  layer_metric(run, "hv.restore.us", t.restore, span_ns);
  layer_metric(run, "vtx.entry_checks.us", t.entry_checks, span_ns);
  const double mutants = static_cast<double>(std::max<std::uint64_t>(t.mutants, 1));
  run.metric("hv.restores_per_mutant", static_cast<double>(t.restores) / mutants, "ratio");
  run.metric("fuzz.entry_reject_ratio", static_cast<double>(t.rejections) / mutants, "ratio");
  std::printf("  hv.restores_per_mutant %.4f, fuzz.entry_reject_ratio %.4f (base %llu mutants)\n",
              static_cast<double>(t.restores) / mutants,
              static_cast<double>(t.rejections) / mutants,
              static_cast<unsigned long long>(t.mutants));
  budget_table(hot, span_ns, run);

  std::printf("record path (%llu exits)\n", static_cast<unsigned long long>(rec.exits));
  layer_metric(run, "guest.next.us", rec.guest_next, span_ns);
  for (const int code : kRecordReasons) {
    static const Layer kEmpty;
    const auto it = rec.process_exit.find(static_cast<vtx::ExitReason>(code));
    layer_metric(run, "hv.process_exit.us." + std::to_string(code),
                 it == rec.process_exit.end() ? kEmpty : it->second, span_ns);
  }
  for (const auto& [reason, layer] : rec.process_exit) {
    if (std::find(kRecordReasons.begin(), kRecordReasons.end(), static_cast<int>(reason)) ==
        kRecordReasons.end()) {
      std::printf("  (reason %s outside the metric set: n %zu)\n", reason_code(reason).c_str(),
                  layer.n());
    }
  }
  layer_metric(run, "iris.record.finish_exit.us", rec.finish_exit, span_ns);
  run.metric("iris.record.us_per_exit",
             rec.record_loop_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(rec.exits, 1)),
             "us");
  for (const auto& [name, us] : rec.replay_us_per_exit) {
    run.metric("iris.replay.us_per_exit." + name, us, "us");
    std::printf("  iris.replay.us_per_exit.%-10s %.4f us\n", name.c_str(), us);
  }

  std::printf("\ncampaign cell path (campaign_sandbox grid)\n");
  layer_metric(run, "iris.walk.us", sbx.walk, span_ns);
  layer_metric(run, "fuzz.pool_reset.us", sbx.pool_reset, span_ns);
  run.metric("campaign.cell_ms.p50", quantile(sbx.cell_ms, 0.5), "ms");
  run.metric("campaign.cell_ms.p90", quantile(sbx.cell_ms, 0.9), "ms");
  run.metric("campaign.sandbox_attempt_us", sbx.attempt_us, "us");
  run.metric("campaign.sandbox_overhead_us", sbx.overhead_us, "us");
  run.metric("campaign.checkpoint_append.us", sbx.append_us, "us");
  std::printf("  campaign.cell_ms p50 %.3f p90 %.3f (n %zu)\n", quantile(sbx.cell_ms, 0.5),
              quantile(sbx.cell_ms, 0.9), sbx.cell_ms.size());
  std::printf("  campaign.sandbox_attempt_us %.1f (registry mean)\n", sbx.attempt_us);
  std::printf("  campaign.sandbox_overhead_us %.1f (sandboxed minus in-process, per cell)\n",
              sbx.overhead_us);
  std::printf("  campaign.checkpoint_append.us %.1f (registry mean)\n", sbx.append_us);

  const std::map<std::string, std::pair<double, double>> walls = {
      {"table1_hot", {hot.traced_wall_s, hot.untraced_wall_s}},
      {"record_replay", {rec.traced_wall_s, rec.untraced_wall_s}},
      {"campaign_sandbox", {sbx.traced_wall_s, sbx.untraced_wall_s}},
  };
  std::printf("\ntracing overhead (traced vs untraced wall of the same work)\n");
  for (const auto& [name, wall] : walls) {
    std::printf("  %-17s traced %8.3f s  untraced %8.3f s  %+7.2f%%\n", name.c_str(),
                wall.first, wall.second, overhead_pct(wall.first, wall.second));
  }
  const auto& [traced, untraced] = walls.at(workload);
  run.metric("trace.overhead_pct", overhead_pct(traced, untraced), "%");
  run.failed_base = "cells attempted + recorded seeds replayed";
}

// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
  std::string out;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--tmp") o.tmp = value;
    else if (key == "--out") o.out = value;
    else return std::nullopt;
  }
  if (o.workload != "table1_hot" && o.workload != "record_replay" &&
      o.workload != "campaign_sandbox") {
    return std::nullopt;
  }
  if (o.tmp.empty() || o.out.empty() || !(o.seconds > 0)) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: iris_perfbench --workload table1_hot|record_replay|campaign_sandbox"
                 " --seed N --seconds S --trace 0|1 --tmp DIR --out FILE\n");
    return 2;
  }
  const Options& o = *options;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  fs::create_directories(o.tmp);

  Run run;
  if (o.trace) {
    traced_run(o.workload, o.seed, o.tmp, run);
  } else if (o.workload == "table1_hot") {
    untraced_table1_hot(o.seed, o.seconds, run);
  } else if (o.workload == "record_replay") {
    untraced_record_replay(o.seed, o.seconds, run);
  } else {
    untraced_campaign_sandbox(o.seed, o.seconds, o.tmp, run);
  }
  if (!o.trace) run.metric("peak_rss_mb", peak_rss_mb(), "MB");
  write_result(run, o.out);
  return run.failures.empty() ? 0 : 1;
}
