// Sandboxed-cell execution overhead — what fault containment costs.
//
// Runs one Table I campaign three ways over the identical grid:
//   1. the raw fuzzer hot loop (bench_table1_fuzzer's measurement, so
//      the "sandbox off costs nothing" claim is checked against the
//      same number CI has always tracked),
//   2. CampaignRunner with sandbox_cells off (the default), and
//   3. CampaignRunner with sandbox_cells on — every cell run in its
//      worker's long-lived sandbox child, watchdog-supervised, and sent
//      back through the IRSB frame.
// The sandboxed result must be byte-identical to the in-process one
// (campaign::canonical_result_bytes); the bench fails hard otherwise.
//
// A fourth leg re-runs the sandboxed campaign with per-cell rlimits
// armed (generous enough never to fire): the per-attempt CPU-budget
// setrlimit and the spawn-time limits must be noise, and the bytes must
// stay identical.
//
// Results are appended to BENCH_PR7.json:
//   table1.mutants_per_second            raw hot loop (floor-checked in CI)
//   sandbox.mutants_per_second_off       campaign, in-process cells
//   sandbox.mutants_per_second_on        campaign, sandboxed cells
//   sandbox.mutants_per_second_rlimits   sandboxed cells + rlimits armed
//   sandbox.overhead_pct                 wall-clock cost of the sandbox
//   sandbox.rlimits_overhead_pct         extra cost of arming the limits
//   sandbox.identical                    1.0 when the bytes matched
//   sandbox.rlimits_identical            1.0 when the rlimit leg matched
//   sandbox.host_cpus
//
//   $ ./bench_sandbox_overhead [mutants] [seed]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_json.h"
#include "bench_util.h"
#include "campaign/checkpoint.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"

namespace {

using namespace iris;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fuzz::CampaignConfig campaign_config(std::uint64_t seed, bool sandbox) {
  fuzz::CampaignConfig config;
  config.workers = 1;
  config.hv_seed = seed;
  config.record_exits = 500;
  config.record_seed = seed;
  config.sandbox_cells = sandbox;
  return config;
}

std::size_t executed_mutants(const fuzz::CampaignResult& result) {
  std::size_t total = 0;
  for (const auto& cell : result.results) total += cell.executed;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t mutants =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  const auto grid =
      fuzz::make_table1_grid({guest::Workload::kCpuBound}, mutants, seed);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  bench::print_header("sandboxed-cell overhead (sandbox child + watchdog + result frame)");
  std::printf("%zu cells, M=%zu, 1 worker, %u host CPU(s)\n\n", grid.size(),
              mutants, cpus);

  // --- 1. Raw fuzzer hot loop: the number every CI floor tracks. ---
  double hot_rate = 0.0;
  {
    bench::Experiment exp(seed, 0.0);
    const VmBehavior& behavior = exp.manager.record_workload(
        guest::Workload::kCpuBound, 500, seed);
    fuzz::Fuzzer fuzzer(exp.manager);
    const double t0 = now_seconds();
    const auto results =
        fuzzer.run_grid(guest::Workload::kCpuBound, behavior, mutants, seed);
    const double wall = now_seconds() - t0;
    std::size_t total = 0;
    for (const auto& r : results) total += r.executed;
    hot_rate = wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
    std::printf("fuzzer hot loop:    %8.0f mutants/s\n", hot_rate);
  }

  // --- 2 + 3. The same campaign with and without the sandbox. ---
  {
    auto warm = fuzz::CampaignRunner(campaign_config(seed, false))
                    .run(fuzz::make_table1_grid({guest::Workload::kCpuBound},
                                                50, seed));
    (void)warm;
  }
  const double off_started = now_seconds();
  const auto off = fuzz::CampaignRunner(campaign_config(seed, false)).run(grid);
  const double off_seconds = now_seconds() - off_started;

  const double on_started = now_seconds();
  const auto on = fuzz::CampaignRunner(campaign_config(seed, true)).run(grid);
  const double on_seconds = now_seconds() - on_started;

  // --- 4. Sandbox + rlimits: the PR 9 wall must cost nothing extra. ---
  fuzz::CampaignConfig limited_config = campaign_config(seed, true);
  limited_config.rlimit_cpu_seconds = 600;
  if (fuzz::rlimit_as_supported()) limited_config.rlimit_as_mb = 16384;
  limited_config.rlimit_core_mb = 0;
  const double limited_started = now_seconds();
  const auto limited = fuzz::CampaignRunner(limited_config).run(grid);
  const double limited_seconds = now_seconds() - limited_started;

  const std::size_t total = executed_mutants(off);
  const double off_rate =
      off_seconds > 0.0 ? static_cast<double>(total) / off_seconds : 0.0;
  const double on_rate =
      on_seconds > 0.0 ? static_cast<double>(total) / on_seconds : 0.0;
  const double limited_rate =
      limited_seconds > 0.0 ? static_cast<double>(total) / limited_seconds
                            : 0.0;
  const double overhead_pct =
      off_seconds > 0.0 ? 100.0 * (on_seconds - off_seconds) / off_seconds
                        : 0.0;
  const double rlimits_overhead_pct =
      on_seconds > 0.0 ? 100.0 * (limited_seconds - on_seconds) / on_seconds
                       : 0.0;
  const bool identical = campaign::canonical_result_bytes(off) ==
                         campaign::canonical_result_bytes(on);
  const bool rlimits_identical = campaign::canonical_result_bytes(off) ==
                                 campaign::canonical_result_bytes(limited);

  std::printf("campaign, sandbox off:     %8.0f mutants/s (%.3f s)\n", off_rate,
              off_seconds);
  std::printf("campaign, sandbox on:      %8.0f mutants/s (%.3f s)\n", on_rate,
              on_seconds);
  std::printf("campaign, sandbox+rlimits: %8.0f mutants/s (%.3f s)\n",
              limited_rate, limited_seconds);
  std::printf("sandbox overhead:      %+7.1f%%  (job + IRSB frame per cell)\n",
              overhead_pct);
  std::printf("rlimits overhead:      %+7.1f%%  (setrlimit per attempt)\n",
              rlimits_overhead_pct);
  std::printf("byte-identical:        %s / %s (rlimits)\n",
              identical ? "yes" : "NO", rlimits_identical ? "yes" : "NO");
  if (!identical || !off.complete || !on.complete || on.harness_faults != 0) {
    std::fprintf(stderr,
                 "sandboxed campaign diverged from in-process execution\n");
    return 1;
  }
  if (!rlimits_identical || !limited.complete ||
      limited.harness_faults != 0 || limited.rlimit_kills != 0) {
    std::fprintf(stderr,
                 "rlimit-armed campaign diverged from in-process execution\n");
    return 1;
  }

  bench::JsonMetrics metrics("BENCH_PR7.json");
  metrics.set("table1.mutants_per_second", hot_rate);
  metrics.set("sandbox.mutants_per_second_off", off_rate);
  metrics.set("sandbox.mutants_per_second_on", on_rate);
  metrics.set("sandbox.mutants_per_second_rlimits", limited_rate);
  metrics.set("sandbox.overhead_pct", overhead_pct);
  metrics.set("sandbox.rlimits_overhead_pct", rlimits_overhead_pct);
  metrics.set("sandbox.identical", identical ? 1.0 : 0.0);
  metrics.set("sandbox.rlimits_identical", rlimits_identical ? 1.0 : 0.0);
  metrics.set("sandbox.host_cpus", cpus);
  if (metrics.flush()) {
    std::printf("\nappended to %s\n", metrics.path().c_str());
  }
  return 0;
}
