// Tests for the long-lived sandbox child (fuzz/sandbox.h): how many
// children a sandboxed campaign forks, that a persistent child's
// flight-recorder harvest holds only the faulted cell's crumbs, that
// the per-attempt CPU budget follows a child across many cells, that no
// child outlives CampaignRunner::run, and that the parent's result-frame
// reader turns every corrupt frame into a kProtocol fault.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/forensics.h"
#include "campaign/monitor.h"
#include "fuzz/campaign.h"
#include "fuzz/sandbox.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"
#include "support/model_fault.h"
#include "support/rng.h"
#include "support/telemetry.h"

namespace iris::fuzz {
namespace {

namespace fs = std::filesystem;
namespace failpoints = support::failpoints;
using campaign::canonical_result_bytes;
using guest::Workload;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("iris-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

struct FailpointGuard {
  explicit FailpointGuard(const std::string& spec) {
    const auto status = failpoints::configure(spec);
    EXPECT_TRUE(status.ok()) << status.error().message;
  }
  ~FailpointGuard() { failpoints::clear(); }
};

CampaignConfig small_config(std::size_t workers) {
  CampaignConfig config;
  config.workers = workers;
  config.hv_seed = 17;
  config.record_exits = 150;
  config.record_seed = 3;
  return config;
}

CampaignConfig sandbox_config(std::size_t workers) {
  CampaignConfig config = small_config(workers);
  config.sandbox_cells = true;
  config.cell_retries = 1;
  config.retry_base_backoff_ms = 0.1;
  return config;
}

std::vector<TestCaseSpec> small_grid(std::vector<Workload> workloads = {Workload::kCpuBound}) {
  return make_table1_grid(workloads, 40, 7);
}

std::uint64_t spawns() {
  return support::metrics().snapshot().counter("sandbox.spawns");
}

/// True when this process has no child left, running or zombie.
bool no_children() {
  int status = 0;
  return ::waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

// --- Spawn accounting ---

TEST(SandboxChild, CleanRunSpawnsAtMostOneChildPerWorkerAndWorkload) {
  const auto grid = small_grid({Workload::kCpuBound, Workload::kIoBound});
  const auto reference = CampaignRunner(small_config(1)).run(grid);
  const std::uint64_t before = spawns();
  const auto result = CampaignRunner(sandbox_config(2)).run(grid);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.harness_faults, 0u);
  // Each worker records the behaviors its cells need before its first
  // fork, so one child per worker runs all of that worker's cells (well
  // inside the workers x (1 + distinct workloads) bound).
  EXPECT_EQ(spawns() - before, 2u);
  EXPECT_EQ(canonical_result_bytes(result), canonical_result_bytes(reference));
}

TEST(SandboxChild, InjectedKillCostsExactlyOneMoreChildAndLeavesNoStaleCrumbs) {
  const auto dir = scratch_dir("sandbox-child-kill");
  const auto grid = small_grid();
  // Worker 0 runs cells 0, 2, 4, ...: cell 4's child has run two cells.
  const std::size_t victim = 4;
  ASSERT_GT(grid.size(), victim);
  CampaignConfig config = sandbox_config(2);
  config.forensics_dir = dir.string();

  std::uint64_t before = spawns();
  const auto clean = CampaignRunner(config).run(grid);
  ASSERT_TRUE(clean.complete);
  const std::uint64_t clean_spawns = spawns() - before;
  EXPECT_EQ(clean_spawns, 2u);

  before = spawns();
  CampaignResult killed;
  {
    const FailpointGuard guard("cell_exec:signal=KILL:count=1:cell=" +
                               std::to_string(victim));
    killed = CampaignRunner(config).run(grid);
  }
  ASSERT_TRUE(killed.complete);
  EXPECT_EQ(killed.harness_faults, 1u);
  EXPECT_EQ(spawns() - before, clean_spawns + 1);
  EXPECT_EQ(canonical_result_bytes(killed), canonical_result_bytes(clean));

  // The dead child ran cell 2 before cell 4, on the same shared ring;
  // it died at job start, so none of cell 2's crumbs may remain.
  auto record = campaign::read_forensics(
      (dir / campaign::forensic_file_name(victim)).string());
  ASSERT_TRUE(record.ok()) << record.error().message;
  EXPECT_EQ(record.value().cell, victim);
  EXPECT_EQ(record.value().harvest.total, 0u);
  for (const auto& crumb : record.value().harvest.crumbs) {
    EXPECT_NE(crumb.type, support::CrumbType::kMutant) << crumb.a;
  }
}

TEST(SandboxChild, ModelSiteKillHarvestHoldsOnlyTheDyingCell) {
  const auto dir = scratch_dir("sandbox-child-model-kill");
  const auto grid = small_grid();
  const std::size_t victim = 4;
  CampaignConfig config = sandbox_config(2);
  config.forensics_dir = dir.string();
  CampaignResult result;
  {
    // Killed inside cell 4's body, by the child that ran cell 2.
    const FailpointGuard guard("model_vmentry:signal=KILL:count=1:cell=" +
                               std::to_string(victim));
    result = CampaignRunner(config).run(grid);
  }
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.harness_faults, 1u);
  auto record = campaign::read_forensics(
      (dir / campaign::forensic_file_name(victim)).string());
  ASSERT_TRUE(record.ok()) << record.error().message;
  const auto& harvest = record.value().harvest;
  // Every crumb is cell 4's: the ring starts at the cell's pooled reset
  // and nothing was lost to a wrap, so no tail of cell 2 can hide in it.
  ASSERT_FALSE(harvest.crumbs.empty());
  EXPECT_EQ(harvest.overwritten, 0u);
  EXPECT_EQ(harvest.crumbs.size(), harvest.total);
  EXPECT_EQ(harvest.crumbs.front().ordinal, 0u);
  EXPECT_EQ(harvest.crumbs.front().type, support::CrumbType::kPhaseBegin);
  EXPECT_EQ(harvest.crumbs.front().a,
            static_cast<std::uint64_t>(support::Phase::kReset));
  std::uint64_t last_mutant = 0;
  for (const auto& crumb : harvest.crumbs) {
    if (crumb.type != support::CrumbType::kMutant) continue;
    EXPECT_GE(crumb.a, last_mutant);
    last_mutant = crumb.a;
  }
}

// --- Per-attempt CPU budget ---

double cpu_seconds(int who) {
  ::rusage usage{};
  ::getrusage(who, &usage);
  const auto secs = [](const ::timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Mutants per Table I cell that cost about `seconds` of CPU in this
/// build (sanitizers included), measured on the CPU-bound grid.
std::size_t mutants_for_cpu_seconds(double seconds) {
  constexpr std::size_t kProbeMutants = 2000;
  const auto probe_grid = make_table1_grid({Workload::kCpuBound}, kProbeMutants, 7);
  const double started = cpu_seconds(RUSAGE_SELF);
  (void)CampaignRunner(small_config(1)).run(probe_grid);
  const double per_cell_mutant = (cpu_seconds(RUSAGE_SELF) - started) /
                                 static_cast<double>(kProbeMutants * probe_grid.size());
  return static_cast<std::size_t>(
      std::clamp(seconds / std::max(per_cell_mutant, 1e-9), 400.0, 4e7));
}

TEST(SandboxChild, CpuBudgetIsPerAttemptNotPerChild) {
  // Cells of about 0.12 s of CPU each (well under the 1 s budget), about
  // 4 s together, all in one child.
  const auto cells = make_table1_grid({Workload::kCpuBound}, mutants_for_cpu_seconds(0.12), 7);
  std::vector<TestCaseSpec> grid;
  while (grid.size() < 34) grid.insert(grid.end(), cells.begin(), cells.end());

  const auto reference = CampaignRunner(small_config(1)).run(grid);
  CampaignConfig config = sandbox_config(1);
  config.rlimit_cpu_seconds = 1;
  const std::uint64_t spawned = spawns();
  const double children_before = cpu_seconds(RUSAGE_CHILDREN);
  const auto limited = CampaignRunner(config).run(grid);
  const double child_cpu = cpu_seconds(RUSAGE_CHILDREN) - children_before;

  EXPECT_EQ(spawns() - spawned, 1u);
  EXPECT_GT(child_cpu, 2.0) << cells.front().mutants << " mutants per cell";
  ASSERT_TRUE(limited.complete);
  EXPECT_EQ(limited.rlimit_kills, 0u);
  EXPECT_EQ(limited.harness_faults, 0u);
  EXPECT_EQ(canonical_result_bytes(limited), canonical_result_bytes(reference));
}

TEST(SandboxChild, CpuBudgetStillKillsAnOverrunningCellWithSigxcpu) {
  // Three short cells, then one that needs several seconds of CPU, all
  // for the same child: the budget is re-armed per job, so the short
  // cells' CPU does not count against the long one, and the long one
  // still dies by SIGXCPU.
  const auto cells = small_grid();
  const auto reference = CampaignRunner(small_config(1)).run(cells);
  std::size_t runs = 0;
  while (!reference.results[runs].ran) ++runs;
  std::vector<TestCaseSpec> grid(cells.begin(), cells.begin() + 3);
  grid.push_back(cells[runs]);
  grid.back().mutants = mutants_for_cpu_seconds(8.0);
  CampaignConfig config = sandbox_config(1);
  config.rlimit_cpu_seconds = 1;
  config.rlimit_core_mb = 0;
  config.cell_retries = 0;
  const std::uint64_t spawned = spawns();
  const auto result = CampaignRunner(config).run(grid);

  EXPECT_EQ(spawns() - spawned, 1u);
  EXPECT_EQ(result.harness_faults, 1u);
  EXPECT_EQ(result.rlimit_kills, 1u);
  ASSERT_EQ(result.poisoned_cells.size(), 1u);
  EXPECT_EQ(result.poisoned_cells[0].index, 3u);
  EXPECT_EQ(result.poisoned_cells[0].fault.kind,
            HarnessFault::Kind::kResourceExhausted);
  EXPECT_EQ(result.poisoned_cells[0].fault.detail, SIGXCPU);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.results[i].executed, reference.results[i].executed) << i;
    EXPECT_EQ(result.results[i].new_loc, reference.results[i].new_loc) << i;
  }
}

// --- No orphans ---

TEST(SandboxChild, NoChildOutlivesRunOnAnyPath) {
  const auto grid = small_grid();
  ASSERT_TRUE(no_children());

  const auto clean = CampaignRunner(sandbox_config(2)).run(grid);
  EXPECT_TRUE(clean.complete);
  EXPECT_TRUE(no_children());

  // Stopped mid-grid, with both workers' children alive.
  std::atomic<bool> stop{false};
  CampaignConfig stopping = sandbox_config(2);
  stopping.stop = &stop;
  stopping.status_interval_seconds = 0.0;
  stopping.on_progress = [&stop](const campaign::ShardStatus& status) {
    if (status.cells_done >= 4) stop.store(true);
  };
  const auto stopped = CampaignRunner(stopping).run(grid);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_FALSE(stopped.complete);
  EXPECT_TRUE(no_children());

  // Faulted: a persistent kill quarantines a cell mid-grid.
  {
    const FailpointGuard guard("cell_exec:signal=KILL:cell=3");
    const auto faulted = CampaignRunner(sandbox_config(2)).run(grid);
    EXPECT_EQ(faulted.poisoned_cells.size(), 1u);
  }
  EXPECT_TRUE(no_children());
}

// --- Status snapshots ---

TEST(SandboxChild, StatusFileCarriesPoolRebuildsAndSpawnsFromTheStart) {
  const auto dir = scratch_dir("sandbox-child-status");
  CampaignConfig config = sandbox_config(1);
  config.status_path = (dir / "status.json").string();
  const std::uint64_t rebuilds_before =
      support::metrics().snapshot().counter("pool.rebuilds");
  const auto result = CampaignRunner(config).run(small_grid());
  ASSERT_TRUE(result.complete);
  auto status = campaign::read_status_file(config.status_path);
  ASSERT_TRUE(status.ok()) << status.error().message;
  const auto has = [&](std::string_view name) {
    for (const auto& [counter, value] : status.value().counters) {
      if (counter == name) return true;
    }
    return false;
  };
  // A clean run rebuilds nothing, and still reports the counter.
  EXPECT_TRUE(has("pool.rebuilds"));
  EXPECT_EQ(status.value().counter("pool.rebuilds"), rebuilds_before);
  EXPECT_TRUE(has("sandbox.spawns"));
}

// --- Result-frame reader hardening ---

constexpr std::uint32_t kResultMagic = 0x49525342;  // "IRSB"

std::vector<std::uint8_t> result_payload(std::size_t index) {
  campaign::CheckpointCell cell;
  cell.index = index;
  cell.result.spec = small_grid().front();
  cell.coverage = {{hv::BlockKey{0x1234}, 3}, {hv::BlockKey{0x5678}, 1}};
  ByteWriter out;
  campaign::serialize_checkpoint_cell(cell, out);
  return std::move(out).take();
}

std::vector<std::uint8_t> frame(std::uint32_t magic,
                                const std::vector<std::uint8_t>& payload,
                                std::uint64_t checksum) {
  ByteWriter out;
  out.u32(magic);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u64(checksum);
  out.bytes(payload);
  return std::move(out).take();
}

/// Feed `bytes` through a pipe whose write end is then closed, and read
/// them back as cell `cell`'s answer.
ResultRead feed(const std::vector<std::uint8_t>& bytes, std::size_t cell,
                campaign::CheckpointCell* out = nullptr) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ::ssize_t n = ::write(fds[1], bytes.data() + off, bytes.size() - off);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[1]);
  const ResultRead read = read_result(
      fds[0], cell, std::chrono::steady_clock::now() + std::chrono::seconds(5), out);
  ::close(fds[0]);
  return read;
}

void expect_protocol(const ResultRead& read, int detail) {
  ASSERT_TRUE(read.fault.has_value());
  EXPECT_EQ(read.fault->kind, HarnessFault::Kind::kProtocol);
  EXPECT_EQ(read.fault->detail, detail);
}

TEST(SandboxFrames, WholeFramesDecodeAsResultOrModelFault) {
  const auto payload = result_payload(5);
  campaign::CheckpointCell out;
  const ResultRead clean = feed(frame(kResultMagic, payload, fnv1a(payload)), 5, &out);
  EXPECT_FALSE(clean.fault.has_value());
  EXPECT_EQ(out.index, 5u);
  EXPECT_EQ(out.coverage.size(), 2u);

  ByteWriter fault;
  support::modelfault::serialize_model_fault(
      {support::modelfault::Layer::kEptWalk, 7, "walk broke"}, fault);
  const ResultRead model = feed(frame(support::modelfault::kModelFaultFrameMagic,
                                      fault.data(), fnv1a(fault.data())),
                                5);
  ASSERT_TRUE(model.fault.has_value());
  EXPECT_EQ(model.fault->kind, HarnessFault::Kind::kModelFault);
  EXPECT_EQ(model.fault->detail, 7);
}

TEST(SandboxFrames, CorruptFramesAreProtocolFaults) {
  const auto payload = result_payload(5);
  const auto good = frame(kResultMagic, payload, fnv1a(payload));

  const ResultRead truncated = feed({good.begin(), good.begin() + 10}, 5);
  expect_protocol(truncated, 0);
  EXPECT_TRUE(truncated.eof);
  expect_protocol(feed({good.begin(), good.end() - 1}, 5), 0);
  expect_protocol(feed(frame(0xDEADBEEF, payload, fnv1a(payload)), 5), 0);

  // A length above the cap is refused from the header alone.
  ByteWriter huge;
  huge.u32(kResultMagic);
  huge.u32(static_cast<std::uint32_t>(kMaxResultPayload + 1));
  huge.u64(0);
  const ResultRead capped = feed(huge.data(), 5);
  expect_protocol(capped, 0);
  EXPECT_FALSE(capped.eof);

  expect_protocol(feed(frame(kResultMagic, payload, fnv1a(payload) ^ 1), 5), 1);
  expect_protocol(feed(good, 6), 2);  // another cell's result
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  expect_protocol(feed(frame(kResultMagic, junk, fnv1a(junk)), 5), 2);
}

TEST(SandboxFrames, SeededBitFlipsNeverDecodeOrCrash) {
  const auto payload = result_payload(5);
  const auto good = frame(kResultMagic, payload, fnv1a(payload));
  Rng rng(0x5A4DB0C5);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = good;
    const std::uint64_t bit = rng.below(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    campaign::CheckpointCell out;
    const ResultRead read = feed(bytes, 5, &out);
    SCOPED_TRACE(bit);
    ASSERT_TRUE(read.fault.has_value());
    EXPECT_EQ(read.fault->kind, HarnessFault::Kind::kProtocol);
    EXPECT_GE(read.fault->detail, 0);
    EXPECT_LE(read.fault->detail, 2);
  }
}

TEST(SandboxFrames, DeadlineOverrunIsADeadlineFault) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const ResultRead read = read_result(
      fds[0], 0, std::chrono::steady_clock::now() + std::chrono::milliseconds(20),
      nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_TRUE(read.fault.has_value());
  EXPECT_EQ(read.fault->kind, HarnessFault::Kind::kDeadline);
  EXPECT_FALSE(read.eof);
}

}  // namespace
}  // namespace iris::fuzz
