// Sandboxed cell execution: one long-lived child process per worker.
//
// A sandboxed campaign runs every cell attempt in a forked child, so a
// cell that segfaults, hangs, spins or eats memory kills a disposable
// process instead of the shard. Forking per attempt made that
// containment cost about ten times the cell it protected: the fork, a
// stack built in the child, copy-on-write faults and the exit teardown
// were all paid per cell. So the child is persistent, in the manner of
// AFL's persistent mode. A worker forks it once, after the parent has
// built that worker's pooled VM stack and recorded the behaviors the
// worker needs. The child then runs job after job on its own copy of the
// stack, resetting it between cells exactly as an in-process worker
// does, so a clean sandboxed cell stays byte-identical to an in-process
// one.
//
// Protocol: support/frame.h frames over one socketpair per child.
//   parent -> child  job ("IRJB"): cell index, TestCaseSpec, and the
//                    cell_exec failpoint hit the parent drew, if any.
//   child -> parent  result ("IRSB", a CheckpointCell) or a structured
//                    model fault ("IRMF", support/model_fault.h).
// A clean attempt completes when its result frame has been read; the
// child is then already waiting for the next job.
//
// Containment, per attempt:
//   - Watchdog: past the deadline the parent SIGKILLs the child and the
//     attempt is a kDeadline fault.
//   - CPU budget: before each job the child moves its RLIMIT_CPU soft
//     limit to its CPU time so far plus cpu_seconds. It never lowers the
//     hard limit, so a spinning cell dies by a classifiable SIGXCPU.
//   - RLIMIT_AS and RLIMIT_CORE are set once, at spawn. An attempt under
//     other limits (the degraded re-probe) gets a child of its own.
//   - Flight recorder: the child resets and arms the worker's
//     crash-surviving ring at job start, so a harvest after a fault
//     holds only that attempt's crumbs.
//   - A fault of any kind, and any attempt that carried an injected hit,
//     ends the child: the parent kills and reaps it, and the next attempt
//     forks a new one. An alloc= bomb therefore never leaks memory
//     pressure into a later cell.
//   - No orphans: the child asks for SIGKILL when its parent dies, exits
//     when its job socket reaches EOF, and closes every descriptor it
//     inherited except its own socket and stdio.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>

#include "campaign/checkpoint.h"
#include "fuzz/campaign.h"
#include "support/failpoints.h"
#include "support/flight_recorder.h"

namespace iris::fuzz {

/// Resource limits of one sandbox child. The watchdog deadline rides
/// along so the re-probe pass can degrade all of them coherently.
struct SandboxLimits {
  double deadline_seconds = 0.0;
  std::uint64_t cpu_seconds = 0;  ///< RLIMIT_CPU budget per attempt; 0 = off
  std::uint64_t as_mb = 0;        ///< RLIMIT_AS; 0 = off
  std::int64_t core_mb = -1;      ///< RLIMIT_CORE; -1 = inherit

  /// The re-probe's degraded profile: half the deadline and CPU budget,
  /// floored at one second.
  [[nodiscard]] SandboxLimits degraded() const {
    SandboxLimits out = *this;
    if (deadline_seconds > 0) {
      out.deadline_seconds = std::max(1.0, deadline_seconds / 2);
    }
    if (cpu_seconds > 0) {
      out.cpu_seconds = std::max<std::uint64_t>(1, cpu_seconds / 2);
    }
    return out;
  }

  friend bool operator==(const SandboxLimits&, const SandboxLimits&) = default;
};

/// Largest result payload a parent accepts. A serialized cell (result
/// plus coverage list) is tens of KiB; a longer claimed length is a
/// kProtocol fault, never an allocation.
inline constexpr std::size_t kMaxResultPayload = std::size_t{64} << 20;

/// The parent's read of one attempt's answer.
struct ResultRead {
  /// nullopt = a clean result for the cell (stored in *out).
  std::optional<HarnessFault> fault;
  /// The child's end closed before a whole frame arrived: the child is
  /// dead, and its exit status explains the fault better than `fault`.
  bool eof = false;
};

/// Read one result ("IRSB") or model-fault ("IRMF") frame from `fd` and
/// decode it as cell `cell`'s answer, waiting at most until `deadline`
/// (time_point::max() = forever; overrun = kDeadline). kProtocol detail:
/// 0 = torn or malformed frame (including a length above
/// kMaxResultPayload), 1 = bad checksum, 2 = undecodable payload or
/// another cell's result. A clean result lands in *out (nullptr =
/// discard).
ResultRead read_result(int fd, std::size_t cell,
                       std::chrono::steady_clock::time_point deadline,
                       campaign::CheckpointCell* out);

/// What a child computes for one job: the campaign's cell body.
using SandboxBody = std::function<campaign::CheckpointCell(
    std::size_t index, const TestCaseSpec& spec)>;

/// Parent-side handle on one long-lived sandbox child.
class SandboxChild {
 public:
  SandboxChild() = default;
  ~SandboxChild() { retire(); }
  SandboxChild(const SandboxChild&) = delete;
  SandboxChild& operator=(const SandboxChild&) = delete;

  [[nodiscard]] bool alive() const noexcept { return pid_ > 0; }
  [[nodiscard]] const SandboxLimits& limits() const noexcept { return limits_; }

  /// Fork a child that serves jobs with `body` under `limits`, writing
  /// crumbs to `ring` (may be null). False (errno set) if the socketpair
  /// or the fork failed.
  bool spawn(const SandboxLimits& limits, support::FlightRecorder* ring,
             const SandboxBody& body);

  /// One attempt: send the job, read the answer under the watchdog.
  /// nullopt = clean (in *out) and the child stays for the next job.
  /// On a fault, or after an attempt that carried `injected`, the child
  /// has been killed and reaped when this returns. If `gate` is given,
  /// the caller holds it shared; it is released only while this waits
  /// for the answer to start arriving, a wait that allocates nothing.
  std::optional<HarnessFault> run(
      std::size_t index, const TestCaseSpec& spec,
      const std::optional<support::failpoints::Hit>& injected,
      campaign::CheckpointCell* out, std::shared_mutex* gate);

  /// Kill and reap the child, if any.
  void retire() noexcept { (void)reap(); }

 private:
  /// SIGKILL and reap the child and close the socket; returns the wait
  /// status.
  int reap() noexcept;

  ::pid_t pid_ = -1;
  int fd_ = -1;
  SandboxLimits limits_;
  support::FlightRecorder* ring_ = nullptr;
};

}  // namespace iris::fuzz
