#include "fuzz/sandbox.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <new>

#include "support/frame.h"
#include "support/model_fault.h"

namespace iris::fuzz {
namespace {

using Clock = std::chrono::steady_clock;
using support::FrameRead;
using support::failpoints::Hit;

constexpr std::uint32_t kJobMagic = 0x49524A42;     // "IRJB"
constexpr std::uint32_t kResultMagic = 0x49525342;  // "IRSB"
constexpr std::size_t kMaxJobPayload = std::size_t{1} << 20;
/// Exit code of a child that cannot keep its side of the protocol (an
/// undeliverable result or an undecodable job); the parent records kExit.
constexpr int kProtocolExit = 3;

HarnessFault protocol(int detail) {
  return HarnessFault{HarnessFault::Kind::kProtocol, detail, {}};
}

struct Job {
  std::size_t index = 0;
  TestCaseSpec spec;
  std::optional<Hit> injected;
};

void encode_job(std::size_t index, const TestCaseSpec& spec,
                const std::optional<Hit>& injected, ByteWriter& out) {
  out.u64(index);
  campaign::serialize_spec(spec, out);
  out.u8(injected ? 1 : 0);
  if (injected) {
    out.u8(static_cast<std::uint8_t>(injected->action));
    out.u32(static_cast<std::uint32_t>(injected->detail));
    out.u64(injected->amount);
  }
}

std::optional<Job> decode_job(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  auto index = r.u64();
  auto spec = campaign::deserialize_spec(r);
  auto has_hit = r.u8();
  if (!index.ok() || !spec.ok() || !has_hit.ok()) return std::nullopt;
  Job job{index.value(), std::move(spec).take(), std::nullopt};
  if (has_hit.value() != 0) {
    auto action = r.u8();
    auto detail = r.u32();
    auto amount = r.u64();
    if (!action.ok() || !detail.ok() || !amount.ok()) return std::nullopt;
    job.injected = Hit{static_cast<Hit::Action>(action.value()),
                       static_cast<int>(detail.value()), amount.value()};
  }
  if (!r.exhausted()) return std::nullopt;
  return job;
}

/// Spawn-time limits. Failures are deliberately ignored: a host that
/// refuses a tighter limit leaves the child exactly as contained as
/// without one.
void apply_spawn_rlimits(const SandboxLimits& limits) {
  if (limits.as_mb > 0 && rlimit_as_supported()) {
    const auto bytes = static_cast<rlim_t>(limits.as_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_AS, &r);
    // Under RLIMIT_AS a clean allocation path dies as bad_alloc ->
    // std::terminate -> SIGABRT, indistinguishable from a model crash.
    // Exit through the dedicated code instead so the parent classifies
    // kResourceExhausted.
    std::set_new_handler(
        [] { ::_exit(support::failpoints::kResourceExhaustedExit); });
  }
  if (limits.core_mb >= 0) {
    const auto bytes = static_cast<rlim_t>(limits.core_mb) << 20;
    const ::rlimit r{bytes, bytes};
    (void)::setrlimit(RLIMIT_CORE, &r);
  }
}

/// The per-job CPU budget: the soft RLIMIT_CPU moves to the CPU time
/// this child has used so far (rounded up) plus `cpu_seconds`. The hard
/// limit is never lowered, so the kill at the soft limit is a
/// classifiable SIGXCPU.
void arm_cpu_budget(std::uint64_t cpu_seconds) {
  if (cpu_seconds == 0) return;
  ::timespec used{};
  ::rlimit r{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &used) != 0 ||
      ::getrlimit(RLIMIT_CPU, &r) != 0) {
    return;
  }
  r.rlim_cur = static_cast<rlim_t>(used.tv_sec) + (used.tv_nsec > 0 ? 1 : 0) +
               static_cast<rlim_t>(cpu_seconds);
  if (r.rlim_max != RLIM_INFINITY) r.rlim_cur = std::min(r.rlim_cur, r.rlim_max);
  (void)::setrlimit(RLIMIT_CPU, &r);
}

/// Close every inherited descriptor except stdio and the child's own
/// socket (moved to fd 3): sibling children's sockets, journal and
/// lease files. A sibling's socket left open here would hide that
/// sibling's EOF from the parent.
int keep_only(int fd) {
  constexpr int kOwn = 3;
  if (fd != kOwn) {
    ::dup2(fd, kOwn);
    ::close(fd);
  }
  if (::close_range(kOwn + 1, ~0U, 0) != 0) {
    const long open_max = ::sysconf(_SC_OPEN_MAX);
    for (long other = kOwn + 1; other < std::min(open_max, 65536L); ++other) {
      ::close(static_cast<int>(other));
    }
  }
  return kOwn;
}

/// Child side: serve jobs until the parent closes the socket. Never
/// returns.
[[noreturn]] void serve(int fd, ::pid_t parent, const SandboxLimits& limits,
                        support::FlightRecorder* ring, const SandboxBody& body) {
  (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);  // the parent died before prctl
  fd = keep_only(fd);
  support::modelfault::set_sink_fd(fd);
  apply_spawn_rlimits(limits);
  constexpr std::uint32_t kJobMagics[] = {kJobMagic};
  for (;;) {
    const FrameRead frame = support::read_frame(fd, kJobMagics, kMaxJobPayload,
                                                Clock::time_point::max());
    if (frame.status == FrameRead::Status::kEof) ::_exit(0);  // retired
    std::optional<Job> job;
    if (frame.status == FrameRead::Status::kOk) job = decode_job(frame.payload);
    if (!job) ::_exit(kProtocolExit);
    arm_cpu_budget(limits.cpu_seconds);
    // The ring is this worker's MAP_SHARED mapping; it still holds the
    // previous cell's crumbs, and the write ordinal is private to this
    // process, so only the child can reset it for the new attempt.
    if (ring != nullptr) {
      ring->reset();
      ring->arm();
    }
    // An alloc= hit returns from execute_fatal and the cell runs under
    // the injected memory pressure: the rlimit kill (or survival) is the
    // behavior under test. Every other action dies here.
    if (job->injected) support::failpoints::execute_fatal(*job->injected);
    ByteWriter payload;
    {
      const support::modelfault::CellScope cell_scope(job->index);
      campaign::serialize_checkpoint_cell(body(job->index, job->spec), payload);
    }
    // Disarmed before the answer leaves: once the parent holds the frame,
    // nothing writes to the ring until the next job.
    if (ring != nullptr) ring->disarm();
    if (!support::write_frame(fd, kResultMagic, payload.data())) {
      ::_exit(kProtocolExit);
    }
  }
}

/// How a reaped child ended; nullopt for a clean exit 0.
std::optional<HarnessFault> classify_exit(int status) {
  using Kind = HarnessFault::Kind;
  if (WIFSIGNALED(status)) {
    // RLIMIT_CPU kills with SIGXCPU at the soft limit: a resource
    // classification, not a crash.
    const int sig = WTERMSIG(status);
    return HarnessFault{
        sig == SIGXCPU ? Kind::kResourceExhausted : Kind::kSignal, sig, {}};
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return std::nullopt;
  // The RLIMIT_AS new-handler and failpoints::execute_alloc both exit
  // through the dedicated resource-exhaustion code.
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return HarnessFault{code == support::failpoints::kResourceExhaustedExit
                          ? Kind::kResourceExhausted
                          : Kind::kExit,
                      code, {}};
}

}  // namespace

ResultRead read_result(int fd, std::size_t cell, Clock::time_point deadline,
                       campaign::CheckpointCell* out) {
  constexpr auto kModelMagic = support::modelfault::kModelFaultFrameMagic;
  constexpr std::uint32_t kMagics[] = {kResultMagic, kModelMagic};
  const FrameRead frame =
      support::read_frame(fd, kMagics, kMaxResultPayload, deadline);
  switch (frame.status) {
    case FrameRead::Status::kOk:
      break;
    case FrameRead::Status::kDeadline:
      return {HarnessFault{HarnessFault::Kind::kDeadline, SIGKILL, {}}, false};
    case FrameRead::Status::kBadHeader:
      return {protocol(0), false};
    case FrameRead::Status::kBadChecksum:
      return {protocol(1), false};
    case FrameRead::Status::kEof:
    case FrameRead::Status::kError:
      // A read error here is the dead child's ECONNRESET: like EOF, the
      // exit status tells what happened.
      return {protocol(0), true};
  }
  ByteReader pr(frame.payload);
  if (frame.magic == kModelMagic) {
    auto fault = support::modelfault::deserialize_model_fault(pr);
    if (!fault.ok() || !pr.exhausted()) return {protocol(2), false};
    return {HarnessFault{HarnessFault::Kind::kModelFault, fault.value().code,
                         fault.value().describe()},
            false};
  }
  auto decoded = campaign::deserialize_checkpoint_cell(pr);
  if (!decoded.ok() || !pr.exhausted() || decoded.value().index != cell) {
    return {protocol(2), false};
  }
  if (out != nullptr) *out = std::move(decoded).take();
  return {};
}

bool SandboxChild::spawn(const SandboxLimits& limits,
                         support::FlightRecorder* ring, const SandboxBody& body) {
  retire();
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const ::pid_t parent = ::getpid();
  const ::pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(sv[0]);
    ::close(sv[1]);
    errno = err;
    return false;
  }
  if (pid == 0) {
    ::close(sv[0]);
    serve(sv[1], parent, limits, ring, body);
  }
  ::close(sv[1]);
  pid_ = pid;
  fd_ = sv[0];
  limits_ = limits;
  ring_ = ring;
  return true;
}

std::optional<HarnessFault> SandboxChild::run(
    std::size_t index, const TestCaseSpec& spec,
    const std::optional<Hit>& injected, campaign::CheckpointCell* out,
    std::shared_mutex* gate) {
  const auto deadline =
      limits_.deadline_seconds > 0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(limits_.deadline_seconds))
          : Clock::time_point::max();
  // The child is idle between jobs, so the parent may clear the ring
  // too: a child that dies before its job starts then leaves an empty
  // harvest rather than its previous cell's crumbs.
  if (ring_ != nullptr) ring_->reset();
  ByteWriter job;
  encode_job(index, spec, injected, job);
  ResultRead read{protocol(0), true};  // a failed send: the child is gone
  if (support::write_frame(fd_, kJobMagic, job.data())) {
    if (gate != nullptr) {
      // read_result below reports a deadline or error this wait ends on.
      gate->unlock_shared();
      (void)support::await_readable(fd_, deadline);
      gate->lock_shared();
    }
    read = read_result(fd_, index, deadline, out);
  }
  if (!read.fault && !injected) return std::nullopt;
  const int status = reap();
  if (read.eof) {
    if (auto died = classify_exit(status)) return died;
  }
  return read.fault;
}

int SandboxChild::reap() noexcept {
  int status = 0;
  if (pid_ > 0) {
    // Killing a child that already died is harmless and keeps its exit
    // status; killing one that only broke protocol is the point.
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (fd_ >= 0) ::close(fd_);
  pid_ = -1;
  fd_ = -1;
  return status;
}

}  // namespace iris::fuzz
