#include "support/frame.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

#include "support/serialize.h"

namespace iris::support {
namespace {

using Clock = std::chrono::steady_clock;
using Status = FrameRead::Status;

constexpr std::size_t kFrameHeaderBytes = 16;

/// Payload bytes requested per read: the buffer never runs more than
/// this far ahead of the bytes that actually arrived.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Fill `buf` completely: kOk, or why not.
Status read_exact(int fd, std::uint8_t* buf, std::size_t size,
                  Clock::time_point deadline) {
  for (std::size_t got = 0; got < size;) {
    if (deadline != Clock::time_point::max()) {
      const Status ready = await_readable(fd, deadline);
      if (ready != Status::kOk) return ready;
    }
    const ::ssize_t n = ::read(fd, buf + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::kError;
    if (n == 0) return Status::kEof;
    got += static_cast<std::size_t>(n);
  }
  return Status::kOk;
}

}  // namespace

FrameRead::Status await_readable(int fd, Clock::time_point deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(left, 0, INT_MAX));
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) return Status::kError;
    return rc == 0 ? Status::kDeadline : Status::kOk;
  }
}

bool write_frame(int fd, std::uint32_t magic, std::span<const std::uint8_t> payload) {
  ByteWriter frame;
  frame.u32(magic);
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u64(fnv1a(payload));
  frame.bytes(payload);
  const std::vector<std::uint8_t>& bytes = frame.data();
  for (std::size_t off = 0; off < bytes.size();) {
    const ::ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

FrameRead read_frame(int fd, std::span<const std::uint32_t> magics,
                     std::size_t max_payload, Clock::time_point deadline) {
  FrameRead out;
  std::uint8_t header[kFrameHeaderBytes];
  out.status = read_exact(fd, header, sizeof(header), deadline);
  if (out.status != Status::kOk) return out;
  ByteReader r(header);
  out.magic = r.u32().value();
  const std::uint32_t len = r.u32().value();
  const std::uint64_t checksum = r.u64().value();
  if (std::find(magics.begin(), magics.end(), out.magic) == magics.end() ||
      len > max_payload) {
    out.status = Status::kBadHeader;
    return out;
  }
  while (out.payload.size() < len) {
    const std::size_t got = out.payload.size();
    const std::size_t want = std::min<std::size_t>(len - got, kReadChunk);
    out.payload.resize(got + want);
    out.status = read_exact(fd, out.payload.data() + got, want, deadline);
    if (out.status != Status::kOk) return out;
  }
  if (fnv1a(out.payload) != checksum) out.status = Status::kBadChecksum;
  return out;
}

}  // namespace iris::support
