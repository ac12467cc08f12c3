// Checksummed frames over a pipe or socket.
//
// The sandbox protocol moves three records between a campaign parent and
// its sandbox children: cell jobs down, results ("IRSB") and structured
// model faults ("IRMF") up. All three share one little-endian shape:
//
//   magic u32 | payload length u32 | fnv1a(payload) u64 | payload
//
// A reader never trusts the length field. A length above the caller's
// cap is refused before any payload byte is read, and the payload buffer
// grows in 64 KiB steps as bytes arrive, so a corrupt header can neither
// allocate much nor stall past the deadline.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace iris::support {

/// Write one whole frame to socket `fd`, retrying EINTR and short
/// writes. Sent with MSG_NOSIGNAL, so a dead peer is a false return,
/// never a SIGPIPE. False on any send error.
bool write_frame(int fd, std::uint32_t magic, std::span<const std::uint8_t> payload);

struct FrameRead {
  enum class Status : std::uint8_t {
    kOk,           ///< a whole frame whose checksum matches
    kEof,          ///< the writer closed before a whole frame arrived
    kDeadline,     ///< the deadline passed first
    kBadHeader,    ///< a magic not in the accepted set, or a length above the cap
    kBadChecksum,  ///< the payload does not match its checksum
    kError,        ///< poll or read failed
  };
  Status status = Status::kEof;
  std::uint32_t magic = 0;
  std::vector<std::uint8_t> payload;
};

/// Block until `fd` has something to read (data or EOF): kOk, or
/// kDeadline once `deadline` passes (time_point::max() = never), or
/// kError. Allocates nothing.
FrameRead::Status await_readable(int fd,
                                 std::chrono::steady_clock::time_point deadline);

/// Read exactly one frame from `fd` (a socket or a pipe), waiting at
/// most until `deadline` (time_point::max() = no deadline). `magics`
/// lists the magics this reader accepts; `max_payload` caps the length
/// field.
FrameRead read_frame(int fd, std::span<const std::uint32_t> magics,
                     std::size_t max_payload,
                     std::chrono::steady_clock::time_point deadline);

}  // namespace iris::support
