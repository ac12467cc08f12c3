// Atomic filesystem publication helpers, shared by the seed DB and the
// campaign persistence components.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "support/result.h"

namespace iris {

/// Write `bytes` whole into a fresh dot-prefixed temp file beside
/// `dir/name` (same directory, so a rename or link cannot cross
/// filesystems). The temp name carries per-process entropy (an
/// ASLR-randomized address) plus a per-process counter, so concurrent
/// publishers of one name never scribble over each other's temp file.
inline Result<std::filesystem::path> write_temp_file(
    const std::filesystem::path& dir, const std::string& name,
    std::span<const std::uint8_t> bytes) {
  namespace fs = std::filesystem;
  static std::atomic<std::uint64_t> counter{0};
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".%llx-%llu.tmp",
                static_cast<unsigned long long>(
                    reinterpret_cast<std::uintptr_t>(&counter)),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  const fs::path tmp = dir / ("." + name + suffix);
  // Stream failures capture errno so retry policies can classify the
  // condition (EINTR/ESTALE retryable, ENOSPC not).
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Error{20, "cannot open " + tmp.string(), errno};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    const int saved = errno;
    std::error_code ec;
    fs::remove(tmp, ec);
    return Error{21, "write failed: " + tmp.string(), saved};
  }
  return tmp;
}

/// Write `bytes` to `dir/name` atomically: the payload lands in a temp
/// file and is renamed into place. Readers never observe a partial
/// file; a killed writer leaves only an ignorable temp. Concurrent
/// publishers of one name: last rename wins with intact bytes.
inline Status write_file_atomic(const std::filesystem::path& dir,
                                const std::string& name,
                                std::span<const std::uint8_t> bytes) {
  auto tmp = write_temp_file(dir, name, bytes);
  if (!tmp.ok()) return tmp.error();
  const std::filesystem::path final_path = dir / name;
  std::error_code ec;
  std::filesystem::rename(tmp.value(), final_path, ec);
  if (ec) {
    const int saved = ec.value();
    std::filesystem::remove(tmp.value(), ec);
    return Error{22, "rename failed: " + final_path.string(), saved};
  }
  return {};
}

/// Publish `bytes` as `dir/name` only if that name is still free: the
/// payload lands whole in a temp file that is hard-linked into place
/// (link fails with EEXIST if the name is taken), so a racing reader
/// sees no file or the complete file, never a torn one. true = this
/// writer won, false = the name was taken (adopt the incumbent); an
/// error when the temp file could not be written or linked.
inline Result<bool> link_file_exclusive(const std::filesystem::path& dir,
                                        const std::string& name,
                                        std::span<const std::uint8_t> bytes) {
  auto tmp = write_temp_file(dir, name, bytes);
  if (!tmp.ok()) return tmp.error();
  std::error_code linked;
  std::filesystem::create_hard_link(tmp.value(), dir / name, linked);
  std::error_code ec;
  std::filesystem::remove(tmp.value(), ec);
  if (linked && linked != std::errc::file_exists) {
    return Error{23, "link failed: " + (dir / name).string(), linked.value()};
  }
  return !linked;
}

/// Slurp a whole file; missing or unreadable files are an error value.
inline Result<std::vector<std::uint8_t>> read_file_bytes(
    const std::filesystem::path& path) {
  errno = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{41, "cannot open " + path.string(), errno};
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

}  // namespace iris
