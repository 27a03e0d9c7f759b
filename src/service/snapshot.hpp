// Whole-oracle snapshot serialization.
//
// serialize.hpp ships one label at a time (the distributed Theorem-2 view);
// a serving engine instead wants the whole centralized oracle persisted so a
// restarted process cold-starts from disk in milliseconds instead of
// rebuilding the decomposition hierarchy. The container wraps the existing
// per-label varint codec:
//
//   magic "PSEPSNAP" | varint version | epsilon (LE double) | varint n |
//   n x (varint label_byte_len | label bytes) | FNV-1a 64 checksum (LE)
//
// The checksum covers everything before it. Loading checks magic, version,
// per-label lengths, the label count, and the checksum, and throws
// std::runtime_error on any mismatch; saving optionally validates by
// decoding the buffer once and comparing it field by field with the source
// oracle before the file reaches disk, and replaces the target atomically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oracle/path_oracle.hpp"

namespace pathsep::service {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Parsed header of a snapshot buffer (cheap; does not decode labels).
struct SnapshotInfo {
  std::uint32_t version = 0;
  double epsilon = 0.0;
  std::size_t num_vertices = 0;
  std::size_t total_bytes = 0;
};

std::vector<std::uint8_t> serialize_oracle(const oracle::PathOracle& oracle);

/// Throws std::runtime_error on bad magic, unsupported version, truncation,
/// checksum mismatch, or any malformed embedded label.
oracle::PathOracle deserialize_oracle(std::span<const std::uint8_t> bytes);

/// Header fields without decoding the labels; same error behavior.
SnapshotInfo peek_snapshot(std::span<const std::uint8_t> bytes);

/// Writes serialize_oracle(oracle) to `path`. With `validate` (the default),
/// first decodes the buffer in memory and checks every label against the
/// source field by field — corruption is caught before anything reaches
/// disk. The bytes go to a temp file next to `path`, which is fsynced and
/// then renamed over `path`, so a failed save (disk full, file-size limit,
/// crash) leaves any old snapshot at `path` intact. Throws on I/O failure.
/// Concurrent saves to the same path from one process are not supported.
void save_snapshot(const oracle::PathOracle& oracle, const std::string& path,
                   bool validate = true);

oracle::PathOracle load_snapshot(const std::string& path);

}  // namespace pathsep::service
