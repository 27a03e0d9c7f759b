// pathsep-lint: deterministic — snapshot bytes must be identical for every
// run and thread count (label_digest equality tests depend on it), so
// nothing here may iterate a hash container into the output.
#include "service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "check/audit_oracle.hpp"
#include "check/check.hpp"
#include "oracle/serialize.hpp"

namespace pathsep::service {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'E', 'P', 'S', 'N', 'A', 'P'};

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Reads the header; on return `offset` points at the first label record.
SnapshotInfo read_header(std::span<const std::uint8_t> bytes,
                         std::size_t& offset) {
  if (bytes.size() < sizeof(kMagic) + 8)
    throw std::runtime_error("snapshot too short for header");
  for (std::size_t i = 0; i < sizeof(kMagic); ++i)
    if (bytes[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw std::runtime_error("snapshot magic mismatch");
  offset = sizeof(kMagic);
  SnapshotInfo info;
  info.version =
      static_cast<std::uint32_t>(oracle::read_varint(bytes, offset));
  if (info.version != kSnapshotVersion)
    throw std::runtime_error("unsupported snapshot version " +
                             std::to_string(info.version));
  info.epsilon = oracle::read_double(bytes, offset);
  info.num_vertices =
      static_cast<std::size_t>(oracle::read_varint(bytes, offset));
  // Every label record costs at least 1 length byte + 2 label bytes.
  if (info.num_vertices > bytes.size() / 3)
    throw std::runtime_error("snapshot vertex count exceeds buffer");
  info.total_bytes = bytes.size();
  return info;
}

}  // namespace

std::vector<std::uint8_t> serialize_oracle(const oracle::PathOracle& oracle) {
  std::vector<std::uint8_t> out;
  // push_back instead of a ranged insert: GCC 12's -Wstringop-overflow
  // misfires on inserting a fixed array into an empty vector at -O2.
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  oracle::append_varint(out, kSnapshotVersion);
  oracle::append_double(out, oracle.epsilon());
  oracle::append_varint(out, oracle.num_vertices());
  for (const oracle::DistanceLabel& label : oracle.labels()) {
    const std::vector<std::uint8_t> bytes = oracle::serialize_label(label);
    oracle::append_varint(out, bytes.size());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  const std::uint64_t checksum = fnv1a64(out);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  return out;
}

SnapshotInfo peek_snapshot(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  return read_header(bytes, offset);
}

oracle::PathOracle deserialize_oracle(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) throw std::runtime_error("snapshot too short");
  const std::span<const std::uint8_t> body = bytes.first(bytes.size() - 8);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i)
    stored |= static_cast<std::uint64_t>(bytes[bytes.size() - 8 +
                                               static_cast<std::size_t>(i)])
              << (8 * i);
  if (fnv1a64(body) != stored)
    throw std::runtime_error("snapshot checksum mismatch");

  std::size_t offset = 0;
  const SnapshotInfo info = read_header(body, offset);
  std::vector<oracle::DistanceLabel> labels;
  labels.reserve(info.num_vertices);
  for (std::size_t v = 0; v < info.num_vertices; ++v) {
    const std::uint64_t len = oracle::read_varint(body, offset);
    if (len > body.size() - offset)
      throw std::runtime_error("label length exceeds snapshot");
    labels.push_back(oracle::deserialize_label(
        body.subspan(offset, static_cast<std::size_t>(len))));
    if (labels.back().vertex != static_cast<graph::Vertex>(v))
      throw std::runtime_error("snapshot label order corrupt at index " +
                               std::to_string(v));
    offset += static_cast<std::size_t>(len);
  }
  if (offset != body.size())
    throw std::runtime_error("trailing bytes after snapshot labels");
  // A snapshot that passes the checksum can still have been written by a
  // corrupted producer; the deep audit checks the decoded structure itself.
  PATHSEP_AUDIT(check::audit_labels(labels));
  return oracle::PathOracle(std::move(labels), info.epsilon);
}

void save_snapshot(const oracle::PathOracle& oracle, const std::string& path,
                   bool validate) {
  const std::vector<std::uint8_t> bytes = serialize_oracle(oracle);
  if (validate) {
    const oracle::PathOracle back = deserialize_oracle(bytes);
    if (back.num_vertices() != oracle.num_vertices() ||
        back.epsilon() != oracle.epsilon())
      throw std::runtime_error("snapshot round-trip header mismatch");
    for (std::size_t v = 0; v < oracle.num_vertices(); ++v)
      if (back.label(static_cast<graph::Vertex>(v)) !=
          oracle.label(static_cast<graph::Vertex>(v)))
        throw std::runtime_error("snapshot round-trip label mismatch at " +
                                 std::to_string(v));
  }
  // Write a sibling temp file, flush it to disk, then rename it over the
  // target: the old snapshot stays intact until the new one is complete.
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) throw std::runtime_error("cannot open " + tmp + " for writing");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<std::size_t>(n);
  }
  const bool synced = written == bytes.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("short write to " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

oracle::PathOracle load_snapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) throw std::runtime_error("cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    throw std::runtime_error("cannot size " + path);
  }
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
  std::fclose(file);
  if (read != bytes.size())
    throw std::runtime_error("short read from " + path);
  return deserialize_oracle(bytes);
}

}  // namespace pathsep::service
