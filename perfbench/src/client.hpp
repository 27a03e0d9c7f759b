// Load generator for the query server's binary wire protocol: one thread,
// several nonblocking connections, closed or open loop. Frames are encoded
// and decoded here, apart from the library's codec, so the benchmark checks
// the protocol rather than echoing it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct TrafficSpec {
  std::size_t connections = 1;
  /// Open loop: frames are due every 1/rate seconds, round-robin over the
  /// connections, whatever the answers do. Closed loop (rate 0): each
  /// connection has one frame outstanding and sends the next on its answer.
  double open_rate_fps = 0;
  std::size_t min_frame = 1;  ///< pairs per frame, uniform in [min, max]
  std::size_t max_frame = 1;
  double warmup_s = 0;  ///< traffic before the measured window
  double window_s = 1;
  double sub_window_s = 1;  ///< the window is cut into parts this long
  double drain_timeout_s = 10;  ///< wait for late answers, then fail
  std::uint64_t seed = 1;
  const std::vector<Pair>* pool = nullptr;
  /// Pool index of the next pair to send.
  std::function<std::uint32_t()> next_index;
  /// Drop one answered frame on receipt, as if the network lost it.
  bool drop_one_frame = false;
  /// Read one answer frame as if it carried one answer fewer than asked.
  bool short_one_frame = false;
};

struct FrameRecord {
  std::uint32_t conn = 0;
  std::uint64_t first = 0;  ///< stream position of the frame's first pair
  std::uint32_t count = 0;
  std::int64_t due_ns = 0;   ///< scheduled send (open) / connection ready
  std::int64_t sent_ns = 0;  ///< last byte handed to the kernel
  std::int64_t done_ns = 0;  ///< answer fully received; 0 = never
  std::uint32_t answers = 0;  ///< response frames that carried this id
  bool wrong_count = false;   ///< the first answer held another count
  bool in_window = false;
};

/// A problem in the server's answers, found on receipt, under the name of
/// the check it fails.
struct WireFault {
  std::string check;
  std::string detail;
};

struct TrafficResult {
  std::vector<FrameRecord> frames;  ///< request id = index + 1
  std::vector<std::uint32_t> stream;  ///< pool index per stream position
  std::vector<double> answers;        ///< per stream position; NaN = none
  /// Answer values in every response frame received, duplicates and
  /// wrong-length frames included, as the frames' own headers give them.
  std::uint64_t answers_received = 0;
  std::vector<WireFault> faults;
  std::int64_t window_start_ns = 0;  ///< nominal: warm-up end
  std::int64_t window_end_ns = 0;
  /// Server CPU seconds read at each sub-window boundary (parts + 1).
  std::vector<double> cpu_marks;
  /// Every sent frame answered before the timeout, with no connection
  /// lost and no frame unreadable on the way.
  bool drained = true;
};

/// Sends a 0-pair frame (a ping) and waits for its answer; throws if none
/// arrives within `timeout_s`.
void ping(std::uint16_t port, double timeout_s);

/// Runs the traffic against 127.0.0.1:port. `server_cpu` is sampled at
/// each sub-window boundary of the measured window.
TrafficResult run_traffic(std::uint16_t port, const TrafficSpec& spec,
                          const std::function<double()>& server_cpu);

/// Encodes one request frame (u32 len | u32 id | n x {u32 u, u32 v}).
void encode_request(std::vector<std::uint8_t>& out, std::uint32_t id,
                    const Pair* pairs, std::size_t n);

}  // namespace perfbench
