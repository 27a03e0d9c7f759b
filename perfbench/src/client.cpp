#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <stdexcept>

namespace perfbench {
namespace {

static_assert(std::endian::native == std::endian::little,
              "the wire protocol is little-endian; this client copies bytes");

constexpr std::size_t kMaxPayload = 1 << 20;

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + 4);
}

int connect_local(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::deque<std::uint32_t> pending;  ///< frame indices, in send order
  std::int64_t ready_ns = 0;
};

/// Writes what the kernel takes without blocking; false on a dead socket.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

}  // namespace

void encode_request(std::vector<std::uint8_t>& out, std::uint32_t id,
                    const Pair* pairs, std::size_t n) {
  put_u32(out, static_cast<std::uint32_t>(4 + 8 * n));
  put_u32(out, id);
  for (std::size_t i = 0; i < n; ++i) {
    put_u32(out, pairs[i].u);
    put_u32(out, pairs[i].v);
  }
}

void ping(std::uint16_t port, double timeout_s) {
  const int fd = connect_local(port);
  std::vector<std::uint8_t> frame;
  encode_request(frame, 0xFFFFFFFFu, nullptr, 0);
  bool ok = send(fd, frame.data(), frame.size(), 0) ==
            static_cast<ssize_t>(frame.size());
  std::uint8_t reply[8];
  std::size_t got = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (ok && got < sizeof reply) {
    pollfd p{fd, POLLIN, 0};
    const auto left_ms = static_cast<int>((deadline - now_ns()) / 1'000'000);
    if (left_ms <= 0 || poll(&p, 1, left_ms) <= 0) {
      ok = false;
      break;
    }
    const ssize_t n = recv(fd, reply + got, sizeof reply - got, 0);
    if (n <= 0) ok = false;
    else got += static_cast<std::size_t>(n);
  }
  close(fd);
  if (!ok || load_u32(reply) != 4 || load_u32(reply + 4) != 0xFFFFFFFFu)
    throw std::runtime_error("ping got no answer");
}

TrafficResult run_traffic(std::uint16_t port, const TrafficSpec& spec,
                          const std::function<double()>& server_cpu) {
  // Wake on time for the open-loop schedule (default slack is 50 us).
  prctl(PR_SET_TIMERSLACK, 1UL);
  TrafficResult r;
  std::vector<Conn> conns(spec.connections);
  for (Conn& c : conns) c.fd = connect_local(port);
  SplitMix frame_sizes(spec.seed, 0xF5);
  const std::vector<Pair>& pool = *spec.pool;
  std::vector<Pair> batch;
  bool dropped = false;
  bool shortened = false;

  const std::int64_t t_begin = now_ns();
  const std::int64_t t0 = t_begin + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(spec.window_s * 1e9);
  const std::int64_t t_give_up =
      t_end + static_cast<std::int64_t>(spec.drain_timeout_s * 1e9);
  const bool open = spec.open_rate_fps > 0;
  const double period_ns = open ? 1e9 / spec.open_rate_fps : 0;
  std::uint64_t next_open = 0;  ///< index of the next scheduled open frame
  // Server CPU is sampled at t0 + k * sub_window, k = 0..parts.
  const std::size_t parts = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(spec.window_s / spec.sub_window_s)));
  const auto mark_at = [&](std::size_t k) {
    return t0 + (t_end - t0) * static_cast<std::int64_t>(k) /
                    static_cast<std::int64_t>(parts);
  };
  bool window_ended = false;
  for (Conn& c : conns) c.ready_ns = t_begin;
  r.window_start_ns = t0;
  r.window_end_ns = t_end;

  // A lost connection or an unreadable stream ends the traffic; the frames
  // still outstanding stay unanswered.
  const auto lost = [&](const std::string& what) {
    r.faults.push_back({"wire_protocol", what});
    r.drained = false;
  };

  const auto send_frame = [&](std::uint32_t conn_id, std::int64_t due) {
    Conn& c = conns[conn_id];
    const std::size_t span = spec.max_frame - spec.min_frame + 1;
    const std::size_t n = spec.min_frame + frame_sizes.below(span);
    FrameRecord f;
    f.conn = conn_id;
    f.first = r.stream.size();
    f.count = static_cast<std::uint32_t>(n);
    f.due_ns = due;
    f.in_window = due >= t0 && due < t_end;
    batch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t idx = spec.next_index();
      r.stream.push_back(idx);
      batch[i] = pool[idx];
    }
    r.answers.resize(r.stream.size(), std::numeric_limits<double>::quiet_NaN());
    const auto id = static_cast<std::uint32_t>(r.frames.size() + 1);
    encode_request(c.out, id, batch.data(), n);
    const bool sent = flush(c);
    f.sent_ns = now_ns();
    c.pending.push_back(id - 1);
    r.frames.push_back(f);
    if (!sent) lost("send to the server failed");
  };

  // Parses every complete response in c.in. An unknown or repeated id and
  // a wrong answer count are recorded as faults and reading goes on; false
  // only if the byte stream can no longer be split into frames.
  const auto receive = [&](std::uint32_t conn_id, std::int64_t at) -> bool {
    Conn& c = conns[conn_id];
    std::size_t off = 0;
    while (c.in.size() - off >= 8) {
      const std::uint32_t len = load_u32(c.in.data() + off);
      if (len < 4 || len > kMaxPayload || (len - 4) % 8 != 0) return false;
      if (c.in.size() - off < 4 + std::size_t{len}) break;
      const std::uint32_t id = load_u32(c.in.data() + off + 4);
      std::size_t n = (len - 4) / 8;
      const std::uint8_t* values = c.in.data() + off + 8;
      off += 4 + len;
      const auto it = std::find(c.pending.begin(), c.pending.end(), id - 1);
      if (it == c.pending.end()) {  // not outstanding on this connection
        r.answers_received += n;
        if (id >= 1 && id <= r.frames.size() && r.frames[id - 1].conn == conn_id)
          ++r.frames[id - 1].answers;  // a repeat, caught by answered_once
        else
          r.faults.push_back({"answered_once", "answer for request id " +
                                                   std::to_string(id) +
                                                   ", never sent on this connection"});
        continue;
      }
      c.pending.erase(it);
      c.ready_ns = at;
      FrameRecord& f = r.frames[id - 1];
      if (spec.drop_one_frame && !dropped && f.in_window) {
        dropped = true;  // as if this answer never arrived
        continue;
      }
      if (spec.short_one_frame && !shortened && f.in_window && n > 0) {
        shortened = true;  // as if the server left out the last answer
        --n;
      }
      r.answers_received += n;
      ++f.answers;
      f.done_ns = at;
      if (n == f.count) {
        std::memcpy(&r.answers[f.first], values, n * 8);
      } else {
        f.wrong_count = true;
        r.faults.push_back({"answer_count", "request id " + std::to_string(id) +
                                                ": " + std::to_string(n) +
                                                " answers for " +
                                                std::to_string(f.count) + " queries"});
      }
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
  };
  std::vector<pollfd> fds(conns.size());
  std::uint8_t buf[1 << 16];
  while (r.drained) {
    std::int64_t now = now_ns();
    while (r.cpu_marks.size() <= parts && now >= mark_at(r.cpu_marks.size()))
      r.cpu_marks.push_back(server_cpu());
    window_ended = r.cpu_marks.size() > parts;
    if (open) {
      while (now < t_end && r.drained) {
        const std::int64_t due =
            t_begin + static_cast<std::int64_t>(
                          static_cast<double>(next_open) * period_ns);
        if (due > now || due >= t_end) break;
        send_frame(static_cast<std::uint32_t>(next_open % conns.size()), due);
        ++next_open;
      }
    } else if (now < t_end) {
      for (std::uint32_t i = 0; i < conns.size() && r.drained; ++i)
        if (conns[i].pending.empty()) send_frame(i, conns[i].ready_ns);
    }
    if (!r.drained) break;
    bool outstanding = false;
    for (const Conn& c : conns) outstanding |= !c.pending.empty();
    if (window_ended && !outstanding) break;
    if (now >= t_give_up) {
      r.drained = false;
      break;
    }

    std::int64_t wake = window_ended ? t_give_up : mark_at(r.cpu_marks.size());
    if (open && now < t_end)
      wake = std::min(wake, t_begin + static_cast<std::int64_t>(
                                          static_cast<double>(next_open) *
                                          period_ns));
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    for (std::size_t i = 0; i < conns.size(); ++i)
      fds[i] = {conns[i].fd,
                static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                0};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR)
      throw std::runtime_error("ppoll failed");
    if (ready <= 0) continue;
    now = now_ns();
    for (std::uint32_t i = 0; i < conns.size() && r.drained; ++i) {
      if (fds[i].revents & POLLOUT && !flush(conns[i])) {
        lost("send to the server failed");
        break;
      }
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t n = recv(conns[i].fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        lost("the server closed connection " + std::to_string(i));
        break;
      }
      if (n < 0) continue;
      conns[i].in.insert(conns[i].in.end(), buf, buf + n);
      if (!receive(i, now))
        lost("unreadable answer stream on connection " + std::to_string(i));
    }
  }
  // A run cut short still gets one CPU mark per sub-window boundary.
  while (r.cpu_marks.size() <= parts)
    r.cpu_marks.push_back(r.cpu_marks.empty() ? 0.0 : r.cpu_marks.back());
  for (Conn& c : conns) close(c.fd);
  return r;
}

}  // namespace perfbench
