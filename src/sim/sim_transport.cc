#include "sim/sim_transport.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "net/frame.h"
#include "obs/metrics.h"

namespace ft::sim {
namespace {

// Event tags. SimTransport and SimLoop are separate EventHandlers, so
// the tag spaces are independent; these are SimTransport's.
constexpr std::uint32_t kTagDeliver = 1;
constexpr std::uint32_t kTagNotify = 2;
constexpr std::uint32_t kTagConnect = 3;
constexpr std::uint32_t kTagFin = 4;
// SimLoop's single tag.
constexpr std::uint32_t kTagTimer = 1;

// Two 32-bit fields in one event arg: (listener, server handle) for a
// connect, (receiver handle, byte count) for a delivery.
constexpr std::uint64_t pack(int hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi))
          << 32) |
         lo;
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

SimTransport::SimTransport(EventQueue& events, std::uint64_t seed)
    : events_(events), rng_(seed) {
  events_.bind_clock(&clock_);
  streams_.emplace_back();  // slot 0: handles start at 1
}

SimTransport::~SimTransport() { events_.bind_clock(nullptr); }

int SimTransport::new_handle() {
  streams_.emplace_back();
  return next_handle_++;
}

SimTransport::Stream* SimTransport::stream_of(int handle) {
  return const_cast<Stream*>(std::as_const(*this).stream_of(handle));
}

const SimTransport::Stream* SimTransport::stream_of(int handle) const {
  if (handle <= 0 || handle >= next_handle_) return nullptr;
  const Stream& s = streams_[static_cast<std::size_t>(handle)];
  return s.live ? &s : nullptr;
}

int SimTransport::listen_tcp(int port, bool /*listen_any*/,
                             int* bound_port) {
  if (port == 0) port = next_ephemeral_port_++;
  if (tcp_binds_.contains(port)) {
    errno = EADDRINUSE;
    return -1;
  }
  const int h = new_handle();
  Listener l;
  l.port = port;
  listeners_.emplace(h, std::move(l));
  tcp_binds_.emplace(port, h);
  if (bound_port != nullptr) *bound_port = port;
  return h;
}

int SimTransport::listen_unix(const std::string& path) {
  // Mirrors unix_listen: rebinding an existing path steals it.
  unix_binds_.erase(path);
  const int h = new_handle();
  Listener l;
  l.path = path;
  listeners_.emplace(h, std::move(l));
  unix_binds_.emplace(path, h);
  return h;
}

int SimTransport::connect_tcp(const std::string& /*host*/, int port) {
  const auto it = tcp_binds_.find(port);
  if (it == tcp_binds_.end()) {
    next_dial_link_set_ = false;
    errno = ECONNREFUSED;
    return -1;
  }
  return dial(it->second);
}

int SimTransport::connect_unix(const std::string& path) {
  const auto it = unix_binds_.find(path);
  if (it == unix_binds_.end()) {
    next_dial_link_set_ = false;
    errno = ECONNREFUSED;
    return -1;
  }
  return dial(it->second);
}

int SimTransport::dial(int listener_handle) {
  const SimLinkParams link =
      next_dial_link_set_ ? next_dial_link_ : default_link_;
  next_dial_link_set_ = false;
  const int ch = new_handle();
  const int sh = new_handle();
  Stream& client = streams_[static_cast<std::size_t>(ch)];
  client.live = true;
  client.peer = sh;
  client.link = link;
  Stream& server = streams_[static_cast<std::size_t>(sh)];
  server.live = true;
  server.peer = ch;
  server.server_side = true;
  server.link = link;
  live_streams_ += 2;
  ++stats_.conns_opened;
  // The SYN reaches the listener one propagation delay from now; any
  // bytes the client writes meanwhile arrive behind it.
  events_.schedule(events_.now() + link.latency_us * kMicrosecond, this,
                   kTagConnect,
                   pack(listener_handle, static_cast<std::uint32_t>(sh)));
  return ch;
}

int SimTransport::accept(int listen_handle) {
  const auto it = listeners_.find(listen_handle);
  FT_CHECK(it != listeners_.end());
  if (it->second.backlog.empty()) {
    errno = EAGAIN;
    return -1;
  }
  const int sh = it->second.backlog.front();
  it->second.backlog.pop_front();
  return sh;
}

std::int64_t SimTransport::read(int handle, void* buf, std::size_t len) {
  Stream* const sp = stream_of(handle);
  FT_CHECK(sp != nullptr);
  Stream& s = *sp;
  if (s.reset) {
    errno = ECONNRESET;
    return -1;
  }
  const std::size_t avail = s.ready - s.rd;
  if (avail > 0) {
    const std::size_t n = std::min(len, avail);
    std::memcpy(buf, s.buf.data() + s.rd, n);
    s.rd += n;
    if (s.rd == s.buf.size()) {  // caught up, nothing in flight
      s.buf.clear();
      s.rd = 0;
      s.ready = 0;
    }
    // Reading freed receive-window space: the peer may be write-blocked.
    request_notify(s.peer);
    return static_cast<std::int64_t>(n);
  }
  if (s.peer_closed && s.in_flight == 0) return 0;  // clean EOF
  errno = EAGAIN;
  return -1;
}

std::int64_t SimTransport::write(int handle, const void* buf,
                                 std::size_t len) {
  Stream* const sp = stream_of(handle);
  FT_CHECK(sp != nullptr);
  Stream& s = *sp;
  if (s.reset || s.peer_closed) {
    errno = EPIPE;
    return -1;
  }
  const Stream* const peer = stream_of(s.peer);
  if (peer == nullptr) {
    errno = EPIPE;
    return -1;
  }
  const auto pending = static_cast<std::int64_t>(peer->buf.size() - peer->rd);
  const auto space =
      static_cast<std::int64_t>(stream_buf_bytes_) - pending;
  if (space <= 0) {
    errno = EAGAIN;
    return -1;
  }
  const std::size_t n =
      std::min(len, static_cast<std::size_t>(space));
  const auto* p = static_cast<const std::uint8_t*>(buf);
  // Every byte accepted past this point is accounted to exactly one
  // fate (see the conservation identity in the header).
  stats_.bytes_accepted += static_cast<std::int64_t>(n);
  if (black_hole_) {
    stats_.bytes_blackholed += static_cast<std::int64_t>(n);
    if (lc_.blackholed != nullptr) lc_.blackholed->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (!s.server_side && partition_up_) {
    stats_.bytes_partitioned_up += static_cast<std::int64_t>(n);
    if (lc_.partitioned_up != nullptr) lc_.partitioned_up->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (s.server_side && partition_down_) {
    stats_.bytes_partitioned_down += static_cast<std::int64_t>(n);
    if (lc_.partitioned_down != nullptr) lc_.partitioned_down->add(n);
    return static_cast<std::int64_t>(n);
  }
  if (s.server_side && drop_down_frac_ > 0.0 && !s.raw_mode) {
    s.down_parse.insert(s.down_parse.end(), p, p + n);
    sieve_and_send(s);
  } else {
    send_segment(s, p, n);
  }
  return static_cast<std::int64_t>(n);
}

void SimTransport::send_segment(Stream& from, const std::uint8_t* data,
                                std::size_t n) {
  if (n == 0) return;
  Stream* const dst = stream_of(from.peer);
  if (dst == nullptr || !dst->open) {
    // The peer closed (or vanished) before these bytes could ship; a
    // real kernel would discard them the same way, but here the loss
    // must be *named* or the conservation oracle fires.
    drop_closed(static_cast<std::int64_t>(n));
    return;
  }
  FT_CHECK(n <= UINT32_MAX);
  const Time start = std::max(events_.now(), from.link_free_at);
  from.link_free_at =
      start + tx_time(static_cast<std::int64_t>(n), from.link.bandwidth_bps);
  const Time arrive =
      from.link_free_at + from.link.latency_us * kMicrosecond;
  std::vector<std::uint8_t>& b = dst->buf;
  if (dst->rd > 0 && b.size() + n > b.capacity()) {
    // Compact instead of growing: slide the unread tail to the front.
    b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(dst->rd));
    dst->ready -= dst->rd;
    dst->rd = 0;
  }
  b.insert(b.end(), data, data + n);
  dst->in_flight += static_cast<std::int64_t>(n);
  events_.schedule(arrive, this, kTagDeliver,
                   pack(from.peer, static_cast<std::uint32_t>(n)));
}

void SimTransport::sieve_and_send(Stream& from) {
  // FaultJail's sieve on virtual time: cut complete length-prefixed
  // frames, roll the seeded die per frame, forward survivors. An
  // unframeable stream falls back to verbatim forwarding.
  std::size_t off = 0;
  std::vector<std::uint8_t>& out = sieve_out_;
  out.clear();
  while (from.down_parse.size() - off >= net::kFrameHeaderBytes) {
    const std::size_t payload_len = get_le32(&from.down_parse[off]);
    if (payload_len == 0 || payload_len > net::kMaxFramePayload) {
      from.raw_mode = true;
      out.insert(out.end(), from.down_parse.begin() +
                                static_cast<std::ptrdiff_t>(off),
                 from.down_parse.end());
      from.down_parse.clear();
      send_segment(from, out.data(), out.size());
      return;
    }
    const std::size_t total = net::kFrameHeaderBytes + payload_len;
    if (from.down_parse.size() - off < total) break;
    ++stats_.frames_down;
    if (rng_.uniform() < drop_down_frac_) {
      ++stats_.frames_dropped;
      stats_.bytes_dropped_sieve += static_cast<std::int64_t>(total);
      if (lc_.dropped_sieve != nullptr) lc_.dropped_sieve->add(total);
      count_dropped_records(&from.down_parse[off + net::kFrameHeaderBytes],
                            payload_len);
    } else {
      out.insert(
          out.end(),
          from.down_parse.begin() + static_cast<std::ptrdiff_t>(off),
          from.down_parse.begin() +
              static_cast<std::ptrdiff_t>(off + total));
    }
    off += total;
  }
  from.down_parse.erase(
      from.down_parse.begin(),
      from.down_parse.begin() + static_cast<std::ptrdiff_t>(off));
  send_segment(from, out.data(), out.size());
}

void SimTransport::close(int handle) {
  Stream* const sp = stream_of(handle);
  if (sp == nullptr) {
    const auto lit = listeners_.find(handle);
    if (lit == listeners_.end()) return;
    // Pending, never-accepted connections die with the listener.
    for (const int sh : lit->second.backlog) close(sh);
    if (lit->second.port >= 0) tcp_binds_.erase(lit->second.port);
    if (!lit->second.path.empty()) {
      const auto bit = unix_binds_.find(lit->second.path);
      if (bit != unix_binds_.end() && bit->second == handle) {
        unix_binds_.erase(bit);
      }
    }
    listeners_.erase(lit);
    return;
  }
  Stream& s = *sp;
  if (!s.open) return;
  s.open = false;
  s.watch = Watch{};
  const Stream* const peer = stream_of(s.peer);
  if (peer != nullptr && peer->open && !peer->reset) {
    // FIN ordering: it arrives behind every byte already written.
    const Time at = std::max(events_.now(), s.link_free_at) +
                    s.link.latency_us * kMicrosecond;
    events_.schedule(at, this, kTagFin,
                     static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(s.peer)));
  }
  maybe_erase_pair(handle);
}

void SimTransport::maybe_erase_pair(int handle) {
  Stream* const s = stream_of(handle);
  if (s == nullptr || s->open) return;
  Stream* const peer = stream_of(s->peer);
  if (peer != nullptr && peer->open) return;
  // Each end becomes a tombstone. Sieve parse residue (an incomplete
  // trailing frame) dies with the pair; until now it counted as
  // stranded, so re-home it. Bytes still in flight stay counted in the
  // slot's in_flight until their delivery event drops them.
  const auto retire = [this](Stream& t) {
    drop_closed(static_cast<std::int64_t>(t.down_parse.size()));
    const std::int64_t in_flight = t.in_flight;
    t = Stream{};
    t.in_flight = in_flight;
    --live_streams_;
  };
  if (peer != nullptr) retire(*peer);
  retire(*s);
}

void SimTransport::drop_closed(std::int64_t n) {
  if (n <= 0) return;
  stats_.bytes_dropped_closed += n;
  if (lc_.dropped_closed != nullptr) {
    lc_.dropped_closed->add(static_cast<std::uint64_t>(n));
  }
}

void SimTransport::count_dropped_records(const std::uint8_t* payload,
                                         std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    std::size_t rec = 0;
    std::uint64_t* slot = nullptr;
    switch (static_cast<net::MsgType>(payload[off])) {
      case net::MsgType::kFlowletStart:
        slot = &stats_.records_dropped_start;
        rec = net::kStartRecordBytes;
        break;
      case net::MsgType::kFlowletEnd:
        slot = &stats_.records_dropped_end;
        rec = net::kEndRecordBytes;
        break;
      case net::MsgType::kRateUpdate:
        slot = &stats_.records_dropped_rate;
        rec = net::kRateRecordBytes;
        break;
      case net::MsgType::kTraceMark:
        slot = &stats_.records_dropped_trace;
        rec = net::kTraceRecordBytes;
        break;
      case net::MsgType::kHeartbeat:
        slot = &stats_.records_dropped_heartbeat;
        rec = net::kHeartbeatRecordBytes;
        break;
      default:
        break;
    }
    if (slot == nullptr || len - off < rec) {
      // Unknown tag or truncated trailing record: the rest of the frame
      // is one opaque loss (the sieve only checks the length prefix,
      // not record alignment).
      ++stats_.records_dropped_other;
      if (lc_.records_dropped != nullptr) lc_.records_dropped->add(1);
      return;
    }
    ++*slot;
    if (lc_.records_dropped != nullptr) lc_.records_dropped->add(1);
    off += rec;
  }
}

std::int64_t SimTransport::stranded_bytes() const {
  std::int64_t n = 0;
  for (const Stream& s : streams_) {
    n += s.in_flight + static_cast<std::int64_t>(s.down_parse.size());
  }
  return n;
}

void SimTransport::bind_metrics(obs::MetricsRegistry& reg,
                                std::string_view prefix) {
  const std::string p(prefix);
  lc_.blackholed = &reg.counter(p + ".bytes_blackholed");
  lc_.partitioned_up = &reg.counter(p + ".bytes_partitioned_up");
  lc_.partitioned_down = &reg.counter(p + ".bytes_partitioned_down");
  lc_.dropped_sieve = &reg.counter(p + ".bytes_dropped_sieve");
  lc_.dropped_closed = &reg.counter(p + ".bytes_dropped_closed");
  lc_.records_dropped = &reg.counter(p + ".records_dropped");
}

void SimTransport::unlink_path(const std::string& path) {
  // ::unlink removes the name binding; an already-open listener keeps
  // serving, which the bind map can't express -- by this point the
  // listener is closed (service teardown order), so just drop the name.
  unix_binds_.erase(path);
}

void SimTransport::kill_all() {
  // Victims reset in handle order on every run.
  for (int h = 1; h < next_handle_; ++h) {
    Stream& s = streams_[static_cast<std::size_t>(h)];
    if (!s.live || s.reset || !s.open) continue;
    s.reset = true;
    if (!s.server_side) ++stats_.conns_reset;
    request_notify(h);
  }
}

SimTransport::Watch* SimTransport::watch_of(int handle) {
  if (Stream* const s = stream_of(handle)) return &s->watch;
  const auto lit = listeners_.find(handle);
  if (lit != listeners_.end()) return &lit->second.watch;
  return nullptr;
}

std::uint32_t SimTransport::ready_mask(int handle) const {
  const Stream* const sp = stream_of(handle);
  if (sp == nullptr) {
    const auto lit = listeners_.find(handle);
    if (lit == listeners_.end()) return 0;
    const std::uint32_t m =
        lit->second.backlog.empty() ? 0 : net::kEvRead;
    return m & lit->second.watch.interest;
  }
  const Stream& s = *sp;
  std::uint32_t m = 0;
  if (s.reset) {
    m = net::kEvRead | net::kEvErr | net::kEvHup;
  } else {
    if (s.ready > s.rd || (s.peer_closed && s.in_flight == 0)) {
      m |= net::kEvRead;
    }
    if (!s.peer_closed) {
      if (const Stream* const peer = stream_of(s.peer)) {
        // Unread plus in flight toward the peer.
        if (peer->buf.size() - peer->rd < stream_buf_bytes_) {
          m |= net::kEvWrite;
        }
      }
    }
  }
  // Like epoll: ERR/HUP are always reported, everything else only on
  // interest.
  return m & (s.watch.interest | net::kEvErr | net::kEvHup);
}

void SimTransport::request_notify(int handle) {
  Watch* w = watch_of(handle);
  if (w == nullptr || w->loop == nullptr || w->notify_pending) return;
  if (ready_mask(handle) == 0) return;
  w->notify_pending = true;
  events_.schedule(events_.now(), this, kTagNotify,
                   static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(handle)));
}

void SimTransport::on_event(std::uint32_t tag, std::uint64_t arg) {
  switch (tag) {
    case kTagDeliver: {
      const int handle = static_cast<int>(arg >> 32);
      const std::uint32_t n = static_cast<std::uint32_t>(arg);
      Stream& dst = streams_[static_cast<std::size_t>(handle)];
      dst.in_flight -= n;
      if (!dst.live) {
        // Destination pair already torn down while the bytes were in
        // flight: they die, but not silently.
        drop_closed(n);
        return;
      }
      if (!dst.open || dst.reset) {
        // Bytes die at a closed door. Deliveries are FIFO, so they are
        // the first n in-flight bytes.
        const auto at =
            dst.buf.begin() + static_cast<std::ptrdiff_t>(dst.ready);
        dst.buf.erase(at, at + n);
        drop_closed(n);
        return;
      }
      dst.ready += n;
      stats_.bytes_delivered += n;
      request_notify(handle);
      // The sender's write-space is unchanged (delivered bytes count
      // against the window until read); a write-blocked peer wakes
      // when the reader drains (see read()).
      return;
    }
    case kTagNotify: {
      const int handle = static_cast<int>(static_cast<std::uint32_t>(arg));
      Watch* w = watch_of(handle);
      if (w == nullptr) return;
      w->notify_pending = false;
      if (w->loop == nullptr) return;
      const std::uint32_t mask = ready_mask(handle);
      if (mask == 0) return;
      // Moved out for the call: the callback may del_fd (and so
      // destroy) its own watch. It goes back only if the watch is still
      // this loop's and was not re-registered (a registration installs
      // a new callback) meanwhile.
      SimLoop* const loop = w->loop;
      net::IoLoop::FdCallback cb = std::move(w->cb);
      cb(mask);
      w = watch_of(handle);
      if (w != nullptr && w->loop == loop && !w->cb) w->cb = std::move(cb);
      return;
    }
    case kTagConnect: {
      const int listener = static_cast<int>(arg >> 32);
      const int sh = static_cast<int>(static_cast<std::uint32_t>(arg));
      Stream* const server = stream_of(sh);
      if (server == nullptr) return;
      const auto lit = listeners_.find(listener);
      if (lit == listeners_.end()) {
        // Listener closed while the SYN was in flight: refuse late.
        server->reset = true;
        if (Stream* const client = stream_of(server->peer)) {
          client->reset = true;
          request_notify(server->peer);
        }
        return;
      }
      lit->second.backlog.push_back(sh);
      request_notify(listener);
      return;
    }
    case kTagFin: {
      const int handle = static_cast<int>(static_cast<std::uint32_t>(arg));
      Stream* const s = stream_of(handle);
      if (s == nullptr) return;
      s->peer_closed = true;
      request_notify(handle);
      return;
    }
    default:
      FT_CHECK(false);
  }
}

std::unique_ptr<net::IoLoop> SimTransport::make_loop() {
  return std::make_unique<SimLoop>(*this);
}

// --- SimLoop ---

SimLoop::~SimLoop() {
  // Watches must not outlive the loop they dispatch into.
  for (const auto& [fd, _] : fds_) {
    if (SimTransport::Watch* w = tr_.watch_of(fd)) {
      if (w->loop == this) *w = SimTransport::Watch{};
    }
  }
}

void SimLoop::add_fd(int fd, std::uint32_t events, FdCallback cb) {
  SimTransport::Watch* w = tr_.watch_of(fd);
  FT_CHECK(w != nullptr);
  FT_CHECK(w->loop == nullptr);
  FT_CHECK(cb);  // an empty callback would read as "moved out"
  w->loop = this;
  w->cb = std::move(cb);
  w->interest = events;
  fds_.emplace(fd, true);
  tr_.request_notify(fd);
}

void SimLoop::mod_fd(int fd, std::uint32_t events) {
  SimTransport::Watch* w = tr_.watch_of(fd);
  FT_CHECK(w != nullptr && w->loop == this);
  w->interest = events;
  tr_.request_notify(fd);
}

void SimLoop::del_fd(int fd) {
  if (SimTransport::Watch* w = tr_.watch_of(fd)) {
    if (w->loop == this) *w = SimTransport::Watch{};
  }
  fds_.erase(fd);
}

net::IoLoop::TimerId SimLoop::add_timer(std::int64_t delay_us,
                                        TimerCallback cb) {
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, Timer{std::move(cb), 0});
  tr_.events().schedule(
      tr_.events().now() + std::max<std::int64_t>(delay_us, 0) *
                               kMicrosecond,
      this, kTagTimer, id);
  return id;
}

net::IoLoop::TimerId SimLoop::add_periodic(std::int64_t period_us,
                                           TimerCallback cb) {
  FT_CHECK(period_us > 0);
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, Timer{std::move(cb), period_us});
  tr_.events().schedule(tr_.events().now() + period_us * kMicrosecond,
                        this, kTagTimer, id);
  return id;
}

void SimLoop::cancel_timer(TimerId id) { timers_.erase(id); }

void SimLoop::on_event(std::uint32_t tag, std::uint64_t arg) {
  FT_CHECK(tag == kTagTimer);
  const auto it = timers_.find(arg);
  if (it == timers_.end()) return;  // cancelled; stale event
  if (it->second.period_us > 0) {
    // Re-arm first (fixed period from the previous deadline): the
    // callback may cancel_timer, which then kills the re-armed firing
    // through the map lookup above.
    tr_.events().schedule(
        tr_.events().now() + it->second.period_us * kMicrosecond, this,
        kTagTimer, arg);
    // Moved out for the call, not copied; it goes back unless the
    // callback cancelled the timer (ids are never reused).
    TimerCallback cb = std::move(it->second.cb);
    cb();
    const auto again = timers_.find(arg);
    if (again != timers_.end()) again->second.cb = std::move(cb);
    return;
  }
  const TimerCallback cb = std::move(it->second.cb);
  timers_.erase(it);
  cb();
}

int SimLoop::run_once(std::int64_t max_wait_us) {
  EventQueue& q = tr_.events();
  const std::uint64_t before = q.processed();
  if (max_wait_us < 0) {
    // "Wait without cap": advance to the next event, if any.
    q.step();
  } else {
    q.run_until(q.now() + max_wait_us * kMicrosecond);
  }
  return static_cast<int>(q.processed() - before);
}

void SimLoop::run() {
  stop_ = false;
  while (!stop_ && tr_.events().step()) {
  }
}

}  // namespace ft::sim
