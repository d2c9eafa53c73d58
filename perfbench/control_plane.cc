#include "control_plane.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/allocator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "sim/event_queue.h"
#include "sim/sim_transport.h"
#include "topo/clos.h"
#include "workload/traffic_gen.h"

namespace pb {
namespace {

using ft::Time;

constexpr int kAgents = 2'000;
constexpr std::int64_t kRoundUs = 100;  // ServerConfig's default period
constexpr std::int64_t kPollUs = 100;
// Agents dial at t = 0; flowlets arrive over [kChurnStart, kChurnEnd).
constexpr Time kChurnStart = 1 * ft::kMillisecond;
constexpr Time kChurnEnd = kChurnStart + 10 * ft::kMillisecond;
// Wall time is taken per slice of virtual time, for the per-slice
// minimum over passes: one round period, so a slice is ~10 ms of wall
// time and the minimum can pick the quiet moments of a contended pass.
constexpr Time kSlice = kRoundUs * ft::kMicrosecond;
// Drain: the plane is quiet once this many rounds emit no update.
constexpr int kQuietRounds = 3;
constexpr int kMaxDrainRounds = 2'000;
// A flowlet still live this long after its start without a rate is a
// failed operation (five rounds).
constexpr Time kRateDeadline = 5 * kRoundUs * ft::kMicrosecond;

// Wall time per layer in the traced run. Transport calls are leaves;
// every enclosing span subtracts the transport time nested inside it, so
// each figure is self time. total_ns is the wall time of the whole run,
// on the same clock, so the rest is event dispatch.
struct LayerTimes {
  std::int64_t total_ns = 0;
  std::int64_t transport_ns = 0;
  std::int64_t agent_ns = 0;
  std::int64_t service_io_ns = 0;
  std::int64_t service_round_ns = 0;
  std::int64_t nested_ns = 0;  // transport time since the run began

  template <class F>
  void span(std::int64_t& self_ns, F&& f) {
    const std::int64_t nested0 = nested_ns;
    const std::int64_t t0 = wall_ns();
    f();
    self_ns += wall_ns() - t0 - (nested_ns - nested0);
  }
};

// Timing decorator over the net::Transport seam: forwards every call to
// the sim transport and charges its wall time to sim.transport.
class TimedTransport final : public ft::net::Transport {
 public:
  TimedTransport(ft::net::Transport& inner, LayerTimes& t)
      : in_(inner), t_(t) {}

  // Declared before the overrides so its return type is deduced first.
  template <class F>
  auto timed(F&& f) {
    const std::int64_t t0 = wall_ns();
    auto r = f();
    const std::int64_t dt = wall_ns() - t0;
    t_.transport_ns += dt;
    t_.nested_ns += dt;
    return r;
  }

  ft::Clock& clock() override { return in_.clock(); }
  int connect_tcp(const std::string& host, int port) override {
    return timed([&] { return in_.connect_tcp(host, port); });
  }
  int connect_unix(const std::string& path) override {
    return timed([&] { return in_.connect_unix(path); });
  }
  int listen_tcp(int port, bool any, int* bound) override {
    return timed([&] { return in_.listen_tcp(port, any, bound); });
  }
  int listen_unix(const std::string& path) override {
    return timed([&] { return in_.listen_unix(path); });
  }
  int accept(int h) override {
    return timed([&] { return in_.accept(h); });
  }
  std::int64_t read(int h, void* buf, std::size_t len) override {
    return timed([&] { return in_.read(h, buf, len); });
  }
  std::int64_t write(int h, const void* buf, std::size_t len) override {
    return timed([&] { return in_.write(h, buf, len); });
  }
  void close(int h) override {
    timed([&] {
      in_.close(h);
      return 0;
    });
  }
  void set_nodelay(int h) override { in_.set_nodelay(h); }
  void set_sndbuf(int h, int bytes) override { in_.set_sndbuf(h, bytes); }
  void unlink_path(const std::string& path) override {
    in_.unlink_path(path);
  }
  std::unique_ptr<ft::net::IoLoop> make_loop() override {
    return in_.make_loop();
  }
  bool supports_threads() const override { return in_.supports_threads(); }

 private:
  ft::net::Transport& in_;
  LayerTimes& t_;
};

// Timing decorator over the net::IoLoop seam the service runs on: fd
// readiness callbacks are service I/O, periodic timers the allocation
// rounds, one-shot timers (accept retries) service I/O again.
class TimedLoop final : public ft::net::IoLoop {
 public:
  TimedLoop(ft::net::IoLoop& inner, LayerTimes& t) : in_(inner), t_(t) {}

  void add_fd(int fd, std::uint32_t events, FdCallback cb) override {
    in_.add_fd(fd, events, [this, cb = std::move(cb)](std::uint32_t ev) {
      t_.span(t_.service_io_ns, [&] { cb(ev); });
    });
  }
  void mod_fd(int fd, std::uint32_t events) override {
    in_.mod_fd(fd, events);
  }
  void del_fd(int fd) override { in_.del_fd(fd); }
  bool watching(int fd) const override { return in_.watching(fd); }
  TimerId add_timer(std::int64_t delay_us, TimerCallback cb) override {
    return in_.add_timer(delay_us, [this, cb = std::move(cb)] {
      t_.span(t_.service_io_ns, cb);
    });
  }
  TimerId add_periodic(std::int64_t period_us, TimerCallback cb) override {
    return in_.add_periodic(period_us, [this, cb = std::move(cb)] {
      t_.span(t_.service_round_ns, cb);
    });
  }
  void cancel_timer(TimerId id) override { in_.cancel_timer(id); }
  using ft::net::IoLoop::run_once;
  int run_once(std::int64_t max_wait_us) override {
    return in_.run_once(max_wait_us);
  }
  void run() override { in_.run(); }
  void stop() override { in_.stop(); }
  void bind_metrics(ft::obs::MetricsRegistry& reg,
                    std::string_view prefix) override {
    in_.bind_metrics(reg, prefix);
  }

 private:
  ft::net::IoLoop& in_;
  LayerTimes& t_;
};

}  // namespace

// One plane and one run of the horizon over it. The plane also plays
// the workload: an EventHandler on the plane's event queue that releases
// flowlet arrivals and departures and sweeps the agents' polls.
struct ControlPlane::Plane final : ft::sim::EventHandler {
  enum Tag : std::uint32_t { kArrival, kEnd, kPoll };

  const bool trace;
  LayerTimes lt;
  ft::sim::EventQueue events;
  ft::sim::SimTransport sim_tr;
  ft::sim::SimLoop sim_loop;
  TimedTransport timed_tr;
  TimedLoop timed_loop;
  // What the service and agents run on: the decorators when tracing.
  ft::net::Transport& tr;
  ft::net::IoLoop& loop;
  ft::topo::ClosTopology topo;
  ft::core::Allocator alloc;
  std::unique_ptr<ft::net::AllocatorService> svc;
  std::vector<std::unique_ptr<ft::net::EndpointAgent>> agents;

  ft::wl::TrafficGenerator gen;
  ft::wl::FlowletEvent next{};
  double ps_per_byte;
  std::uint32_t next_key = 1;
  // Virtual start of every live flowlet that has no rate yet.
  std::unordered_map<std::uint32_t, Time> awaiting;
  std::vector<double> first_rate_us;  // start -> first rate, virtual us
  std::uint64_t late = 0;             // see kRateDeadline
  // Order-sensitive FNV-1a over every (virtual time, key, rate code)
  // the agents applied: two runs of one seed must match.
  std::uint64_t rate_hash = 1469598103934665603ULL;
  std::vector<double> slice_s;  // thread CPU seconds per virtual slice
  bool quiesced = false;

  explicit Plane(const Options& opt)
      : trace(opt.trace),
        sim_tr(events, mix(opt.seed, 0x51)),
        sim_loop(sim_tr),
        timed_tr(sim_tr, lt),
        timed_loop(sim_loop, lt),
        tr(trace ? static_cast<ft::net::Transport&>(timed_tr) : sim_tr),
        loop(trace ? static_cast<ft::net::IoLoop&>(timed_loop) : sim_loop),
        topo(clos_fabric(kAgents)),
        alloc(link_capacities(topo), ft::core::AllocatorConfig{}),
        gen([&] {
          ft::wl::TrafficConfig tc;
          tc.num_hosts = kAgents;
          tc.host_link_bps = topo.config().host_link_bps;
          tc.load = opt.load;
          tc.workload = ft::wl::Workload::kWeb;
          tc.seed = mix(opt.seed, 0xC0);
          return tc;
        }()),
        // Lifetimes as in alloc_churn: the mean processor-sharing
        // sojourn on a 10G host link at the offered load.
        ps_per_byte(pb::ps_per_byte(opt.load,
                                    topo.config().host_link_bps)) {
    ft::net::ServerConfig sc;
    sc.transport = &tr;
    sc.tcp_port = 0;
    sc.iteration_period_us = kRoundUs;
    sc.num_shards = 0;  // the sim transport is single-threaded
    sc.epoch = 1;
    svc = std::make_unique<ft::net::AllocatorService>(loop, alloc, topo, sc);
    agents.reserve(kAgents);
    for (int i = 0; i < kAgents; ++i) {
      ft::net::AgentConfig ac;
      ac.transport = &tr;
      ac.reconnect_seed = mix(opt.seed, static_cast<std::uint64_t>(i));
      agents.push_back(std::make_unique<ft::net::EndpointAgent>(ac));
      agents.back()->set_rate_callback(
          [this](std::uint32_t key, double, std::uint16_t code) {
            on_rate(key, code);
          });
      FT_CHECK(agents.back()->connect_tcp("sim", svc->tcp_port()));
    }
    next = gen.next();
    events.schedule(kChurnStart + next.start, this, kArrival);
    // Polls run half a period after each round, so a round's updates
    // are read before the next round: the drain can stop at a moment
    // where agents and allocator agree.
    events.schedule(kPollUs / 2 * ft::kMicrosecond, this, kPoll);
  }

  void on_rate(std::uint32_t key, std::uint16_t code) {
    const Time now = events.now();
    if (const auto it = awaiting.find(key); it != awaiting.end()) {
      if (now - it->second > kRateDeadline) ++late;
      first_rate_us.push_back(ft::to_us(now - it->second));
      awaiting.erase(it);
    }
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(now), std::uint64_t{key},
          std::uint64_t{code}}) {
      rate_hash ^= v;
      rate_hash *= 1099511628211ULL;
    }
  }

  template <class F>
  void agent_call(F&& f) {
    if (trace) {
      lt.span(lt.agent_ns, f);
    } else {
      f();
    }
  }

  void on_event(std::uint32_t tag, std::uint64_t arg) override {
    const Time now = events.now();
    if (tag == kArrival) {
      const std::uint32_t key = next_key++;
      const auto src = static_cast<std::uint16_t>(next.src_host);
      const auto dst = static_cast<std::uint16_t>(next.dst_host);
      const auto hint = static_cast<std::uint32_t>(
          std::min<std::int64_t>(next.bytes, UINT32_MAX));
      bool ok = false;
      agent_call([&] { ok = agents[src]->flowlet_start(key, src, dst, hint); });
      FT_CHECK(ok);
      awaiting.emplace(key, now);
      const Time end =
          now + std::max<Time>(1, static_cast<Time>(
                                      static_cast<double>(next.bytes) *
                                      ps_per_byte));
      if (end < kChurnEnd) {
        events.schedule(end, this, kEnd,
                        std::uint64_t{key} | std::uint64_t{src} << 32);
      }
      next = gen.next();
      if (kChurnStart + next.start < kChurnEnd) {
        events.schedule(kChurnStart + next.start, this, kArrival);
      }
    } else if (tag == kEnd) {
      const auto key = static_cast<std::uint32_t>(arg);
      agent_call([&] { (void)agents[arg >> 32]->flowlet_end(key); });
      if (const auto it = awaiting.find(key); it != awaiting.end()) {
        if (now - it->second > kRateDeadline) ++late;
        awaiting.erase(it);
      }
    } else {
      agent_call([&] {
        for (auto& a : agents) (void)a->poll();
      });
      events.schedule(now + kPollUs * ft::kMicrosecond, this, kPoll);
    }
  }

  // Runs one slice of the run: thread CPU time into slice_s for
  // plane_wall_s, wall time into the traced layer total.
  template <class F>
  void slice(F&& f) {
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    f();
    slice_s.push_back(static_cast<double>(cpu_ns() - c0) / 1e9);
    lt.total_ns += wall_ns() - w0;
  }

  // The fixed horizon in slices, then the drain, one slice per round:
  // round by round until kQuietRounds in a row emit no update, stopping
  // after the poll that follows the last round and before the next one.
  // Flowlets still waiting for a rate past the deadline count as late.
  void run() {
    for (Time t = kSlice; t <= kChurnEnd; t += kSlice) {
      slice([&] { events.run_until(t); });
    }
    std::uint64_t last = alloc.stats().updates_emitted;
    int quiet = 0;
    const Time period = kRoundUs * ft::kMicrosecond;
    const Time after_poll = (kPollUs / 2 + 10) * ft::kMicrosecond;
    for (int r = 1; r <= kMaxDrainRounds && quiet < kQuietRounds; ++r) {
      slice([&] {
        events.run_until(kChurnEnd + (r - 1) * period + after_poll);
      });
      const std::uint64_t now = alloc.stats().updates_emitted;
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
    quiesced = quiet >= kQuietRounds;
    for (const auto& [key, start] : awaiting) {
      if (events.now() - start > kRateDeadline) ++late;
    }
  }

  [[nodiscard]] std::uint64_t registered() const { return next_key - 1; }

  // After the drain: every live flowlet's last received rate is the
  // allocator's notified rate, the allocator's flow set is the union of
  // the agents' live flowlets, and every byte written was read or sits
  // in a named drop counter.
  void check_drained(Report& rep) const {
    rep.check(quiesced, "control_plane: rate updates still flowing after " +
                            std::to_string(kMaxDrainRounds) +
                            " drain rounds");
    std::vector<ft::net::EndpointAgent::FlowView> flows;
    std::size_t live = 0;
    std::size_t wrong_rate = 0;
    std::size_t unknown = 0;
    std::int64_t agent_out = 0;
    std::int64_t agent_in = 0;
    for (const auto& a : agents) {
      flows.clear();
      a->snapshot_flows(flows);
      live += flows.size();
      for (const auto& f : flows) {
        if (!alloc.is_active(f.key)) ++unknown;
        if (f.rate_bps != alloc.notified_rate(f.key)) ++wrong_rate;
      }
      agent_out += a->stats().bytes_out;
      agent_in += a->stats().bytes_in;
    }
    rep.check(wrong_rate == 0,
              "control_plane: " + std::to_string(wrong_rate) +
                  " live flowlets hold a rate other than the allocator's");
    rep.check(unknown == 0 && live == alloc.num_active_flowlets(),
              "control_plane: allocator has " +
                  std::to_string(alloc.num_active_flowlets()) +
                  " flowlets, agents " + std::to_string(live) + " (" +
                  std::to_string(unknown) + " unknown to the allocator)");
    const ft::sim::SimTransportStats& ts = sim_tr.stats();
    const ft::net::ServiceStats ss = svc->stats();
    const std::int64_t up_drops = ts.bytes_blackholed +
                                  ts.bytes_partitioned_up +
                                  ts.bytes_dropped_closed;
    const std::int64_t down_drops =
        ts.bytes_partitioned_down + ts.bytes_dropped_sieve;
    rep.check(up_drops == 0 && down_drops == 0 && ts.frames_dropped == 0,
              "control_plane: transport dropped bytes");
    rep.check(agent_out == ss.bytes_in + up_drops,
              "control_plane: agents wrote " + std::to_string(agent_out) +
                  " B, service read " + std::to_string(ss.bytes_in) + " B");
    rep.check(ss.bytes_out == agent_in + down_drops,
              "control_plane: service wrote " + std::to_string(ss.bytes_out) +
                  " B, agents read " + std::to_string(agent_in) + " B");
    rep.check(ts.bytes_accepted == ts.bytes_delivered + up_drops +
                                       down_drops + sim_tr.stranded_bytes(),
              "control_plane: transport byte fates do not add up");
  }

  [[nodiscard]] double control_bytes_per_flowlet() const {
    std::int64_t wire = svc->stats().wire_bytes_out;
    for (const auto& a : agents) wire += a->stats().wire_bytes_out;
    return static_cast<double>(wire) / static_cast<double>(registered());
  }

  void report_layers(Report& rep) const {
    const double vsec = ft::to_sec(events.now());
    const auto per_vsec = [&](std::int64_t ns) {
      return static_cast<double>(ns) / 1e3 / vsec;
    };
    rep.add_layer("net.agent_us", per_vsec(lt.agent_ns), "us/vs");
    rep.add_layer("net.service_io_us", per_vsec(lt.service_io_ns), "us/vs");
    rep.add_layer("net.service_round_us", per_vsec(lt.service_round_ns),
                  "us/vs");
    rep.add_layer("sim.transport_us", per_vsec(lt.transport_ns), "us/vs");
    rep.add_layer("sim.dispatch_us",
                  per_vsec(lt.total_ns - lt.agent_ns - lt.service_io_ns -
                           lt.service_round_ns - lt.transport_ns),
                  "us/vs");
    const ft::net::ServiceStats ss = svc->stats();
    std::int64_t bytes_up = 0;
    std::uint64_t frames_up = 0;
    std::uint64_t refreshes = 0;
    for (const auto& a : agents) {
      bytes_up += a->stats().bytes_out;
      frames_up += a->stats().frames_out;
      refreshes += a->stats().registration_refreshes;
    }
    rep.add_layer("net.bytes_up", static_cast<double>(bytes_up), "B");
    rep.add_layer("net.bytes_down", static_cast<double>(ss.bytes_out), "B");
    rep.add_layer("net.frames_up", static_cast<double>(frames_up), "count");
    rep.add_layer("net.frames_down", static_cast<double>(ss.frames_out),
                  "count");
    rep.add_layer("net.updates_sent", static_cast<double>(ss.updates_sent),
                  "count");
    rep.add_layer("net.updates_coalesced",
                  static_cast<double>(ss.updates_coalesced), "count");
    rep.add_layer("net.registration_refreshes",
                  static_cast<double>(refreshes), "count");
    rep.add_layer("sim.events", static_cast<double>(events.processed()),
                  "count");
    rep.add_layer("core.rounds", static_cast<double>(ss.iterations),
                  "count");
  }
};

ControlPlane::ControlPlane(const Options& opt)
    : opt_(opt), next_(std::make_unique<Plane>(opt)) {}

ControlPlane::~ControlPlane() = default;

void ControlPlane::pass(Report& rep) {
  std::unique_ptr<Plane> p = next_ ? std::move(next_)
                                   : std::make_unique<Plane>(opt_);
  p->run();
  ++passes_;
  rep.attempted += p->registered();
  rep.failed += p->late;
  if (passes_ > 1) {
    // Each further run of the same seed, on a fresh plane, must apply
    // the identical rate sequence.
    rep.check(p->rate_hash == rate_hash_ && p->slice_s.size() == best_.size(),
              "control_plane: run " + std::to_string(passes_) +
                  " applied a different rate sequence than run 1");
    for (std::size_t i = 0; i < best_.size() && i < p->slice_s.size(); ++i) {
      best_[i] = std::min(best_[i], p->slice_s[i]);
    }
    return;
  }
  rate_hash_ = p->rate_hash;
  best_ = p->slice_s;
  p->check_drained(rep);
  if (opt_.trace) p->report_layers(rep);
  rep.add_e2e("first_rate_p50_us", quantile(p->first_rate_us, 0.5), "us");
  rep.add_e2e("first_rate_p99_us", quantile(p->first_rate_us, 0.99), "us");
  rep.add_e2e("control_bytes_per_flowlet", p->control_bytes_per_flowlet(),
              "B");
}

void ControlPlane::finish(Report& rep) const {
  // Each virtual slice's fastest run, in thread CPU time: the per-slice
  // twin of alloc_churn's per-round minimum.
  double wall = 0.0;
  for (const double s : best_) wall += s;
  rep.add_e2e("plane_wall_s", wall, "s");
}

}  // namespace pb
