#include "fig8.h"

#include <array>
#include <string>

#include "obs/metrics.h"
#include "transport/experiment.h"
#include "workload/traffic_gen.h"

namespace pb {
namespace {

using ft::Time;

constexpr Time kWarmup = 2 * ft::kMillisecond;
constexpr Time kWindow = 10 * ft::kMillisecond;
// Long enough that no flow started in the window is left unfinished.
constexpr Time kDrain = 100 * ft::kMillisecond;

}  // namespace

void run_fig8(const Options& opt, Report& rep) {
  ft::obs::MetricsRegistry reg;
  ft::transport::ExpConfig cfg;
  cfg.scheme = ft::transport::Scheme::kFlowtune;
  cfg.traffic.workload = ft::wl::Workload::kWeb;
  cfg.traffic.load = opt.load;
  cfg.traffic.seed = mix(opt.seed, 0xF18);
  cfg.warmup = kWarmup;
  cfg.duration = kWindow;
  cfg.drain = kDrain;
  cfg.allocator.allocator.metrics = &reg;

  const std::int64_t t0 = wall_ns();
  const ft::transport::ExpResult r = ft::transport::run_experiment(cfg);
  const double wall_s = static_cast<double>(wall_ns() - t0) / 1e9;

  rep.attempted += r.flows_started;
  rep.failed += r.flows_unfinished;
  rep.check(r.flows_unfinished == 0,
            "fig8_fct: " + std::to_string(r.flows_unfinished) +
                " flows of the window unfinished after the drain");

  // The measured flows are exactly the seed's arrivals inside the
  // window, regenerated here apart from the experiment.
  ft::wl::TrafficConfig tc = cfg.traffic;
  tc.num_hosts = cfg.topo.num_hosts();
  tc.host_link_bps = cfg.topo.host_link_bps;
  ft::wl::TrafficGenerator gen(tc);
  std::array<std::size_t, ft::wl::kNumSizeBuckets> want{};
  for (ft::wl::FlowletEvent ev = gen.next(); ev.start < kWarmup + kWindow;
       ev = gen.next()) {
    if (ev.start >= kWarmup) {
      ++want[static_cast<std::size_t>(ft::wl::size_bucket(ev.bytes))];
    }
  }
  for (std::size_t b = 0; b < want.size(); ++b) {
    const auto& got = r.buckets[b];
    const std::string name =
        ft::wl::size_bucket_name(static_cast<ft::wl::SizeBucket>(b));
    rep.check(got.count == want[b],
              "fig8_fct: bucket " + name + " measured " +
                  std::to_string(got.count) + " flows, the seed has " +
                  std::to_string(want[b]));
    // No flow beats its empty-network completion time.
    rep.check(got.count == 0 || got.p50_norm_fct >= 1.0,
              "fig8_fct: bucket " + name + " p50 normalized FCT " +
                  std::to_string(got.p50_norm_fct) + " < 1");
  }

  rep.add_e2e("fct_p99_1pkt", r.buckets[0].p99_norm_fct, "x");
  rep.add_e2e("fct_p99_1to10pkt", r.buckets[1].p99_norm_fct, "x");
  rep.add_e2e("goodput_gbps", r.goodput_gbps, "Gbit/s");

  // Round phases as the allocator's own registry records them (whole
  // microseconds per round, so a lower bound on its busy time).
  const double core_s =
      static_cast<double>(reg.histo("core.solve_us").snapshot().sum +
                          reg.histo("core.emit_us").snapshot().sum) /
      1e6;
  rep.add_layer("sim.wall_s", wall_s, "s");
  rep.add_layer("core.busy_s", core_s, "s");
  rep.add_layer("transport.busy_s", wall_s - core_s, "s");
  rep.add_layer("transport.control_up_gbps", r.to_allocator_gbps, "Gbit/s");
  rep.add_layer("transport.control_down_gbps", r.from_allocator_gbps,
                "Gbit/s");
  rep.add_layer("core.updates", static_cast<double>(r.allocator_updates),
                "count");
  rep.add_layer("sim.queue_p99_2hop_us", r.p99_queue_2hop_us, "us");
  rep.add_layer("sim.queue_p99_4hop_us", r.p99_queue_4hop_us, "us");
  rep.add_layer("sim.dropped_gbps", r.dropped_gbps, "Gbit/s");
}

}  // namespace pb
