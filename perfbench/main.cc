// perfbench: one run of the Flowtune end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every run executes three stages -- allocator churn, the virtual-time
// control plane and the Fig 8 packet simulation -- on the workload's
// offered load, with inputs derived from --seed. The last line
// of stdout is the result: {"correct", "attempted", "failed", "metrics"},
// the metrics being the end-to-end set, or with --trace 1 the per-layer
// set of a separately timed, instrumented run. Progress and failed
// checks go to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_churn.h"
#include "common.h"
#include "control_plane.h"
#include "fig8.h"

namespace {

struct Workload {
  const char* name;
  double load;
};

// The web workload at two offered loads of Fig 8. At 60% (the paper's
// §6.2 point) flowlets are short and churn dominates the allocator; at
// 80% each flowlet lives twice as long, links carry more flows, queues
// run deeper and the plane carries a third more flowlets.
constexpr Workload kWorkloads[] = {
    {"load60", 0.6},
    {"load80", 0.8},
};

// Passes of the timed stages each run makes at least, however short
// --seconds is.
constexpr int kMinPasses = 3;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <load60|load80> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

void print_result(const pb::Report& rep, bool trace) {
  const std::vector<pb::Metric>& ms = trace ? rep.layer : rep.e2e;
  std::string out = std::string("{\"correct\": ") +
                    (rep.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = pb::wall_ns();
  const char* workload = nullptr;
  const char* seed = nullptr;
  const char* seconds = nullptr;
  const char* trace = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* v = argv[i + 1];
    if (std::strcmp(argv[i], "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = v;
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = v;
    } else {
      usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (!workload || !seed || !seconds || !trace) usage("missing flag");

  pb::Options opt;
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, workload) == 0) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload");
  opt.load = wl->load;
  char* end = nullptr;
  opt.seed = std::strtoull(seed, &end, 10);
  if (*end != '\0') usage("--seed takes an unsigned integer");
  opt.seconds = std::strtod(seconds, &end);
  if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds must be > 0");
  if (std::strcmp(trace, "0") != 0 && std::strcmp(trace, "1") != 0) {
    usage("--trace takes 0 or 1");
  }
  opt.trace = trace[0] == '1';

  pb::Report rep;
  // Cold set-up, from the process's start (exec and loading included):
  // the allocator with its replayed steady-state flow set, and the first
  // control plane. Process CPU time, so hypervisor steal stays out.
  pb::AllocChurn churn(opt);
  pb::ControlPlane plane(opt);
  const double setup_s = static_cast<double>(pb::process_cpu_ns()) / 1e9;

  const auto since_main = [&] {
    return static_cast<double>(pb::wall_ns() - main_ns) / 1e9;
  };
  // First pass of each timed stage (with its checks), the Fig 8
  // simulation, then more passes of the timed stages, alternating, until
  // --seconds: spreading the passes over the run lets the per-round and
  // per-slice minima catch the machine's quiet periods.
  churn.pass(rep);
  plane.pass(rep);
  pb::run_fig8(opt, rep);
  int passes = 1;
  double pair_s = 0.0;
  while (passes < kMinPasses || since_main() + pair_s <= opt.seconds) {
    const double t = since_main();
    churn.pass(rep);
    plane.pass(rep);
    pair_s = since_main() - t;
    ++passes;
  }
  churn.finish(rep);
  plane.finish(rep);
  std::fprintf(stderr, "perfbench: %d passes, done at %.1f s\n", passes,
               since_main());

  rep.add_e2e("setup_s", setup_s, "s");
  rep.add_e2e("peak_rss_mb", pb::peak_rss_mb(), "MB");
  for (const auto* set : {&rep.e2e, &rep.layer}) {
    for (const pb::Metric& m : *set) {
      rep.check(std::isfinite(m.value), m.name + " is not finite");
      std::fprintf(stderr, "  %-28s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  print_result(rep, opt.trace);
  return rep.correct ? 0 : 1;
}
