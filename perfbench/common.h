// Shared plumbing for the perfbench stages: clocks, quantiles, seed
// mixing, the fabric and lifetimes the stages share, and the run report
// every stage writes its metrics and checks into.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "topo/clos.h"

namespace pb {

// CLOCK_MONOTONIC nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread in nanoseconds. The kernel leaves
// hypervisor steal out of it (paravirt time accounting), so it is the
// thread's wall time on a core of its own; a syscall, ~0.3 us per call.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of the whole process since it started (exec, loading and
// static initialisation included), in nanoseconds; steal is left out as
// for cpu_ns().
inline std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Linearly interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> v, double q);

// splitmix64 finalizer: independent per-stage seeds from the run seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// The stages' Clos fabric for `hosts` hosts: 16 servers per rack and 4
// spines (16 x 10G down vs 4 x 40G up, full bisection).
ft::topo::ClosConfig clos_fabric(std::int64_t hosts);

// Every link's capacity, in link-id order: the allocator's input.
std::vector<double> link_capacities(const ft::topo::ClosTopology& topo);

// Picoseconds per byte of a flowlet's lifetime: its mean processor-sharing
// sojourn on a host link of `host_link_bps` at offered `load` is
// bytes * ps_per_byte(...).
double ps_per_byte(double load, double host_link_bps);

// Peak resident set size of this process, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: operation counts, correctness and both metric
// sets (end-to-end from the untraced run, per-layer from the traced one).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  // Records a correctness check; a failing one is printed to stderr and
  // clears `correct`.
  void check(bool ok, const std::string& what);
  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// Per-run settings shared by every stage.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double load = 0.6;  // offered load of the web workload, all stages
};

}  // namespace pb
