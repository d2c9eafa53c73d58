#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/time.h"

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ft::topo::ClosConfig clos_fabric(std::int64_t hosts) {
  ft::topo::ClosConfig c;
  c.servers_per_rack = 16;
  c.spines = 4;
  c.racks = static_cast<std::int32_t>((hosts + c.servers_per_rack - 1) /
                                      c.servers_per_rack);
  return c;
}

std::vector<double> link_capacities(const ft::topo::ClosTopology& topo) {
  std::vector<double> caps;
  for (const auto& l : topo.graph().links()) caps.push_back(l.capacity_bps);
  return caps;
}

double ps_per_byte(double load, double host_link_bps) {
  return 8.0 * static_cast<double>(ft::kSecond) /
         ((1.0 - load) * host_link_bps);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

}  // namespace pb
