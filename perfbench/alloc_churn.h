// Stage 1, allocator churn: core::Allocator (sequential backend) driven
// directly by an open-loop web workload. No net, sim or transport code
// runs; nearly all time is NED, F-NORM, threshold emission and the
// slot/flat-map churn of flowlet_start/flowlet_end.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"

namespace pb {

class AllocChurn {
 public:
  // Builds the fabric, the allocator and replays the steady-state flow
  // set into it (a warm restart's replay) -- the stage's cold set-up.
  explicit AllocChurn(const Options& opt);
  ~AllocChurn();
  AllocChurn(const AllocChurn&) = delete;
  AllocChurn& operator=(const AllocChurn&) = delete;

  // Runs the fixed round horizon once, from a fresh set-up after the
  // first time. The first pass checks the allocation and reports the
  // deterministic metrics; later ones must repeat it exactly.
  void pass(Report& rep);
  // Reports the wall-clock metrics over all passes so far.
  void finish(Report& rep) const;

 private:
  struct Pass;
  const Options opt_;
  std::unique_ptr<Pass> next_;  // the first pass, built by the constructor
  int passes_ = 0;
  std::vector<double> best_us_;  // per round: fastest over the passes
  std::vector<double> all_us_;   // every timed round
  double first_alloc_sum_ = 0.0;
  std::uint64_t first_updates_ = 0;
  std::uint64_t updates_ = 0;
  // Traced run: summed wall time and count of the churn calls.
  double start_ns_ = 0.0;
  double end_ns_ = 0.0;
  std::uint64_t starts_ = 0;
  std::uint64_t ends_ = 0;
};

}  // namespace pb
