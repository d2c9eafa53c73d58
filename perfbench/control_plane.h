// Stage 2, control plane: the real inline net::AllocatorService and
// thousands of real net::EndpointAgents over sim::SimTransport on
// virtual time. Flowlets start and end through the agents' batching
// path over a fixed virtual horizon; churn then stops and the plane
// drains. Time goes to net (framing, parsing, batching, fan-out) and the
// sim transport; the allocator is a small share.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"

namespace pb {

class ControlPlane {
 public:
  // Builds the first plane (topology, allocator, service, connected
  // agents) -- the stage's cold set-up.
  explicit ControlPlane(const Options& opt);
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Runs the horizon once, on a fresh plane after the first time. The
  // first run checks the drained plane and reports the deterministic
  // metrics; later ones must apply the identical rate sequence.
  void pass(Report& rep);
  // Reports plane_wall_s over all runs so far.
  void finish(Report& rep) const;

 private:
  struct Plane;
  const Options opt_;
  std::unique_ptr<Plane> next_;  // the first plane, built by the constructor
  int passes_ = 0;
  std::uint64_t rate_hash_ = 0;
  std::vector<double> best_;  // per virtual slice: fastest wall seconds
};

}  // namespace pb
