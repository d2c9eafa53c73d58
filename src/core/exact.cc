#include "core/exact.h"

#include <algorithm>
#include <cmath>

#include "core/ned.h"

namespace ft::core {
namespace {

// Marks the links at least one active flow traverses. A flow-free link
// carries no dual pressure: its optimal price is 0, so it is left out
// of the slackness checks (NED leaves its price wherever it was).
std::vector<std::uint8_t> carried_links(const NumProblem& problem) {
  std::vector<std::uint8_t> carried(problem.num_links(), 0);
  for (std::size_t s = 0; s < problem.num_slots(); ++s) {
    const FlowView f = problem.flow(static_cast<FlowIndex>(s));
    if (!f.active()) continue;
    for (std::uint32_t l : f.route()) carried[l] = 1;
  }
  return carried;
}

}  // namespace

double kkt_residual(const NumProblem& problem,
                    std::span<const double> rates,
                    std::span<const double> prices) {
  double worst = 0.0;
  // Per-link primal feasibility and complementary slackness, over the
  // links that carry a flow.
  const std::vector<std::uint8_t> carried = carried_links(problem);
  std::vector<double> alloc(problem.num_links(), 0.0);
  for (std::size_t s = 0; s < problem.num_slots(); ++s) {
    const FlowView f = problem.flow(static_cast<FlowIndex>(s));
    if (!f.active()) continue;
    for (std::uint32_t l : f.route()) alloc[l] += rates[s];
  }
  for (std::size_t l = 0; l < alloc.size(); ++l) {
    if (!carried[l]) continue;
    const double c = problem.capacity(l);
    worst = std::max(worst, (alloc[l] - c) / c);
    const double cs = prices[l] * std::abs(alloc[l] - c) /
                      (c * std::max(1.0, prices[l]));
    worst = std::max(worst, cs);
  }
  // Stationarity: rates consistent with the demand function.
  for (std::size_t s = 0; s < problem.num_slots(); ++s) {
    const FlowView f = problem.flow(static_cast<FlowIndex>(s));
    if (!f.active()) continue;
    double p_sum = 0.0;
    for (std::uint32_t l : f.route()) p_sum += prices[l];
    const double demand = f.demand(p_sum);
    if (demand > 0.0) {
      worst = std::max(worst, std::abs(rates[s] - demand) / demand);
    }
  }
  return worst;
}

double objective_value(const NumProblem& problem,
                       std::span<const double> rates) {
  double total = 0.0;
  for (std::size_t s = 0; s < problem.num_slots(); ++s) {
    const FlowView f = problem.flow(static_cast<FlowIndex>(s));
    if (!f.active()) continue;
    total += f.util().value(std::max(rates[s], 1.0));
  }
  return total;
}

ExactResult solve_exact(NumProblem& problem, ExactOptions opt) {
  NedSolver ned(problem, opt.gamma);
  ExactResult res;
  if (problem.num_active() == 0) {
    res.converged = true;
    res.prices.assign(problem.num_links(), 0.0);  // every link is idle
    res.rates.assign(problem.num_slots(), 0.0);
    return res;
  }

  const std::vector<std::uint8_t> carried = carried_links(problem);
  double prev_obj = -1e300;
  int stable = 0;
  // Step damping: NED's diagonal approximation can limit-cycle at large
  // gamma on strongly coupled topologies; halving gamma whenever a
  // convergence-check budget expires guarantees eventual convergence
  // (gradient-like behaviour in the limit) without slowing the common
  // fast path.
  const int damp_every = std::max(64, opt.max_iters / 16);
  for (int it = 1; it <= opt.max_iters; ++it) {
    if (it % damp_every == 0) {
      ned.set_gamma(std::max(0.05, ned.gamma() * 0.5));
    }
    ned.iterate();
    res.iterations = it;
    // Cheap convergence probe every few iterations.
    if (it % 8 != 0) continue;

    bool feasible = true;
    bool slack_ok = true;
    for (std::size_t l = 0; l < problem.num_links(); ++l) {
      if (!carried[l]) continue;
      const double c = problem.capacity(l);
      const double g = ned.link_alloc()[l] - c;
      if (g > opt.feas_tol * c) feasible = false;
      if (ned.prices()[l] * std::abs(g) >
          opt.cs_tol * c * std::max(1.0, ned.prices()[l])) {
        slack_ok = false;
      }
    }
    const double obj = objective_value(problem, ned.rates());
    const bool obj_stable =
        std::abs(obj - prev_obj) <=
        1e-9 * std::max(1.0, std::abs(obj));
    prev_obj = obj;
    if (feasible && slack_ok && obj_stable) {
      if (++stable >= 2) {
        res.converged = true;
        break;
      }
    } else {
      stable = 0;
    }
  }
  res.rates.assign(ned.rates().begin(), ned.rates().end());
  res.prices.assign(ned.prices().begin(), ned.prices().end());
  for (std::size_t l = 0; l < res.prices.size(); ++l) {
    if (!carried[l]) res.prices[l] = 0.0;
  }
  res.kkt_residual = kkt_residual(problem, res.rates, res.prices);
  res.objective = objective_value(problem, res.rates);
  for (std::size_t s = 0; s < problem.num_slots(); ++s) {
    if (problem.flow(static_cast<FlowIndex>(s)).active()) {
      res.total_rate += res.rates[s];
    }
  }
  return res;
}

}  // namespace ft::core
