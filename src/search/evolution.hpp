// Evolution-search-based layer-wise epitome design (paper Sec. 5.2,
// Algorithm 1).
//
// Genome: one candidate index per weighted layer (candidates from
// core/designer.hpp, including "keep the convolution"). Reward (Eq. 6-7):
//
//   reward = m / latency   or   m / energy,
//   m = 0 if #crossbars(E) > budget else 1,
//
// so any individual exceeding the crossbar budget scores below every
// feasible one. Each generation keeps the top `parents` individuals and
// fills the population with mutated children (random layers reassigned to
// random candidates), exactly the loop of Algorithm 1.
//
// Scoring is a table lookup. A layer's cost depends only on (layer,
// candidate, weight bits, act bits), and the precision is fixed for the
// whole search, so the constructor prices every (layer, candidate) pair once
// with PimEstimator::eval_layer. A genome's crossbars, latency and dynamic
// energy are its entries summed in layer order from zero, and its static
// energy is PimEstimator::static_energy_mj of those sums. That is the same
// operations on the same doubles in the same order as eval_network, so every
// reward -- and therefore the winner, reward_history and evaluations -- is
// bit-identical to scoring each genome with eval_network. Only the winner is
// built as a NetworkAssignment and priced with eval_network, once, at the
// end of run().
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/assignment.hpp"
#include "core/designer.hpp"
#include "pim/estimator.hpp"

namespace epim {

enum class SearchObjective { kLatency, kEnergy, kEdp };

const char* search_objective_name(SearchObjective objective);

struct EvoSearchConfig {
  int population = 40;
  int iterations = 30;
  int parents = 10;
  /// Per-layer probability of reassignment when mutating a parent.
  double mutation_rate = 0.15;
  SearchObjective objective = SearchObjective::kLatency;
  /// Crossbar budget of Eq. 7.
  std::int64_t crossbar_budget = 0;
  CandidateConfig candidates{};
  PrecisionConfig precision = PrecisionConfig::uniform(9, 9);
  std::uint64_t seed = 0xE7'05EA2Cu;
};

struct EvoSearchResult {
  NetworkAssignment best;
  double best_reward = 0.0;
  NetworkCost best_cost;
  /// Best feasible reward after each iteration (for convergence plots).
  std::vector<double> reward_history;
  std::int64_t evaluations = 0;
  /// Size of the search space (candidate count product, saturating).
  double search_space_size = 0.0;
};

class EvolutionSearch {
 public:
  EvolutionSearch(const Network& network, const PimEstimator& estimator,
                  EvoSearchConfig config);

  /// Candidate set of one layer (exposed for tests/benches).
  const std::vector<std::optional<EpitomeSpec>>& layer_candidates(
      std::int64_t layer) const;

  EvoSearchResult run();

 private:
  using Genome = std::vector<int>;

  /// One cost-table entry: the parts of a LayerCost that eval_network sums.
  struct LayerEntry {
    std::int64_t num_crossbars = 0;
    double latency_ms = 0.0;
    double dynamic_energy_mj = 0.0;
  };

  NetworkAssignment to_assignment(const Genome& genome) const;
  /// reward_of the genome's cost, summed from the cost table.
  double score(const Genome& genome) const;
  double reward_of(const NetworkCost& cost) const;
  Genome random_genome(Rng& rng) const;
  Genome mutate(const Genome& parent, Rng& rng) const;

  const Network* network_;
  const PimEstimator* estimator_;
  EvoSearchConfig config_;
  std::vector<std::vector<std::optional<EpitomeSpec>>> candidates_;
  /// costs_[layer][candidate], parallel to candidates_.
  std::vector<std::vector<LayerEntry>> costs_;
};

}  // namespace epim
