#include "search/evolution.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace epim {

const char* search_objective_name(SearchObjective objective) {
  switch (objective) {
    case SearchObjective::kLatency:
      return "latency";
    case SearchObjective::kEnergy:
      return "energy";
    case SearchObjective::kEdp:
      return "edp";
  }
  return "?";
}

EvolutionSearch::EvolutionSearch(const Network& network,
                                 const PimEstimator& estimator,
                                 EvoSearchConfig config)
    : network_(&network), estimator_(&estimator), config_(std::move(config)) {
  EPIM_CHECK(config_.population >= 2, "population must be at least 2");
  EPIM_CHECK(config_.parents >= 1 && config_.parents < config_.population,
             "parents must be in [1, population)");
  EPIM_CHECK(config_.iterations >= 1, "iterations must be positive");
  EPIM_CHECK(config_.crossbar_budget > 0, "crossbar budget must be positive");
  EPIM_CHECK(config_.mutation_rate >= 0.0 && config_.mutation_rate <= 1.0,
             "mutation_rate must be in [0, 1]");
  const auto& layers = network.weighted_layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    candidates_.push_back(candidate_specs(layers[i].conv, config_.candidates));
    EPIM_ASSERT(!candidates_.back().empty(),
                "every layer needs at least one candidate");
    const int wb =
        config_.precision.layer_weight_bits(static_cast<std::int64_t>(i));
    std::vector<LayerEntry>& row = costs_.emplace_back();
    row.reserve(candidates_.back().size());
    for (const auto& choice : candidates_.back()) {
      const LayerCost cost = estimator.eval_layer(layers[i], choice, wb,
                                                  config_.precision.act_bits);
      row.push_back({cost.mapping.num_crossbars, cost.latency_ms,
                     cost.dynamic_energy_mj});
    }
  }
}

const std::vector<std::optional<EpitomeSpec>>&
EvolutionSearch::layer_candidates(std::int64_t layer) const {
  EPIM_CHECK(layer >= 0 &&
                 layer < static_cast<std::int64_t>(candidates_.size()),
             "layer index out of range");
  return candidates_[static_cast<std::size_t>(layer)];
}

NetworkAssignment EvolutionSearch::to_assignment(const Genome& genome) const {
  std::vector<std::optional<EpitomeSpec>> choices;
  choices.reserve(genome.size());
  for (std::size_t i = 0; i < genome.size(); ++i) {
    choices.push_back(
        candidates_[i][static_cast<std::size_t>(genome[i])]);
  }
  return NetworkAssignment(*network_, std::move(choices));
}

double EvolutionSearch::score(const Genome& genome) const {
  NetworkCost cost;
  for (std::size_t i = 0; i < genome.size(); ++i) {
    const LayerEntry& e = costs_[i][static_cast<std::size_t>(genome[i])];
    cost.num_crossbars += e.num_crossbars;
    cost.latency_ms += e.latency_ms;
    cost.dynamic_energy_mj += e.dynamic_energy_mj;
  }
  cost.static_energy_mj =
      estimator_->static_energy_mj(cost.num_crossbars, cost.latency_ms);
  return reward_of(cost);
}

double EvolutionSearch::reward_of(const NetworkCost& cost) const {
  // Eq. 7: individuals over the crossbar budget are worth nothing.
  if (cost.num_crossbars > config_.crossbar_budget) return 0.0;
  switch (config_.objective) {  // Eq. 6
    case SearchObjective::kLatency:
      return 1.0 / cost.latency_ms;
    case SearchObjective::kEnergy:
      return 1.0 / cost.energy_mj();
    case SearchObjective::kEdp:
      return 1.0 / cost.edp();
  }
  return 0.0;
}

EvolutionSearch::Genome EvolutionSearch::random_genome(Rng& rng) const {
  Genome g(candidates_.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = rng.index(static_cast<int>(candidates_[i].size()));
  }
  return g;
}

EvolutionSearch::Genome EvolutionSearch::mutate(const Genome& parent,
                                                Rng& rng) const {
  Genome child = parent;
  bool changed = false;
  for (std::size_t i = 0; i < child.size(); ++i) {
    if (rng.flip(config_.mutation_rate)) {
      child[i] = rng.index(static_cast<int>(candidates_[i].size()));
      changed = true;
    }
  }
  if (!changed) {  // guarantee progress: force one reassignment
    const std::size_t i =
        static_cast<std::size_t>(rng.index(static_cast<int>(child.size())));
    child[i] = rng.index(static_cast<int>(candidates_[i].size()));
  }
  return child;
}

EvoSearchResult EvolutionSearch::run() {
  Rng rng(config_.seed);
  struct Scored {
    Genome genome;
    double reward = 0.0;
  };

  // Initial population: random genomes plus warm starts -- one uniform
  // design per (row, cout) target in the candidate grid (so the search can
  // only improve on every manual uniform baseline that is feasible) and the
  // maximum-compression genome (the most likely to be feasible under tight
  // budgets).
  std::vector<Genome> population;
  for (const std::int64_t rows : config_.candidates.row_targets) {
    for (const std::int64_t cout : config_.candidates.cout_targets) {
      if (static_cast<int>(population.size()) >= config_.population - 1) {
        break;
      }
      UniformDesign policy;
      policy.target_rows = rows;
      policy.target_cout = cout;
      policy.crossbar_size = config_.candidates.crossbar_size;
      policy.spatial_slack = config_.candidates.spatial_slack;
      policy.wrap_output = config_.candidates.wrap_output;
      Genome uniform(candidates_.size(), 0);
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        const auto want =
            design_uniform(network_->weighted_layers()[i].conv, policy);
        for (std::size_t c = 0; c < candidates_[i].size(); ++c) {
          if (candidates_[i][c] == want) {
            uniform[i] = static_cast<int>(c);
            break;
          }
        }
      }
      if (std::find(population.begin(), population.end(), uniform) ==
          population.end()) {
        population.push_back(std::move(uniform));
      }
    }
  }
  {
    Genome smallest(candidates_.size());
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      std::int64_t best_params = std::numeric_limits<std::int64_t>::max();
      for (std::size_t c = 0; c < candidates_[i].size(); ++c) {
        const auto& cand = candidates_[i][c];
        const std::int64_t params =
            cand.has_value()
                ? cand->weight_count()
                : network_->weighted_layers()[i].conv.weight_count();
        if (params < best_params) {
          best_params = params;
          smallest[i] = static_cast<int>(c);
        }
      }
    }
    population.push_back(std::move(smallest));
  }
  while (static_cast<int>(population.size()) < config_.population) {
    population.push_back(random_genome(rng));
  }

  double space = 1.0;
  for (const auto& c : candidates_) {
    space *= static_cast<double>(c.size());
  }

  Genome best;
  double best_reward = 0.0;
  std::vector<double> reward_history;
  std::int64_t evaluations = 0;
  std::vector<Scored> scored;
  for (int iter = 0; iter < config_.iterations; ++iter) {
    scored.clear();
    for (Genome& genome : population) {
      const double reward = score(genome);
      ++evaluations;
      // Best so far in population order: the first strict improvement wins.
      if (reward > best_reward) {
        best_reward = reward;
        best = genome;
      }
      scored.push_back({std::move(genome), reward});
    }
    reward_history.push_back(best_reward);
    // Select parents (Algorithm 1 line 9) and refill with mutants.
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.reward > b.reward;
              });
    population.clear();
    const int parents = config_.parents;  // < population == scored.size()
    for (int p = 0; p < parents; ++p) {
      population.push_back(scored[static_cast<std::size_t>(p)].genome);
    }
    while (static_cast<int>(population.size()) < config_.population) {
      const int p = rng.index(parents);
      population.push_back(
          mutate(scored[static_cast<std::size_t>(p)].genome, rng));
    }
    EPIM_LOG(kDebug) << "evo iter " << iter << " best reward " << best_reward;
  }
  EPIM_CHECK(best_reward > 0.0,
             "evolution search found no feasible assignment; raise the "
             "crossbar budget");
  EvoSearchResult result{to_assignment(best), best_reward, NetworkCost{},
                         std::move(reward_history), evaluations, space};
  result.best_cost = estimator_->eval_network(result.best, config_.precision);
  return result;
}

}  // namespace epim
