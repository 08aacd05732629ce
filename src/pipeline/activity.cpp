#include "pipeline/activity.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/epitome.hpp"
#include "datapath/datapath_sim.hpp"

namespace epim {

LayerActivity analytical_activity(const PimEstimator& estimator,
                                  const ConvLayerInfo& layer,
                                  const EpitomeSpec& spec) {
  // Counts depend only on the sampling plan, so the probe precision (W9A9)
  // is arbitrary.
  const LayerCost cost = estimator.eval_epitome_layer(layer, spec, 9, 9);
  LayerActivity a;
  a.positions = cost.positions;
  a.crossbar_rounds = cost.positions * cost.rounds_per_position;
  a.replica_copies = cost.positions * cost.replicas_per_position;
  return a;
}

LayerActivity datapath_activity(const ConvLayerInfo& layer,
                                const EpitomeSpec& spec, std::uint64_t seed) {
  const ConvSpec& conv = layer.conv;
  // Shrink the feature map to the smallest size with at least one output
  // position: per-position activity is position-independent, so measuring a
  // handful of positions and scaling is exact (and keeps ResNet-scale
  // agreement checks cheap).
  const std::int64_t probe_h =
      std::max<std::int64_t>(conv.kernel_h - 2 * conv.pad, 1);
  const std::int64_t probe_w =
      std::max<std::int64_t>(conv.kernel_w - 2 * conv.pad, 1);
  const ConvLayerInfo probe{layer.name, conv, probe_h, probe_w};
  const std::int64_t probe_positions = probe.output_positions();
  EPIM_ASSERT(probe_positions > 0, "datapath probe has no output positions");

  Rng rng(seed);
  Epitome epitome = Epitome::random(spec, conv, rng);
  DatapathSimulator datapath(probe, std::move(epitome));
  Tensor x({conv.in_channels, probe_h, probe_w});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  datapath.run(x);
  const DatapathStats& stats = datapath.stats();
  EPIM_ASSERT(stats.crossbar_rounds % probe_positions == 0 &&
                  stats.replica_copies % probe_positions == 0,
              "datapath activity is not position-uniform");

  LayerActivity a;
  a.positions = layer.output_positions();
  a.crossbar_rounds = a.positions * (stats.crossbar_rounds / probe_positions);
  a.replica_copies = a.positions * (stats.replica_copies / probe_positions);
  return a;
}

void check_activity_agreement(const PimEstimator& estimator,
                              const NetworkAssignment& assignment,
                              std::uint64_t seed) {
  // Distinct pairs only -- ResNet stages repeat shapes. The pairs are
  // collected serially (order-dependent dedup) and then the datapath
  // executions, the expensive part, fan out across threads; a disagreement
  // on any layer still surfaces as InternalError.
  std::vector<std::pair<ConvSpec, EpitomeSpec>> checked;
  std::vector<const ConvLayerInfo*> to_check;
  for (std::int64_t i = 0; i < assignment.num_layers(); ++i) {
    const auto& choice = assignment.choice(i);
    if (!choice.has_value()) continue;
    const ConvLayerInfo& layer =
        assignment.layers()[static_cast<std::size_t>(i)];
    const auto key = std::make_pair(layer.conv, *choice);
    if (std::find(checked.begin(), checked.end(), key) != checked.end()) {
      continue;
    }
    checked.push_back(key);
    to_check.push_back(&layer);
  }
  parallel_for(static_cast<std::int64_t>(to_check.size()),
               [&](std::int64_t i) {
                 const ConvLayerInfo& layer =
                     *to_check[static_cast<std::size_t>(i)];
                 const EpitomeSpec& spec =
                     checked[static_cast<std::size_t>(i)].second;
                 EPIM_ASSERT(datapath_activity(layer, spec, seed) ==
                                 analytical_activity(estimator, layer, spec),
                             "HW/SW activity disagreement on layer " +
                                 layer.name);
               });
}

}  // namespace epim
