// Quickstart: the EPIM workflow on a single convolution layer, driven
// through the epim::Pipeline façade.
//
//  1. Describe a one-layer network and let the pipeline compile an epitome
//     design for it.
//  2. Look at the sampling plan (how the crossbars will be activated).
//  3. Run the layer through the IFAT/IFRT/OFAT datapath, check it equals the
//     reference convolution, and confirm the analytical estimator and the
//     functional datapath agree on the activity counts.
//  4. Compare hardware cost (crossbars / latency / energy) of the
//     convolution vs the epitome on the behaviour-level PIM model.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "datapath/datapath_sim.hpp"
#include "nn/conv_exec.hpp"
#include "pipeline/activity.hpp"
#include "pipeline/pipeline.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace epim;
  Rng rng(2024);

  // A stage-3-style ResNet layer: 256 -> 256 channels, 3x3, on a 14x14 map.
  const ConvLayerInfo layer{"demo.conv",
                            ConvSpec{256, 256, 3, 3, 1, 1}, 14, 14};
  Network net("demo");
  net.add_conv(layer);
  std::printf("layer: %s\n", layer.to_string().c_str());
  std::printf("conv weights: %lld params, unrolled %lld x %lld\n\n",
              static_cast<long long>(layer.conv.weight_count()),
              static_cast<long long>(layer.conv.unrolled_rows()),
              static_cast<long long>(layer.conv.unrolled_cols()));

  // 1. Compile with the paper's uniform 1024x256 policy (the default).
  Pipeline pipeline{PipelineConfig{}};
  const CompiledModel model = pipeline.compile(net);
  const auto& spec = model.assignment().choice(0);
  if (!spec.has_value()) {
    std::printf("layer too small to benefit from an epitome\n");
    return 0;
  }
  std::printf("epitome: %s, %lld params (%.2fx compression)\n",
              spec->to_string().c_str(),
              static_cast<long long>(spec->weight_count()),
              static_cast<double>(layer.conv.weight_count()) /
                  static_cast<double>(spec->weight_count()));

  // 2. The sampling plan: each patch is one crossbar activation round.
  Epitome epitome = Epitome::random(*spec, layer.conv, rng);
  const SamplePlan& plan = epitome.plan();
  std::printf("sampling plan: %lld patches (%lld input groups x %lld output "
              "groups), %lld crossbar rounds per output position\n\n",
              static_cast<long long>(plan.total_patches()),
              static_cast<long long>(plan.num_in_groups()),
              static_cast<long long>(plan.num_out_groups()),
              static_cast<long long>(plan.active_rounds()));

  // 3. Execute through the datapath and verify against the reference conv.
  Tensor x({layer.conv.in_channels, layer.ifm_h, layer.ifm_w});
  rng.fill_normal(x.data(), static_cast<std::size_t>(x.numel()), 0.0f, 1.0f);
  DatapathSimulator datapath(layer, epitome);
  const Tensor via_datapath = datapath.run(x);
  const Tensor reference =
      conv2d(x, epitome.reconstruct(), layer.conv.stride, layer.conv.pad);
  std::printf("datapath vs reference conv: max |diff| = %.2e over %lld "
              "outputs\n",
              max_abs_diff(via_datapath, reference),
              static_cast<long long>(reference.numel()));

  // HW/SW agreement: the analytical estimator's activity accounting must
  // match what the functional datapath actually does.
  const LayerActivity a =
      analytical_activity(pipeline.estimator(), layer, *spec);
  const LayerActivity f = datapath_activity(layer, *spec, 1);
  std::printf("activity counts, analytical vs functional datapath: "
              "%lld vs %lld crossbar rounds -- %s\n\n",
              static_cast<long long>(a.crossbar_rounds),
              static_cast<long long>(f.crossbar_rounds),
              a == f ? "agree" : "DISAGREE");

  // 4. Hardware cost on the behaviour-level PIM model (W9A9).
  const PimEstimator& estimator = pipeline.estimator();
  const LayerCost conv_cost = estimator.eval_conv_layer(layer, 9, 9);
  const LayerCost epi_cost = estimator.eval_epitome_layer(layer, *spec, 9, 9);
  std::printf("hardware cost @ W9A9 (128x128 crossbars, 2-bit cells):\n");
  std::printf("  convolution: %3lld crossbars, %.3f ms, %.4f mJ dynamic\n",
              static_cast<long long>(conv_cost.mapping.num_crossbars),
              conv_cost.latency_ms, conv_cost.dynamic_energy_mj);
  std::printf("  epitome:     %3lld crossbars, %.3f ms, %.4f mJ dynamic\n",
              static_cast<long long>(epi_cost.mapping.num_crossbars),
              epi_cost.latency_ms, epi_cost.dynamic_energy_mj);
  std::printf("the epitome trades %.1fx fewer crossbars for %.1fx more "
              "rounds -- the EPIM design space.\n",
              static_cast<double>(conv_cost.mapping.num_crossbars) /
                  static_cast<double>(epi_cost.mapping.num_crossbars),
              static_cast<double>(epi_cost.rounds_per_position));
  return 0;
}
