// Regenerates paper Figure 4: latency (a), energy (b) and EDP (c) of the
// uniform epitome versus the two optimizations -- Channel Wrapping and
// Evo-Search -- individually and combined (EPIM-Opt), across a sweep of
// compression points (uniform epitome sizes from gentle to aggressive).
//
// Expected shape (paper): at matched compression, EPIM-Opt achieves up to
// ~3x lower latency, ~2.4x lower energy and ~7x lower EDP than the uniform
// design, with the gap widening at aggressive compression.
//
// Each sweep point drives the Pipeline façade with a one-off design
// override; search variants enable the config's evolutionary refinement.
#include <algorithm>
#include <cstdio>

#include "common/table.hpp"
#include "nn/resnet.hpp"
#include "pipeline/pipeline.hpp"

namespace epim {
namespace {

struct SweepPoint {
  const char* label;
  std::int64_t rows, cout;
};

}  // namespace
}  // namespace epim

int main() {
  using namespace epim;
  const Network net = resnet50();
  const Pipeline pipeline{PipelineConfig{}};  // W9A9
  DesignConfig baseline_design;
  baseline_design.policy = DesignPolicy::kBaseline;
  const auto baseline =
      pipeline.compile(net, baseline_design).estimate().cost;

  const SweepPoint points[] = {{"2048x512", 2048, 512},
                               {"1024x256", 1024, 256},
                               {"512x256", 512, 256},
                               {"256x256", 256, 256}};

  TextTable table({"epitome", "variant", "#XB", "lat ms", "mJ", "EDP",
                   "lat x-base", "mJ x-base"});
  double worst_uniform_lat = 0.0, worst_uniform_mj = 0.0,
         worst_uniform_edp = 0.0;
  double best_opt_lat = 1e18, best_opt_mj = 1e18, best_opt_edp = 1e18;
  std::printf("=== Figure 4: uniform vs Channel-Wrapping vs Evo-Search vs "
              "EPIM-Opt (ResNet-50, W9A9) ===\n");
  std::printf("conv baseline: #XB=%lld, lat=%.1f ms, E=%.1f mJ, EDP=%.0f\n\n",
              static_cast<long long>(baseline.num_crossbars),
              baseline.latency_ms, baseline.energy_mj(), baseline.edp());

  for (const auto& point : points) {
    DesignConfig design;
    design.uniform.target_rows = point.rows;
    design.uniform.target_cout = point.cout;
    DesignConfig wrapped = design;
    wrapped.wrap_output = true;
    const auto cost_u = pipeline.compile(net, design).estimate().cost;
    const auto cost_w = pipeline.compile(net, wrapped).estimate().cost;

    // Evo-Search at this point's crossbar budget, without and with wrapping
    // in the candidate pool (the latter = EPIM-Opt).
    auto search = [&](bool wrap, SearchObjective objective) {
      PipelineConfig cfg;
      cfg.search.enabled = true;
      cfg.search.evo.population = 32;
      cfg.search.evo.iterations = 16;
      cfg.search.evo.parents = 8;
      cfg.search.evo.crossbar_budget = cost_u.num_crossbars;
      cfg.search.evo.objective = objective;
      cfg.search.evo.candidates.wrap_output = wrap;
      CompiledModel model = Pipeline(cfg).compile(net);
      return model.search().best_cost;
    };
    const auto cost_e = search(false, SearchObjective::kEdp);
    const auto cost_opt = search(true, SearchObjective::kEdp);

    auto emit = [&](const char* variant, const NetworkCost& c) {
      table.add_row({point.label, variant, std::to_string(c.num_crossbars),
                     fmt(c.latency_ms, 1), fmt(c.energy_mj(), 1),
                     fmt(c.edp(), 0),
                     fmt(c.latency_ms / baseline.latency_ms, 2),
                     fmt(c.energy_mj() / baseline.energy_mj(), 2)});
    };
    emit("uniform", cost_u);
    emit("+ChannelWrapping", cost_w);
    emit("+EvoSearch", cost_e);
    emit("EPIM-Opt (both)", cost_opt);
    worst_uniform_lat = std::max(worst_uniform_lat, cost_u.latency_ms);
    worst_uniform_mj = std::max(worst_uniform_mj, cost_u.energy_mj());
    worst_uniform_edp = std::max(worst_uniform_edp, cost_u.edp());
    best_opt_lat = std::min(best_opt_lat, cost_opt.latency_ms);
    best_opt_mj = std::min(best_opt_mj, cost_opt.energy_mj());
    best_opt_edp = std::min(best_opt_edp, cost_opt.edp());
  }
  std::printf("%s\n", table.to_string().c_str());

  // Headline ratios across the sweep, as the paper reports them ("up to").
  std::printf("EPIM-Opt vs uniform, best-case across the sweep (paper: up to "
              "3.07x / 2.36x / 7.13x):\n"
              "  speedup %.2fx, energy %.2fx, EDP %.2fx\n",
              worst_uniform_lat / best_opt_lat,
              worst_uniform_mj / best_opt_mj,
              worst_uniform_edp / best_opt_edp);
  return 0;
}
