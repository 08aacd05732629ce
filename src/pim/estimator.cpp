#include "pim/estimator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace epim {

namespace {
constexpr double kNsToMs = 1e-6;
constexpr double kPjToMj = 1e-9;

/// Bytes occupied by one value of the given bit width in a feature buffer.
double value_bytes(int bits) { return static_cast<double>(ceil_div(bits, 8)); }
}  // namespace

int PrecisionConfig::layer_weight_bits(std::int64_t layer) const {
  EPIM_CHECK(!weight_bits.empty(), "precision config has no weight bits");
  if (weight_bits.size() == 1) return weight_bits.front();
  EPIM_CHECK(layer >= 0 &&
                 layer < static_cast<std::int64_t>(weight_bits.size()),
             "layer index out of range for mixed-precision config");
  return weight_bits[static_cast<std::size_t>(layer)];
}

int PimEstimator::effective_weight_bits(int weight_bits) const {
  EPIM_CHECK(weight_bits >= 1 && weight_bits <= 32,
             "weight bits out of range");
  return weight_bits == 32 ? config_.fp32_weight_bits : weight_bits;
}

int PimEstimator::effective_act_bits(int act_bits) const {
  EPIM_CHECK(act_bits >= 1 && act_bits <= 32, "act bits out of range");
  return act_bits == 32 ? config_.fp32_act_bits : act_bits;
}

double PimEstimator::round_latency_ns(int act_bits,
                                      std::int64_t active_cols_per_xbar,
                                      std::int64_t slices,
                                      bool epitome_round) const {
  // One bit-serial cycle: drive DACs, settle the crossbar, sample & hold,
  // digitize the active columns through the shared ADCs, then merge the
  // weight slices digitally (one shift-add stage per slice, which is why
  // lower weight precision also runs faster, not just smaller).
  const double adc_serial =
      static_cast<double>(ceil_div(active_cols_per_xbar, config_.adc_share)) *
      lut_.adc_ns;
  const double cycle = lut_.dac_ns + lut_.xbar_ns + lut_.sh_ns + adc_serial +
                       static_cast<double>(slices) * lut_.shift_add_ns;
  double latency = static_cast<double>(act_bits) * cycle;
  if (epitome_round) {
    // Index-table lookups (IFAT + IFRT before, OFAT after) and the joint
    // module's merge are pipelined with the analog phase except for their
    // setup cost once per round.
    latency += 3.0 * lut_.index_table_ns + lut_.joint_add_ns;
  }
  return latency;
}

LayerCost PimEstimator::eval_conv_layer(const ConvLayerInfo& layer,
                                        int weight_bits, int act_bits) const {
  const int wb = effective_weight_bits(weight_bits);
  const int ab = effective_act_bits(act_bits);
  LayerCost cost;
  cost.name = layer.name;
  cost.params = layer.conv.weight_count();
  cost.mapping = map_weight_matrix(layer.conv.unrolled_rows(),
                                   layer.conv.unrolled_cols(), wb, config_);
  cost.positions = layer.output_positions();
  cost.rounds_per_position = 1;

  const LayerMapping& m = cost.mapping;
  // All tiles fire in parallel; the busiest crossbar digitizes a full column
  // complement (or fewer if the matrix is narrow).
  const std::int64_t busiest_cols = std::min(m.cols_physical, config_.cols);
  const double lat_ns = static_cast<double>(cost.positions) *
                        round_latency_ns(ab, busiest_cols, m.slices, false);
  cost.latency_ms = lat_ns * kNsToMs;

  // Dynamic energy per output position.
  const double act_bytes = value_bytes(ab);
  const double acc_bytes = 2.0;  // partial-sum/output word in the buffer
  const double rows = static_cast<double>(m.rows);
  const double cols_phys = static_cast<double>(m.cols_physical);
  const double cycles = static_cast<double>(ab);
  // Row drivers replicate the input across column tiles.
  const double dac = rows * static_cast<double>(m.tiles_c) * cycles *
                     lut_.dac_pj;
  const double cells = rows * cols_phys * cycles * lut_.cell_pj;
  const double sh_adc_sa =
      cols_phys * cycles * (lut_.sh_pj + lut_.adc_pj + lut_.shift_add_pj);
  const double buf_rd = rows * act_bytes * lut_.buffer_rd_pj;
  const double buf_wr = static_cast<double>(m.cols_logical) * acc_bytes *
                        lut_.buffer_wr_pj;
  const double per_pos = dac + cells + sh_adc_sa + buf_rd + buf_wr;
  const double positions = static_cast<double>(cost.positions);
  cost.adc_mj = positions * cols_phys * cycles * lut_.adc_pj * kPjToMj;
  cost.buffer_mj = positions * (buf_rd + buf_wr) * kPjToMj;
  cost.xbar_mj = positions * cells * kPjToMj;
  cost.dynamic_energy_mj = positions * per_pos * kPjToMj;
  cost.other_mj =
      cost.dynamic_energy_mj - cost.adc_mj - cost.buffer_mj - cost.xbar_mj;
  return cost;
}

LayerCost PimEstimator::eval_epitome_layer(const ConvLayerInfo& layer,
                                           const EpitomeSpec& spec,
                                           int weight_bits,
                                           int act_bits) const {
  const int wb = effective_weight_bits(weight_bits);
  const int ab = effective_act_bits(act_bits);
  const SamplePlan plan(spec, layer.conv);
  LayerCost cost;
  cost.name = layer.name;
  cost.params = spec.weight_count();
  // The epitome itself is what occupies crossbars, programmed once.
  cost.mapping = map_weight_matrix(spec.rows(), spec.cout_e, wb, config_);
  cost.positions = layer.output_positions();
  cost.rounds_per_position = plan.active_rounds();
  cost.replicas_per_position = plan.total_patches() - plan.active_rounds();

  const LayerMapping& m = cost.mapping;
  const double act_bytes = value_bytes(ab);
  const double acc_bytes = 2.0;
  const double cycles = static_cast<double>(ab);
  const std::int64_t slices = m.slices;

  double lat_round_ns = 0.0;
  double dyn_pj = 0.0, adc_pj_sum = 0.0, buf_pj_sum = 0.0, cell_pj_sum = 0.0;
  for (const PatchSample& s : plan.samples()) {
    const double patch_rows = static_cast<double>(
        s.ci_len * layer.conv.kernel_h * layer.conv.kernel_w);
    const double patch_cols_phys = static_cast<double>(s.co_len * slices);
    if (s.replicated) {
      // Channel wrapping: this patch's outputs are copies of an earlier
      // round -- only output-buffer write traffic, no crossbar activity.
      const double copy = static_cast<double>(s.co_len) * acc_bytes *
                          lut_.buffer_wr_pj;
      buf_pj_sum += copy;
      dyn_pj += copy + lut_.index_table_pj;  // OFAT lookup to place the copy
      lat_round_ns += lut_.buffer_copy_ns;
      continue;
    }
    const std::int64_t busiest_cols =
        std::min<std::int64_t>(s.co_len * slices, config_.cols);
    lat_round_ns += round_latency_ns(ab, busiest_cols, slices, true);
    // Word lines not in this patch are held at zero (Sec. 4.3), so only the
    // patch's rows/cells/columns draw dynamic power.
    const double tiles_c_active =
        static_cast<double>(ceil_div(s.co_len * slices, config_.cols));
    const double dac = patch_rows * tiles_c_active * cycles * lut_.dac_pj;
    const double cells = patch_rows * patch_cols_phys * cycles * lut_.cell_pj;
    const double sh_adc_sa = patch_cols_phys * cycles *
                             (lut_.sh_pj + lut_.adc_pj + lut_.shift_add_pj);
    const double buf_rd = patch_rows * act_bytes * lut_.buffer_rd_pj;
    // Joint module: read-modify-write of the partial sums every round (this
    // is the output-buffer amplification the paper's Sec. 5.1 analyses).
    const double buf_accum = static_cast<double>(s.co_len) * acc_bytes *
                             (lut_.buffer_rd_pj + lut_.buffer_wr_pj);
    const double tables = 3.0 * lut_.index_table_pj +
                          static_cast<double>(s.co_len) * lut_.joint_add_pj;
    adc_pj_sum += patch_cols_phys * cycles * lut_.adc_pj;
    buf_pj_sum += buf_rd + buf_accum;
    cell_pj_sum += cells;
    dyn_pj += dac + cells + sh_adc_sa + buf_rd + buf_accum + tables;
  }

  const double positions = static_cast<double>(cost.positions);
  cost.latency_ms = positions * lat_round_ns * kNsToMs;
  cost.dynamic_energy_mj = positions * dyn_pj * kPjToMj;
  cost.adc_mj = positions * adc_pj_sum * kPjToMj;
  cost.buffer_mj = positions * buf_pj_sum * kPjToMj;
  cost.xbar_mj = positions * cell_pj_sum * kPjToMj;
  cost.other_mj =
      cost.dynamic_energy_mj - cost.adc_mj - cost.buffer_mj - cost.xbar_mj;
  return cost;
}

LayerCost PimEstimator::eval_layer(const ConvLayerInfo& layer,
                                   const std::optional<EpitomeSpec>& choice,
                                   int weight_bits, int act_bits) const {
  return choice.has_value()
             ? eval_epitome_layer(layer, *choice, weight_bits, act_bits)
             : eval_conv_layer(layer, weight_bits, act_bits);
}

double PimEstimator::static_energy_mj(std::int64_t crossbars,
                                      double latency_ms) const {
  // Every programmed crossbar leaks for the full inference.
  return lut_.leakage_mw_per_xbar * static_cast<double>(crossbars) *
         latency_ms * 1e-3;  // mW * ms = uJ -> mJ
}

NetworkCost PimEstimator::eval_network(const NetworkAssignment& assignment,
                                       const PrecisionConfig& precision) const {
  NetworkCost total;
  const auto& layers = assignment.layers();
  double used_cells = 0.0, allocated_cells = 0.0;
  for (std::int64_t i = 0; i < assignment.num_layers(); ++i) {
    LayerCost cost = eval_layer(layers[static_cast<std::size_t>(i)],
                                assignment.choice(i),
                                precision.layer_weight_bits(i),
                                precision.act_bits);
    total.num_crossbars += cost.mapping.num_crossbars;
    total.latency_ms += cost.latency_ms;
    total.dynamic_energy_mj += cost.dynamic_energy_mj;
    total.params += cost.params;
    used_cells += static_cast<double>(cost.mapping.used_cells());
    allocated_cells += static_cast<double>(cost.mapping.num_crossbars) *
                       static_cast<double>(config_.rows * config_.cols);
    total.layers.push_back(std::move(cost));
  }
  total.static_energy_mj =
      static_energy_mj(total.num_crossbars, total.latency_ms);
  total.utilization = allocated_cells > 0 ? used_cells / allocated_cells : 0.0;
  return total;
}

}  // namespace epim
