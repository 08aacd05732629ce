// Behaviour-level latency / energy / area estimator (paper Sec. 4.3, 6.1).
//
// Modelling assumptions, mirrored from the paper's MNSIM-based simulator:
//  * A convolution layer's tiles are all activated in parallel; one output
//    position costs `act_bits` bit-serial cycles.
//  * An epitome layer activates its crossbars once per *active* patch round;
//    rounds are sequential, so latency scales with the sampling plan length
//    (Sec. 5.1: "latency increase is roughly proportional to the compression
//    rate").
//  * Every round's partial outputs pass through the joint module and are
//    accumulated in the output buffer, so buffer write traffic scales with
//    the number of rounds (the paper's energy-increase mechanism); channel
//    wrapping turns all but one output group into cheap buffer copies.
//  * Programmed crossbars leak for the whole inference (static energy =
//    leakage x #crossbars x total latency), which is why halving crossbars
//    can lower energy even when latency rises.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/assignment.hpp"
#include "core/sample_plan.hpp"
#include "nn/layer.hpp"
#include "pim/config.hpp"
#include "pim/mapping.hpp"

namespace epim {

/// Cost breakdown for one layer (dynamic only; static energy is a
/// network-level quantity because idle crossbars leak too).
struct LayerCost {
  std::string name;
  LayerMapping mapping;
  std::int64_t positions = 0;        ///< output feature map positions
  std::int64_t rounds_per_position = 1;  ///< crossbar activation rounds
  std::int64_t replicas_per_position = 0;  ///< wrapped copies (no activation)
  double latency_ms = 0.0;
  double dynamic_energy_mj = 0.0;
  /// Dynamic energy split (mJ), for ablation reporting.
  double adc_mj = 0.0;
  double buffer_mj = 0.0;
  double xbar_mj = 0.0;
  double other_mj = 0.0;
  std::int64_t params = 0;
};

/// Whole-network cost (paper Table 1 row).
struct NetworkCost {
  std::vector<LayerCost> layers;
  std::int64_t num_crossbars = 0;
  double latency_ms = 0.0;
  double dynamic_energy_mj = 0.0;
  double static_energy_mj = 0.0;
  double utilization = 0.0;  ///< used cells / allocated cells, whole chip
  std::int64_t params = 0;

  double energy_mj() const { return dynamic_energy_mj + static_energy_mj; }
  double edp() const { return energy_mj() * latency_ms; }  ///< mJ*ms
};

/// Per-layer weight precision plus a shared activation precision.
/// weight_bits may hold a single entry (uniform precision) or one entry per
/// weighted layer (mixed precision, paper's W3mp rows).
struct PrecisionConfig {
  std::vector<int> weight_bits = {9};
  int act_bits = 9;

  static PrecisionConfig uniform(int wbits, int abits) {
    return PrecisionConfig{{wbits}, abits};
  }
  int layer_weight_bits(std::int64_t layer) const;
};

class PimEstimator {
 public:
  PimEstimator(CrossbarConfig config, HardwareLut lut)
      : config_(config), lut_(lut) {}

  const CrossbarConfig& config() const { return config_; }
  const HardwareLut& lut() const { return lut_; }

  /// Cost of a plain convolution layer.
  LayerCost eval_conv_layer(const ConvLayerInfo& layer, int weight_bits,
                            int act_bits) const;

  /// Cost of a layer executed as an epitome.
  LayerCost eval_epitome_layer(const ConvLayerInfo& layer,
                               const EpitomeSpec& spec, int weight_bits,
                               int act_bits) const;

  /// Cost of one layer under one choice: the epitome when `choice` holds a
  /// spec, the plain convolution otherwise.
  LayerCost eval_layer(const ConvLayerInfo& layer,
                       const std::optional<EpitomeSpec>& choice,
                       int weight_bits, int act_bits) const;

  /// Leakage of `crossbars` programmed crossbars over a whole inference of
  /// `latency_ms`.
  double static_energy_mj(std::int64_t crossbars, double latency_ms) const;

  /// Cost of a whole network under an epitome assignment and precision
  /// config: eval_layer summed in layer order, plus static_energy_mj. FP32
  /// (weight_bits == 32) is modelled as the fixed-point equivalent in
  /// CrossbarConfig.
  NetworkCost eval_network(const NetworkAssignment& assignment,
                           const PrecisionConfig& precision) const;

 private:
  /// Latency (ns) of one activation round given the active column count on
  /// the busiest crossbar and the number of weight slices to merge.
  double round_latency_ns(int act_bits, std::int64_t active_cols_per_xbar,
                          std::int64_t slices, bool epitome_round) const;

  /// Map "32" to the fixed-point-equivalent hardware precision.
  int effective_weight_bits(int weight_bits) const;
  int effective_act_bits(int act_bits) const;

  CrossbarConfig config_;
  HardwareLut lut_;
};

}  // namespace epim
