// HW/SW activity agreement (paper Sec. 4.3).
//
// The analytical estimator prices an epitome layer from its per-layer
// crossbar activity: activation rounds and channel-wrapping replica copies
// per output position. The functional IFAT/IFRT/OFAT datapath performs the
// same activity when it executes the layer. These functions derive the
// counts both ways and check that they agree, which is what ties the cost
// model to the hardware it describes. They are a check, not an evaluation
// path: CompiledModel::estimate() always prices with the analytical model.
#pragma once

#include <cstdint>

#include "core/assignment.hpp"
#include "pim/estimator.hpp"

namespace epim {

/// Crossbar activity of one layer over a full inference. These counts times
/// the HardwareLut entries are the dynamic cost model, so two derivations
/// that agree here agree on dynamic energy attribution.
struct LayerActivity {
  std::int64_t positions = 0;        ///< output feature-map positions
  std::int64_t crossbar_rounds = 0;  ///< crossbar activations
  std::int64_t replica_copies = 0;   ///< channel-wrapping buffer copies

  bool operator==(const LayerActivity&) const = default;
};

/// Activity the analytical estimator accounts for one epitome layer. Counts
/// depend only on the sampling plan, not on precision.
LayerActivity analytical_activity(const PimEstimator& estimator,
                                  const ConvLayerInfo& layer,
                                  const EpitomeSpec& spec);

/// Activity measured by executing the functional datapath on a seeded probe
/// input at a minimal feature-map size (activity per output position is
/// position-independent), scaled to the layer's real geometry.
LayerActivity datapath_activity(const ConvLayerInfo& layer,
                                const EpitomeSpec& spec, std::uint64_t seed);

/// Cross-checks every distinct (conv, epitome) pair of `assignment`: the
/// datapath's measured activity must equal the analytical one. Throws
/// InternalError naming a disagreeing layer.
void check_activity_agreement(const PimEstimator& estimator,
                              const NetworkAssignment& assignment,
                              std::uint64_t seed);

}  // namespace epim
