// Per-layer probes of a deployed model, timed from outside the library.
//
// The deployed chip (DeployedModel) does not expose its blocks, so the
// probe rebuilds them the way the runtime does: a PimNetworkRuntime
// compiled from the same trained net, calibration set and
// DeployedModel::runtime_config() yields deploy_state() and the calibrated
// activation quantizers; each block's epitome is quantized per output
// channel (the runtime's rule) and programmed into a PimLayerEngine. The
// rebuilt forward pass must reproduce the chip's logits bit for bit, or the
// per-block times would describe some other computation.
#pragma once

#include <vector>

#include "bench_common.hpp"
#include "pim/estimator.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

struct DeployedUnderTest {
  const epim::SmallEpitomeNet* net = nullptr;
  const epim::Dataset* calibration = nullptr;
  const epim::DeployedModel* chip = nullptr;
  const epim::PimEstimator* estimator = nullptr;
};

/// Pin the simulated statistics of the deployed blocks: crossbars and
/// active rounds per block and the estimator's latency/energy for each.
void pin_simulated_stats(const DeployedUnderTest& model, Report& report);

/// Per-layer metrics at a pool budget of one thread, timed on the calling
/// thread's CPU clock (everything runs on it): runtime forward time
/// per image, datapath time per block (PimLayerEngine::run), the rest of
/// the forward pass, CrossbarArray::mvm time per call on each block's
/// tiles, mvm calls per image and the mvm share of forward time. `images`
/// are the inputs the workload serves; `reference` their logits from the
/// chip.
void probe_deployed_layers(const DeployedUnderTest& model,
                           const std::vector<epim::Tensor>& images,
                           const std::vector<epim::Tensor>& reference,
                           Report& report);

}  // namespace perfbench
