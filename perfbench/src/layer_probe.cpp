#include "layer_probe.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/parallel.hpp"
#include "datapath/index_tables.hpp"
#include "datapath/pim_engine.hpp"
#include "nn/conv_exec.hpp"
#include "pim/crossbar.hpp"
#include "runtime/pim_runtime.hpp"

namespace perfbench {
namespace {

using epim::Tensor;

/// One rebuilt on-chip block, compiled with the runtime's rules.
struct Block {
  epim::ConvLayerInfo layer;
  epim::EpitomeSpec spec;
  std::vector<std::vector<int>> qweights;  ///< (rows x cout_e) codes
  std::unique_ptr<epim::PimLayerEngine> engine;
  std::vector<double> dequant;  ///< per output channel
  epim::ChannelAffine bn;
  epim::QuantParams act_in;
  bool signed_input = false;
  std::int64_t active_rounds = 0;
};

class Replica {
 public:
  explicit Replica(const DeployedUnderTest& m)
      : config_(m.chip->runtime_config()),
        runtime_(*m.net, *m.calibration, config_) {
    const epim::SmallEpitomeNet::Deploy& d = runtime_.deploy_state();
    const std::int64_t s = d.config.image_size;
    const auto act = runtime_.activation_params();
    add(d.block1, d.bn1, s, "block1", act[0], true);
    add(d.block2, d.bn2, s, "block2", act[1], false);
    add(d.block3, d.bn3, s / 2, "block3", act[2], false);
  }

  const std::vector<Block>& blocks() const { return blocks_; }
  const epim::RuntimeConfig& config() const { return config_; }

  /// Forward one image through the rebuilt blocks. engine_ms[b] receives
  /// the PimLayerEngine::run time of block b; codes[b] the block's input
  /// codes (the positive half for the signed first block).
  Tensor forward(const Tensor& image, std::vector<double>& engine_ms,
                 std::vector<std::vector<std::uint32_t>>* codes) const {
    Tensor a1 = run_block(0, image, engine_ms, codes);
    Tensor a2 = epim::max_pool2d(run_block(1, a1, engine_ms, codes), 2, 2, 0);
    Tensor a3 = epim::max_pool2d(run_block(2, a2, engine_ms, codes), 2, 2, 0);
    const Tensor pooled = epim::global_avg_pool(a3);
    const epim::SmallEpitomeNet::Deploy& d = runtime_.deploy_state();
    const std::int64_t k = d.dense_w.dim(0);
    Tensor logits({k});
    for (std::int64_t j = 0; j < k; ++j) {
      double accum = d.dense_b(j);
      for (std::int64_t f = 0; f < d.dense_w.dim(1); ++f) {
        accum += static_cast<double>(d.dense_w(j, f)) * pooled(f);
      }
      logits(j) = static_cast<float>(accum);
    }
    return logits;
  }

 private:
  void add(const epim::Epitome& epitome, const epim::ChannelAffine& bn,
           std::int64_t ifm, const std::string& name,
           const epim::QuantParams& act_in, bool signed_input) {
    Block b;
    b.spec = epitome.spec();
    b.layer = epim::ConvLayerInfo{name, epitome.conv(), ifm, ifm};
    b.bn = bn;
    b.act_in = act_in;
    b.signed_input = signed_input;
    b.active_rounds = epitome.plan().active_rounds();
    // Symmetric per-output-channel weight quantization.
    const std::int64_t rows = b.spec.rows();
    const std::int64_t cols = b.spec.cout_e;
    const std::int64_t qmax =
        (std::int64_t{1} << (config_.weight_bits - 1)) - 1;
    const Tensor& w = epitome.weights();
    std::vector<double> weight_scale(static_cast<std::size_t>(cols), 1.0);
    b.qweights.assign(static_cast<std::size_t>(rows),
                      std::vector<int>(static_cast<std::size_t>(cols), 0));
    for (std::int64_t c = 0; c < cols; ++c) {
      double amax = 0.0;
      for (std::int64_t r = 0; r < rows; ++r) {
        amax = std::max(amax,
                        std::abs(static_cast<double>(w.at(c * rows + r))));
      }
      const double scale = amax > 0 ? amax / static_cast<double>(qmax) : 1.0;
      weight_scale[static_cast<std::size_t>(c)] = scale;
      for (std::int64_t r = 0; r < rows; ++r) {
        b.qweights[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            static_cast<int>(std::clamp<std::int64_t>(
                static_cast<std::int64_t>(std::llround(w.at(c * rows + r) /
                                                       scale)),
                -qmax, qmax));
      }
    }
    b.engine = std::make_unique<epim::PimLayerEngine>(
        b.layer, b.spec, b.qweights, config_.weight_bits, config_.crossbar,
        config_.non_ideal);
    const std::int64_t cout = b.layer.conv.out_channels;
    b.dequant.resize(static_cast<std::size_t>(cout));
    for (std::int64_t co = 0; co < cout; ++co) {
      b.dequant[static_cast<std::size_t>(co)] =
          act_in.scale * weight_scale[static_cast<std::size_t>(co % cols)];
    }
    blocks_.push_back(std::move(b));
  }

  Tensor run_block(std::size_t index, const Tensor& input,
                   std::vector<double>& engine_ms,
                   std::vector<std::vector<std::uint32_t>>* codes) const {
    const Block& b = blocks_[index];
    const double s_in = b.act_in.scale;
    const std::int64_t code_max = b.act_in.max_code();
    const auto quant = [&](float v) {
      return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::llround(std::abs(v) / s_in)), 0,
          code_max));
    };
    const auto to_codes = [&](auto select) {
      epim::IntImage img;
      img.channels = input.dim(0);
      img.height = input.dim(1);
      img.width = input.dim(2);
      img.data.resize(static_cast<std::size_t>(img.numel()));
      for (std::int64_t i = 0; i < input.numel(); ++i) {
        img.data[static_cast<std::size_t>(i)] = select(input.at(i));
      }
      return img;
    };
    const int abits =
        b.signed_input ? config_.act_bits - 1 : config_.act_bits;
    std::int64_t clips = 0;
    epim::IntOutput acc;
    if (b.signed_input) {
      const epim::IntImage pos =
          to_codes([&](float v) { return v > 0 ? quant(v) : 0u; });
      const epim::IntImage neg =
          to_codes([&](float v) { return v < 0 ? quant(v) : 0u; });
      if (codes != nullptr) (*codes)[index] = pos.data;
      const double t0 = thread_cpu_ms();
      acc = b.engine->run(pos, abits, &clips);
      const epim::IntOutput acc_neg = b.engine->run(neg, abits, &clips);
      engine_ms[index] += thread_cpu_ms() - t0;
      for (std::size_t i = 0; i < acc.data.size(); ++i) {
        acc.data[i] -= acc_neg.data[i];
      }
    } else {
      const epim::IntImage in = to_codes([&](float v) { return quant(v); });
      if (codes != nullptr) (*codes)[index] = in.data;
      const double t0 = thread_cpu_ms();
      acc = b.engine->run(in, abits, &clips);
      engine_ms[index] += thread_cpu_ms() - t0;
    }
    const epim::ConvSpec& conv = b.layer.conv;
    const std::int64_t oh = b.layer.ofm_h(), ow = b.layer.ofm_w();
    Tensor out({conv.out_channels, oh, ow});
    const std::int64_t plane = oh * ow;
    for (std::int64_t co = 0; co < conv.out_channels; ++co) {
      const double dq = b.dequant[static_cast<std::size_t>(co)];
      for (std::int64_t p = 0; p < plane; ++p) {
        out.at(co * plane + p) = static_cast<float>(
            dq * static_cast<double>(
                     acc.data[static_cast<std::size_t>(co * plane + p)]));
      }
    }
    epim::affine_relu(out, b.bn);
    return out;
  }

  epim::RuntimeConfig config_;
  epim::PimNetworkRuntime runtime_;
  std::vector<Block> blocks_;
};

/// CrossbarArray::mvm calls of one block, per image, and their CPU time.
struct MvmCost {
  std::int64_t calls = 0;  ///< per image
  double ns = 0;           ///< mean CPU ns per call, weighted by calls
};

/// Replays the engine's call pattern on the block's own tiles: per output
/// position, every IFAT round drives each tile that holds one of the
/// round's output columns and one of its enabled word lines (the engine's
/// tiling and skip rules). Each tile is timed over its rounds' word-line
/// masks with input vectors cut from the block's real codes.
MvmCost mvm_cost(const Block& b, const epim::RuntimeConfig& config,
                 const std::vector<std::uint32_t>& codes) {
  const epim::IndexTables tables(epim::SamplePlan(b.spec, b.layer.conv));
  std::vector<std::int64_t> round_co_len(tables.ifrt().size(), -1);
  for (const epim::OfatEntry& oe : tables.ofat()) {
    auto& len = round_co_len[static_cast<std::size_t>(oe.round)];
    if (oe.replica_of < 0 && len < 0) len = oe.co_stop - oe.co_start;
  }
  const std::int64_t rows = b.spec.rows();
  const std::int64_t cols = b.spec.cout_e;
  const std::int64_t cols_per_tile = std::max<std::int64_t>(
      1, config.crossbar.cols / config.crossbar.weight_slices(config.weight_bits));
  const int abits = b.signed_input ? config.act_bits - 1 : config.act_bits;
  const int passes = b.signed_input ? 2 : 1;  // differential input encoding

  MvmCost cost;
  double total_ns = 0;
  for (std::int64_t r0 = 0; r0 < rows; r0 += config.crossbar.rows) {
    const std::int64_t rc = std::min(config.crossbar.rows, rows - r0);
    for (std::int64_t c0 = 0; c0 < cols; c0 += cols_per_tile) {
      const std::int64_t cc = std::min(cols_per_tile, cols - c0);
      // Word-line masks of the rounds that drive this tile.
      std::vector<std::vector<bool>> masks;
      for (const epim::IfatEntry& fa : tables.ifat()) {
        const auto round = static_cast<std::size_t>(fa.round);
        if (c0 >= round_co_len[round]) continue;
        std::vector<bool> en(static_cast<std::size_t>(rc));
        bool any = false;
        for (std::int64_t r = 0; r < rc; ++r) {
          en[static_cast<std::size_t>(r)] =
              tables.ifrt()[round].row_to_input[static_cast<std::size_t>(
                  r0 + r)] != epim::IfrtSequence::kInactiveRow;
          any = any || en[static_cast<std::size_t>(r)];
        }
        if (any) masks.push_back(std::move(en));
      }
      if (masks.empty()) continue;
      std::vector<std::vector<int>> weights(
          static_cast<std::size_t>(rc),
          std::vector<int>(static_cast<std::size_t>(cc)));
      for (std::int64_t r = 0; r < rc; ++r) {
        for (std::int64_t c = 0; c < cc; ++c) {
          weights[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
              b.qweights[static_cast<std::size_t>(r0 + r)]
                        [static_cast<std::size_t>(c0 + c)];
        }
      }
      const epim::CrossbarArray array(config.crossbar, config.weight_bits,
                                      weights, config.non_ideal);
      constexpr int kVectors = 16;
      std::vector<std::vector<std::uint32_t>> inputs(kVectors);
      for (int v = 0; v < kVectors; ++v) {
        for (std::int64_t r = 0; r < rc; ++r) {
          inputs[static_cast<std::size_t>(v)].push_back(
              codes[(static_cast<std::size_t>(v) * 37 +
                     static_cast<std::size_t>(r0 + r)) %
                    codes.size()]);
        }
      }
      std::vector<std::int64_t> acc;
      std::int64_t clips = 0;
      constexpr int kCalls = 4000;
      std::vector<double> per_call_ns;
      for (int rep = 0; rep < 7; ++rep) {
        const double t0 = thread_cpu_ms();
        for (int i = 0; i < kCalls; ++i) {
          array.mvm(inputs[static_cast<std::size_t>(i % kVectors)],
                    masks[static_cast<std::size_t>(i) % masks.size()], abits,
                    acc, &clips);
        }
        per_call_ns.push_back((thread_cpu_ms() - t0) * 1e6 / kCalls);
      }
      const std::int64_t calls = b.layer.output_positions() *
                                 static_cast<std::int64_t>(masks.size()) *
                                 passes;
      cost.calls += calls;
      total_ns += static_cast<double>(calls) * median(per_call_ns);
    }
  }
  cost.ns = cost.calls > 0 ? total_ns / static_cast<double>(cost.calls) : 0;
  return cost;
}

}  // namespace

void pin_simulated_stats(const DeployedUnderTest& model, Report& report) {
  const Replica replica(model);
  const epim::RuntimeConfig& rc = replica.config();
  std::int64_t total = 0;
  for (const Block& b : replica.blocks()) {
    total += b.engine->num_crossbars();
    report.pin(b.layer.name + ".crossbars", b.engine->num_crossbars());
    report.pin(b.layer.name + ".active_rounds", b.active_rounds);
    const epim::LayerCost cost = model.estimator->eval_epitome_layer(
        b.layer, b.spec, rc.weight_bits,
        b.signed_input ? rc.act_bits - 1 : rc.act_bits);
    report.pin(b.layer.name + ".est_latency_ms", exact(cost.latency_ms));
    report.pin(b.layer.name + ".est_energy_mj",
               exact(cost.dynamic_energy_mj));
  }
  report.pin("chip.crossbars", model.chip->total_crossbars());
  if (total != model.chip->total_crossbars()) {
    report.fail("rebuilt blocks program " + std::to_string(total) +
                " crossbars, the deployed chip " +
                std::to_string(model.chip->total_crossbars()));
  }
}

void probe_deployed_layers(const DeployedUnderTest& model,
                           const std::vector<Tensor>& images,
                           const std::vector<Tensor>& reference,
                           Report& report) {
  const int saved_threads = epim::num_threads();
  epim::set_num_threads(1);
  const Replica replica(model);
  const auto& blocks = replica.blocks();
  const double n = static_cast<double>(images.size());

  // Whole forward pass as the runtime runs it, then the same images through
  // the rebuilt blocks; alternating the two keeps a drift in host speed
  // from landing on one side only.
  std::vector<double> forward_ms;
  std::vector<std::vector<std::uint32_t>> codes(blocks.size());
  std::vector<std::vector<double>> block_ms(blocks.size());
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = thread_cpu_ms();
    const std::vector<Tensor> got = model.chip->forward_batch(images);
    forward_ms.push_back((thread_cpu_ms() - t0) / n);
    std::vector<double> engine_ms(blocks.size(), 0.0);
    for (std::size_t i = 0; i < images.size(); ++i) {
      const Tensor logits =
          replica.forward(images[i], engine_ms, i == 0 ? &codes : nullptr);
      if (pass == 0 && (!same_bits(got[i], reference[i]) ||
                        !same_bits(logits, reference[i]))) {
        report.fail("forward_batch or the rebuilt blocks differ from the "
                    "chip's reference logits");
      }
    }
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      block_ms[b].push_back(engine_ms[b] / n);
    }
  }

  const double fwd = median(forward_ms);
  double block_sum = 0.0, mvm_total_ms = 0.0;
  std::int64_t calls = 0;
  report.metric("runtime.forward_ms_per_image", fwd, "ms");
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Block& blk = blocks[b];
    const std::string k = std::to_string(b + 1);
    const double ms = median(block_ms[b]);
    block_sum += ms;
    report.metric("datapath.block" + k + "_ms", ms, "ms");
    const MvmCost mvm = mvm_cost(blk, replica.config(), codes[b]);
    report.metric("pim.mvm_ns.block" + k, mvm.ns, "ns");
    calls += mvm.calls;
    mvm_total_ms += static_cast<double>(mvm.calls) * mvm.ns * 1e-6;
  }
  report.metric("runtime.other_ms", fwd - block_sum, "ms");
  report.metric("pim.mvm_calls_per_image", static_cast<double>(calls),
                "count");
  report.metric("pim.mvm_share", mvm_total_ms / fwd, "ratio");
  epim::set_num_threads(saved_threads);
}

}  // namespace perfbench
