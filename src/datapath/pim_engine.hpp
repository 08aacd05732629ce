// Crossbar-backed execution of an epitome layer.
//
// Where DatapathSimulator models the datapath with float arithmetic, this
// engine runs the same schedule on the functional CrossbarArray model:
// quantized integer epitome weights are programmed (once) into a grid of
// bit-sliced crossbars; each activation round drives the IFRT-selected word
// lines bit-serially and digitizes column currents through the shared ADCs.
// With adequate ADC resolution the result is bit-exact with the integer
// reference convolution -- the end-to-end hardware-correctness test of the
// repo -- and with a starved ADC it exhibits realistic clipping error.
//
// Execution layout. The constructor decodes every round's IFRT into a flat
// gather list (word line, kernel offset, input-channel base) and every
// tile's position-invariant active word-line list, so no table is decoded
// per output position. run() splits the output positions into parallel
// chunks; per round, a chunk gathers the codes of all its positions into
// one contiguous (positions x word lines) uint32 arena (padding taps are
// written as 0; word lines the round leaves inactive are never read), then
// every tile the round drives makes ONE CrossbarArray::mvm_rows() call over
// all of the chunk's positions, accumulating into a (positions x width)
// partial-sum block per round. The OFAT merge then writes the output. The
// arena is per chunk of one image's positions, never per batch, which
// keeps the resident set small. Results are bit-identical to running every
// position through the one-vector mvm() in turn.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sample_plan.hpp"
#include "datapath/index_tables.hpp"
#include "nn/layer.hpp"
#include "pim/crossbar.hpp"

namespace epim {

/// Integer image, NCHW single sample: data[(c*h + y)*w + x].
struct IntImage {
  std::int64_t channels = 0, height = 0, width = 0;
  std::vector<std::uint32_t> data;

  std::int64_t numel() const { return channels * height * width; }
};

/// Integer output accumulators, same layout as IntImage but signed 64-bit.
struct IntOutput {
  std::int64_t channels = 0, height = 0, width = 0;
  std::vector<std::int64_t> data;
};

class PimLayerEngine {
 public:
  /// `weights` is the logical epitome weight matrix: weights[row][col] with
  /// row = word line (e_ci * p + py) * q + qx and col = epitome output
  /// channel, as signed weight_bits-bit integers. Non-idealities, if any,
  /// perturb every programmed crossbar (write variation / hard faults).
  PimLayerEngine(ConvLayerInfo layer, EpitomeSpec spec,
                 const std::vector<std::vector<int>>& weights, int weight_bits,
                 const CrossbarConfig& config,
                 const NonIdealityConfig& non_ideal = {});

  /// Number of crossbar tiles programmed.
  std::int64_t num_crossbars() const {
    return static_cast<std::int64_t>(tiles_.size());
  }

  const EpitomeSpec& spec() const { return plan_.spec(); }
  const ConvLayerInfo& layer() const { return layer_; }

  /// Run the layer; activations must each fit in act_bits (unsigned).
  /// Output positions are processed in parallel (deterministically: every
  /// position writes disjoint output cells). ADC clip events are added to
  /// *clip_count when it is non-null; run() mutates nothing, so concurrent
  /// callers may share one programmed engine.
  IntOutput run(const IntImage& input, int act_bits,
                std::int64_t* clip_count) const;

 private:
  struct Tile {
    CrossbarArray array;
    std::int64_t row_begin, row_count;
    std::int64_t col_begin, col_count;
  };
  /// One IFRT entry decoded: drive word line `word_line` with the code at
  /// `offset` from the position's window origin in the zero-padded input,
  /// offset = (ci * padded_h + ky) * padded_w + kx.
  struct Gather {
    std::int64_t word_line;
    std::int64_t offset;
  };
  /// One tile driven by a round: its active word lines (tile-local,
  /// ascending) and the output columns the round keeps.
  struct TilePass {
    std::size_t tile;
    std::vector<std::int32_t> active;
    std::int64_t ncols;
  };
  /// One crossbar activation round, in IFAT order.
  struct Round {
    std::int64_t round;
    std::vector<Gather> gather;
    std::vector<TilePass> passes;
  };

  ConvLayerInfo layer_;
  SamplePlan plan_;
  IndexTables tables_;
  CrossbarConfig config_;
  std::vector<Tile> tiles_;
  std::vector<Round> rounds_;
  /// Per plan round id: offset of the round's output columns within a
  /// position's row of partial sums, partial_width_ wide in total.
  std::vector<std::int64_t> round_co_offset_;
  std::int64_t partial_width_ = 0;
};

}  // namespace epim
