// Functional (bit-accurate) memristor crossbar model.
//
// The estimator (estimator.hpp) predicts latency/energy analytically; this
// class models the *values*: integer weights are programmed into 2^cell_bits-
// level cells across bit slices (offset binary encoding so negative weights
// fit on non-negative conductances), inputs are streamed bit-serially, column
// currents are digitized by an ADC of finite resolution, and shift-add logic
// recombines slices and input bits. With sufficient ADC resolution the result
// is exactly the integer matrix-vector product -- a property the test suite
// verifies -- and with a starved ADC it degrades, which the ablation bench
// sweeps.
//
// Storage is one contiguous buffer (slice-major, row-major planes) walked
// with pointer arithmetic. The kernel is mvm_rows(): one call evaluates n
// input vectors laid out as the rows of a (n x stride) code matrix -- the
// layer engine's gather arena -- against one shared active word-line list.
// It dispatches on the array's mode:
//  * direct path (ideal array whose ADC can never clip for any input): the
//    whole bit-serial schedule collapses to one signed dot product per
//    column. It sums in int32 when rows x offset x (2^act_bits - 1) < 2^31,
//    which bounds every partial sum and so proves int32 exact, taking its
//    operands as int16 (inputs below 2^15, weights of at most 16 bits) so
//    the dot product vectorizes on the baseline ISA; otherwise in int64;
//  * analog path (every other array: non-ideal, or ideal with an ADC that
//    can clip): the double-precision bit-serial reference. An ideal
//    array's cells hold exact small integers, so its current sums and
//    llround are exact and it reproduces ADC saturation bit for bit.
// The analog path runs vector by vector in ascending row order, so its
// doubles and clip counts are those of one-vector calls. Both direct paths
// are bit-identical to the analog reference on an ideal array. The
// per-vector mvm() overloads are n = 1 wrappers over the same kernel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pim/config.hpp"
#include "tensor/tensor.hpp"

namespace epim {

/// Device non-idealities applied at programming time (write variation and
/// hard faults). With all fields zero the array is ideal and bit-exact.
struct NonIdealityConfig {
  /// Std-dev of Gaussian conductance error per cell, in conductance-level
  /// units (a 2-bit cell has levels 0..3; sigma 0.1 means ~10% of a level).
  double conductance_sigma = 0.0;
  /// Probability that a cell is stuck at zero conductance (open fault).
  double stuck_at_zero_prob = 0.0;
  /// Probability that a cell is stuck at maximum conductance (short fault).
  double stuck_at_max_prob = 0.0;
  std::uint64_t seed = 0x5711Cu;

  bool ideal() const {
    return conductance_sigma == 0.0 && stuck_at_zero_prob == 0.0 &&
           stuck_at_max_prob == 0.0;
  }
};

/// One physical crossbar programmed with an integer weight matrix.
class CrossbarArray {
 public:
  /// Program a (rows x cols) *logical* integer weight matrix. Weights must
  /// fit in weight_bits two's-complement. rows/cols must fit the crossbar
  /// (cols * slices <= config.cols). Non-idealities, if any, perturb the
  /// programmed conductances once (write-time variation model).
  CrossbarArray(const CrossbarConfig& config, int weight_bits,
                const std::vector<std::vector<int>>& weights,
                const NonIdealityConfig& non_ideal = {});

  std::int64_t logical_rows() const { return rows_; }
  std::int64_t logical_cols() const { return cols_; }

  /// Bit-serial MVM over n input vectors. Vector p's code for logical row r
  /// is codes[p * stride + r] (unsigned, each fitting in act_bits); only the
  /// rows listed in `active` (ascending, each < logical_rows()) are driven --
  /// the IFRT mechanism: disabled rows contribute nothing and are never read.
  /// The first `ncols` column accumulators of vector p are *added* to
  /// out[p * out_stride + c]. ADC clip events (counted over every column)
  /// are added to *clip_count when it is non-null.
  ///
  /// The computation is exact iff every per-cycle column current fits in the
  /// ADC range; otherwise currents clip (saturating ADC).
  void mvm_rows(const std::uint32_t* codes, std::int64_t stride,
                std::int64_t n, std::span<const std::int32_t> active,
                int act_bits, std::int64_t* out, std::int64_t out_stride,
                std::int64_t ncols, std::int64_t* clip_count) const;

  /// One input vector: `input` holds an activation for every logical row;
  /// `row_enable` masks word lines. Returns one signed integer accumulator
  /// per logical column.
  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                const std::vector<bool>& row_enable,
                                int act_bits) const;

  /// Convenience: all rows enabled.
  std::vector<std::int64_t> mvm(const std::vector<std::uint32_t>& input,
                                int act_bits) const;

  /// As above, into `acc`, with ADC clip events added to *clip_count when
  /// it is non-null -- the only clip-count API, so concurrent callers
  /// sharing one programmed array never race.
  void mvm(const std::vector<std::uint32_t>& input,
           const std::vector<bool>& row_enable, int act_bits,
           std::vector<std::int64_t>& acc, std::int64_t* clip_count) const;

 private:
  /// Direct path, int16 operands and int32 column sums (exact by the
  /// narrow_act_max_ bound).
  void mvm_direct_narrow(const std::uint32_t* codes, std::int64_t stride,
                         std::int64_t n, std::span<const std::int32_t> active,
                         std::uint32_t mask, std::int64_t* out,
                         std::int64_t out_stride, std::int64_t ncols) const;
  /// Direct path, int64 column sums: any input width.
  void mvm_direct_wide(const std::uint32_t* codes, std::int64_t stride,
                       std::int64_t n, std::span<const std::int32_t> active,
                       std::uint32_t mask, std::int64_t* out,
                       std::int64_t out_stride, std::int64_t ncols) const;
  /// Analog reference path (every array the direct paths cannot take),
  /// one vector.
  void mvm_analog(const std::uint32_t* input,
                  std::span<const std::int32_t> active, int act_bits,
                  std::int64_t* acc, std::int64_t& clips) const;

  CrossbarConfig config_;
  int weight_bits_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t slices_ = 0;
  std::int64_t offset_ = 0;  ///< offset-binary bias: stored = w + offset
  /// Programmed conductances in level units, one contiguous buffer:
  /// cells_[(s * rows_ + r) * cols_ + c]. Exactly the digit of (w + offset)
  /// for an ideal array; perturbed by the non-ideality model otherwise.
  std::vector<double> cells_;
  /// Ideal arrays only: the signed logical weights, row-major (rows x cols),
  /// the operands of the direct path.
  std::vector<std::int32_t> signed_weights_;
  /// Ideal arrays with offset <= 2^15 only: the same weights as int16,
  /// transposed (cols x rows), the operands of the narrow direct path.
  std::vector<std::int16_t> weights_t16_;
  /// Largest 2^act_bits - 1 the narrow direct path takes: inputs fit int16
  /// and rows x offset x (2^act_bits - 1) < 2^31, so int32 sums are exact.
  /// 0 when the weights do not fit int16.
  std::int64_t narrow_act_max_ = 0;
  bool ideal_ = true;
  /// True when no per-cycle column current can exceed the ADC range for any
  /// input (precomputed worst case: all rows enabled, all input bits set);
  /// licenses the direct integer path, which skips the ADC entirely.
  bool never_clips_ = false;
};

}  // namespace epim
