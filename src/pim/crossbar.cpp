#include "pim/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"

namespace epim {

CrossbarArray::CrossbarArray(const CrossbarConfig& config, int weight_bits,
                             const std::vector<std::vector<int>>& weights,
                             const NonIdealityConfig& non_ideal)
    : config_(config), weight_bits_(weight_bits) {
  rows_ = static_cast<std::int64_t>(weights.size());
  EPIM_CHECK(rows_ > 0 && rows_ <= config.rows,
             "crossbar row count out of range");
  cols_ = static_cast<std::int64_t>(weights.front().size());
  EPIM_CHECK(cols_ > 0, "crossbar must have at least one column");
  slices_ = config.weight_slices(weight_bits);
  EPIM_CHECK(cols_ * slices_ <= config.cols,
             "weight matrix does not fit the crossbar's bit lines");
  // Offset-binary encoding: a k-bit two's-complement weight w in
  // [-2^(k-1), 2^(k-1)-1] is stored as the non-negative value w + 2^(k-1),
  // which fits in k bits and therefore in `slices_` cell digits. The mvm()
  // path subtracts offset * sum(inputs) digitally.
  offset_ = std::int64_t{1} << (weight_bits - 1);
  const std::int64_t lo = -offset_, hi = offset_ - 1;
  const int radix_bits = config.cell_bits;
  const int radix_mask = (1 << radix_bits) - 1;
  const double level_max = static_cast<double>(radix_mask);
  ideal_ = non_ideal.ideal();
  Rng rng(non_ideal.seed);
  const std::size_t plane = static_cast<std::size_t>(rows_ * cols_);
  cells_.assign(static_cast<std::size_t>(slices_) * plane, 0.0);
  if (ideal_) signed_weights_.assign(plane, 0);
  for (std::int64_t r = 0; r < rows_; ++r) {
    EPIM_CHECK(static_cast<std::int64_t>(weights[static_cast<std::size_t>(r)]
                                             .size()) == cols_,
               "ragged weight matrix");
    for (std::int64_t c = 0; c < cols_; ++c) {
      const int w = weights[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(c)];
      EPIM_CHECK(w >= lo && w <= hi,
                 "weight out of range for " + std::to_string(weight_bits) +
                     "-bit encoding");
      std::int64_t stored = static_cast<std::int64_t>(w) + offset_;
      for (std::int64_t s = 0; s < slices_; ++s) {
        const std::int64_t digit = stored & radix_mask;
        double level = static_cast<double>(digit);
        if (!ideal_) {
          // Write-time variation and hard faults, applied once per cell.
          if (non_ideal.stuck_at_zero_prob > 0.0 &&
              rng.flip(non_ideal.stuck_at_zero_prob)) {
            level = 0.0;
          } else if (non_ideal.stuck_at_max_prob > 0.0 &&
                     rng.flip(non_ideal.stuck_at_max_prob)) {
            level = level_max;
          } else if (non_ideal.conductance_sigma > 0.0) {
            level = std::clamp(
                level + rng.normal(0.0, non_ideal.conductance_sigma), 0.0,
                level_max);
          }
        }
        cells_[static_cast<std::size_t>((s * rows_ + r) * cols_ + c)] = level;
        stored >>= radix_bits;
      }
      if (ideal_) {
        signed_weights_[static_cast<std::size_t>(r * cols_ + c)] = w;
      }
    }
  }
  if (ideal_) {
    // Worst-case per-cycle column current: every row enabled and driving a
    // one bit. If even that fits the ADC, no input can ever clip and the
    // whole bit-serial schedule collapses to one integer dot product.
    // (Ideal cells hold exact small integers, so the double sums are exact.)
    const double adc_max =
        static_cast<double>((std::int64_t{1} << config_.adc_bits) - 1);
    double worst = 0.0;
    for (std::int64_t s = 0; s < slices_; ++s) {
      for (std::int64_t c = 0; c < cols_; ++c) {
        double sum = 0.0;
        const double* col = cells_.data() + s * rows_ * cols_ + c;
        for (std::int64_t r = 0; r < rows_; ++r) sum += col[r * cols_];
        worst = std::max(worst, sum);
      }
    }
    never_clips_ = worst <= adc_max;
    // Narrow direct path: int16 operands, int32 column sums. |w| <= offset
    // and a masked input is at most act_max, so every partial sum over the
    // rows_ rows is bounded by rows * offset * act_max; below 2^31 the int32
    // sums are exact. Operands must also fit int16.
    if (offset_ <= std::int64_t{1} << 15) {
      narrow_act_max_ = std::min<std::int64_t>(
          std::numeric_limits<std::int16_t>::max(),
          std::numeric_limits<std::int32_t>::max() / offset_ / rows_);
      weights_t16_.resize(plane);
      for (std::int64_t r = 0; r < rows_; ++r) {
        for (std::int64_t c = 0; c < cols_; ++c) {
          weights_t16_[static_cast<std::size_t>(c * rows_ + r)] =
              static_cast<std::int16_t>(
                  signed_weights_[static_cast<std::size_t>(r * cols_ + c)]);
        }
      }
    }
  }
}

namespace {

/// Per-thread scratch for the kernel: callers of the one-vector wrappers
/// may call once per output position, so these buffers must not be
/// reallocated per call. Thread-local keeps the kernel allocation-free and
/// race-free; every element is overwritten before use, so results stay
/// deterministic.
thread_local std::vector<std::int32_t> t_active;
thread_local std::vector<std::int16_t> t_x16;
thread_local std::vector<std::int64_t> t_acc64;
thread_local std::vector<double> t_current_analog;

}  // namespace

// The direct paths: with exact digits and a wide ADC the shift-add over
// cycles and slices telescopes to sum_r in[r] * (w[r][c] + offset) with
// in[r] = input[r] truncated to act_bits, and the offset correction cancels
// against the truncated part of the bias -- so compute the signed product
// outright. The bit-serial reference streams only act_bits input bits but
// corrects with the *full* input sum; the residual term mirrors that
// bit-for-bit (zero for in-contract inputs).

void CrossbarArray::mvm_direct_narrow(const std::uint32_t* codes,
                                      std::int64_t stride, std::int64_t n,
                                      std::span<const std::int32_t> active,
                                      std::uint32_t mask, std::int64_t* out,
                                      std::int64_t out_stride,
                                      std::int64_t ncols) const {
  // One dense int16 input vector per position (inactive rows 0), then one
  // int32 dot product per column against the transposed weights: a plain
  // multiply-add reduction the compiler vectorizes.
  std::vector<std::int16_t>& x = t_x16;
  x.resize(static_cast<std::size_t>(rows_));
  for (std::int64_t p = 0; p < n; ++p) {
    const std::uint32_t* input = codes + p * stride;
    std::fill(x.begin(), x.end(), std::int16_t{0});
    std::int64_t full_sum = 0, masked_sum = 0;
    for (const std::int32_t r : active) {
      const std::uint32_t v = input[r];
      full_sum += v;
      masked_sum += v & mask;
      x[static_cast<std::size_t>(r)] = static_cast<std::int16_t>(v & mask);
    }
    const std::int64_t residual = offset_ * (full_sum - masked_sum);
    std::int64_t* o = out + p * out_stride;
    for (std::int64_t c = 0; c < ncols; ++c) {
      const std::int16_t* w = weights_t16_.data() + c * rows_;
      std::int32_t sum = 0;
      for (std::int64_t r = 0; r < rows_; ++r) {
        sum += static_cast<std::int32_t>(x[static_cast<std::size_t>(r)]) *
               static_cast<std::int32_t>(w[r]);
      }
      o[c] += sum - residual;
    }
  }
}

void CrossbarArray::mvm_direct_wide(const std::uint32_t* codes,
                                    std::int64_t stride, std::int64_t n,
                                    std::span<const std::int32_t> active,
                                    std::uint32_t mask, std::int64_t* out,
                                    std::int64_t out_stride,
                                    std::int64_t ncols) const {
  std::vector<std::int64_t>& acc = t_acc64;
  acc.resize(static_cast<std::size_t>(ncols));
  for (std::int64_t p = 0; p < n; ++p) {
    const std::uint32_t* input = codes + p * stride;
    std::fill(acc.begin(), acc.end(), 0);
    std::int64_t full_sum = 0, masked_sum = 0;
    for (const std::int32_t r : active) {
      full_sum += input[r];
      const std::int64_t in = input[r] & mask;
      masked_sum += in;
      if (in == 0) continue;
      const std::int32_t* row =
          signed_weights_.data() + static_cast<std::int64_t>(r) * cols_;
      for (std::int64_t c = 0; c < ncols; ++c) {
        acc[static_cast<std::size_t>(c)] += in * row[c];
      }
    }
    const std::int64_t residual = offset_ * (full_sum - masked_sum);
    std::int64_t* o = out + p * out_stride;
    for (std::int64_t c = 0; c < ncols; ++c) {
      o[c] += acc[static_cast<std::size_t>(c)] - residual;
    }
  }
}

void CrossbarArray::mvm_analog(const std::uint32_t* input,
                               std::span<const std::int32_t> active,
                               int act_bits, std::int64_t* acc,
                               std::int64_t& clips) const {
  const std::int64_t adc_max = (std::int64_t{1} << config_.adc_bits) - 1;
  const int radix_bits = config_.cell_bits;
  // Bit-serial input streaming: cycle t drives input bit t on every enabled
  // word line; each slice's column current is digitized and shift-added.
  // (Row-major accumulation in ascending row order: word lines whose input
  // bit is zero draw no current and are skipped outright.)
  std::vector<double>& current = t_current_analog;
  current.assign(static_cast<std::size_t>(cols_), 0.0);
  for (int t = 0; t < act_bits; ++t) {
    for (std::int64_t s = 0; s < slices_; ++s) {
      const double* plane = cells_.data() + s * rows_ * cols_;
      std::fill(current.begin(), current.end(), 0.0);
      for (const std::int32_t r : active) {
        if (((input[r] >> t) & 1u) == 0u) continue;
        const double* row = plane + static_cast<std::int64_t>(r) * cols_;
        for (std::int64_t c = 0; c < cols_; ++c) current[c] += row[c];
      }
      for (std::int64_t c = 0; c < cols_; ++c) {
        // The ADC digitizes the analog column current to an integer code.
        std::int64_t code = static_cast<std::int64_t>(
            std::llround(current[static_cast<std::size_t>(c)]));
        if (code > adc_max) {  // saturating ADC
          code = adc_max;
          ++clips;
        }
        if (code < 0) code = 0;
        acc[c] += code << (t + static_cast<int>(s) * radix_bits);
      }
    }
  }
}

void CrossbarArray::mvm_rows(const std::uint32_t* codes, std::int64_t stride,
                             std::int64_t n,
                             std::span<const std::int32_t> active,
                             int act_bits, std::int64_t* out,
                             std::int64_t out_stride, std::int64_t ncols,
                             std::int64_t* clip_count) const {
  EPIM_CHECK(act_bits >= 1 && act_bits <= 32, "act_bits out of range");
  EPIM_CHECK(ncols >= 0 && ncols <= cols_, "ncols out of range");
  EPIM_CHECK(n >= 0 && (n <= 1 || stride >= rows_),
             "code stride shorter than the logical rows");
  EPIM_CHECK(active.empty() || (active.front() >= 0 && active.back() < rows_),
             "active row out of range");

  if (ideal_ && never_clips_) {
    const std::uint32_t mask =
        act_bits >= 32 ? 0xFFFF'FFFFu : (1u << act_bits) - 1u;
    if (static_cast<std::int64_t>(mask) <= narrow_act_max_) {
      mvm_direct_narrow(codes, stride, n, active, mask, out, out_stride,
                        ncols);
    } else {
      mvm_direct_wide(codes, stride, n, active, mask, out, out_stride,
                      ncols);
    }
    return;  // no clipping by construction
  }

  // Bit-serial analog reference: one vector at a time, every column (clip
  // events are counted over the whole array), then the first ncols are
  // added to out.
  std::vector<std::int64_t>& acc = t_acc64;
  std::int64_t clips = 0;
  for (std::int64_t p = 0; p < n; ++p) {
    const std::uint32_t* input = codes + p * stride;
    acc.assign(static_cast<std::size_t>(cols_), 0);
    mvm_analog(input, active, act_bits, acc.data(), clips);
    // Remove the offset-binary bias: stored = w + offset, so the analog
    // result overcounts by offset * sum(enabled inputs).
    std::int64_t input_sum = 0;
    for (const std::int32_t r : active) input_sum += input[r];
    std::int64_t* o = out + p * out_stride;
    for (std::int64_t c = 0; c < ncols; ++c) {
      o[c] += acc[static_cast<std::size_t>(c)] - offset_ * input_sum;
    }
  }
  if (clip_count != nullptr) *clip_count += clips;
}

void CrossbarArray::mvm(const std::vector<std::uint32_t>& input,
                        const std::vector<bool>& row_enable, int act_bits,
                        std::vector<std::int64_t>& acc,
                        std::int64_t* clip_count) const {
  EPIM_CHECK(static_cast<std::int64_t>(input.size()) == rows_,
             "input length must equal logical rows");
  EPIM_CHECK(static_cast<std::int64_t>(row_enable.size()) == rows_,
             "row_enable length must equal logical rows");
  // Row gating as a dense index list: the kernel walks only the enabled
  // word lines.
  std::vector<std::int32_t>& active = t_active;
  active.clear();
  for (std::int64_t r = 0; r < rows_; ++r) {
    if (row_enable[static_cast<std::size_t>(r)]) {
      active.push_back(static_cast<std::int32_t>(r));
    }
  }
  acc.assign(static_cast<std::size_t>(cols_), 0);
  mvm_rows(input.data(), rows_, 1, active, act_bits, acc.data(), cols_, cols_,
           clip_count);
}

std::vector<std::int64_t> CrossbarArray::mvm(
    const std::vector<std::uint32_t>& input,
    const std::vector<bool>& row_enable, int act_bits) const {
  std::vector<std::int64_t> acc;
  mvm(input, row_enable, act_bits, acc, nullptr);
  return acc;
}

std::vector<std::int64_t> CrossbarArray::mvm(
    const std::vector<std::uint32_t>& input, int act_bits) const {
  return mvm(input, std::vector<bool>(input.size(), true), act_bits);
}

}  // namespace epim
