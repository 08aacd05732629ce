#include "datapath/pim_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/parallel.hpp"

namespace epim {

PimLayerEngine::PimLayerEngine(ConvLayerInfo layer, EpitomeSpec spec,
                               const std::vector<std::vector<int>>& weights,
                               int weight_bits, const CrossbarConfig& config,
                               const NonIdealityConfig& non_ideal)
    : layer_(std::move(layer)),
      plan_(spec, layer_.conv),
      tables_(plan_),
      config_(config) {
  const std::int64_t rows = spec.rows();
  const std::int64_t cols = spec.cout_e;
  EPIM_CHECK(static_cast<std::int64_t>(weights.size()) == rows,
             "weight matrix rows must equal epitome word lines");
  const std::int64_t slices = config.weight_slices(weight_bits);
  const std::int64_t cols_per_tile =
      std::max<std::int64_t>(1, config.cols / slices);
  // Tile the logical matrix over crossbars: rows in chunks of config.rows,
  // logical columns in chunks that keep all of a weight's slices on one
  // crossbar.
  for (std::int64_t r0 = 0; r0 < rows; r0 += config.rows) {
    const std::int64_t rc = std::min(config.rows, rows - r0);
    for (std::int64_t c0 = 0; c0 < cols; c0 += cols_per_tile) {
      const std::int64_t cc = std::min(cols_per_tile, cols - c0);
      std::vector<std::vector<int>> block(
          static_cast<std::size_t>(rc),
          std::vector<int>(static_cast<std::size_t>(cc)));
      for (std::int64_t r = 0; r < rc; ++r) {
        for (std::int64_t c = 0; c < cc; ++c) {
          block[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
              weights[static_cast<std::size_t>(r0 + r)]
                     [static_cast<std::size_t>(c0 + c)];
        }
      }
      // Each tile gets a distinct fault/variation draw.
      NonIdealityConfig tile_ni = non_ideal;
      tile_ni.seed = non_ideal.seed + static_cast<std::uint64_t>(
                                          tiles_.size() * 0x9E37'79B9u);
      tiles_.push_back(Tile{CrossbarArray(config, weight_bits, block,
                                          tile_ni),
                            r0, rc, c0, cc});
    }
  }

  // Per-round output widths (the round's primary OFAT entry) and their
  // column offsets within a position's row of partial sums.
  const std::int64_t num_rounds = plan_.active_rounds();
  std::vector<std::int64_t> round_co_len(
      static_cast<std::size_t>(num_rounds), -1);
  for (const OfatEntry& oe : tables_.ofat()) {
    std::int64_t& len = round_co_len[static_cast<std::size_t>(oe.round)];
    if (oe.replica_of < 0 && len < 0) len = oe.co_stop - oe.co_start;
  }
  round_co_offset_.assign(static_cast<std::size_t>(num_rounds), 0);
  for (std::int64_t r = 0; r < num_rounds; ++r) {
    EPIM_ASSERT(round_co_len[static_cast<std::size_t>(r)] >= 0,
                "every active round has a primary OFAT entry");
    round_co_offset_[static_cast<std::size_t>(r)] = partial_width_;
    partial_width_ += round_co_len[static_cast<std::size_t>(r)];
  }
  for (const OfatEntry& oe : tables_.ofat()) {
    const std::int64_t src = oe.replica_of >= 0 ? oe.replica_of : oe.round;
    EPIM_ASSERT(oe.co_stop - oe.co_start <=
                    round_co_len[static_cast<std::size_t>(src)],
                "OFAT span wider than its source round");
  }

  // Decode the IFRT once: per round, the gather list and the tiles it
  // drives. Gather offsets address the zero-padded input run() builds, so
  // the per-position gather needs no bounds test. A tile sits out a round
  // whose output is narrower than the tile's first column or that enables
  // none of its word lines.
  const ConvSpec& conv = layer_.conv;
  const std::int64_t khw = conv.kernel_h * conv.kernel_w;
  const std::int64_t padded_h = layer_.ifm_h + 2 * conv.pad;
  const std::int64_t padded_w = layer_.ifm_w + 2 * conv.pad;
  for (const IfatEntry& fa : tables_.ifat()) {
    const IfrtSequence& seq =
        tables_.ifrt()[static_cast<std::size_t>(fa.round)];
    Round round{fa.round, {}, {}};
    for (std::int64_t wl = 0; wl < rows; ++wl) {
      const std::int32_t idx = seq.row_to_input[static_cast<std::size_t>(wl)];
      if (idx == IfrtSequence::kInactiveRow) continue;
      // idx = (segment channel * kh + ky) * kw + kx.
      const std::int64_t ci = fa.ci_start + idx / khw;
      const std::int64_t ky = (idx % khw) / conv.kernel_w;
      const std::int64_t kx = idx % conv.kernel_w;
      round.gather.push_back(
          Gather{wl, (ci * padded_h + ky) * padded_w + kx});
    }
    const std::int64_t co_len =
        round_co_len[static_cast<std::size_t>(fa.round)];
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      if (tile.col_begin >= co_len) continue;
      TilePass pass{t, {}, std::min(tile.col_count, co_len - tile.col_begin)};
      for (std::int64_t r = 0; r < tile.row_count; ++r) {
        if (seq.row_to_input[static_cast<std::size_t>(tile.row_begin + r)] !=
            IfrtSequence::kInactiveRow) {
          pass.active.push_back(static_cast<std::int32_t>(r));
        }
      }
      if (!pass.active.empty()) round.passes.push_back(std::move(pass));
    }
    rounds_.push_back(std::move(round));
  }
}

IntOutput PimLayerEngine::run(const IntImage& input, int act_bits,
                              std::int64_t* clip_count) const {
  const ConvSpec& conv = layer_.conv;
  EPIM_CHECK(input.channels == conv.in_channels &&
                 input.height == layer_.ifm_h && input.width == layer_.ifm_w,
             "input image does not match layer spec");
  EPIM_CHECK(static_cast<std::int64_t>(input.data.size()) == input.numel(),
             "input data size mismatch");
  const std::int64_t oh = layer_.ofm_h();
  const std::int64_t ow = layer_.ofm_w();
  const std::int64_t rows = tables_.epitome_rows();
  const std::int64_t width = partial_width_;

  IntOutput out;
  out.channels = conv.out_channels;
  out.height = oh;
  out.width = ow;
  out.data.assign(static_cast<std::size_t>(conv.out_channels * oh * ow), 0);

  // The input with a zero border of conv.pad: every tap of every position
  // reads inside it, and taps in the border drive 0.
  const std::int64_t padded_h = input.height + 2 * conv.pad;
  const std::int64_t padded_w = input.width + 2 * conv.pad;
  std::vector<std::uint32_t> padded(
      static_cast<std::size_t>(input.channels * padded_h * padded_w), 0u);
  for (std::int64_t c = 0; c < input.channels; ++c) {
    for (std::int64_t y = 0; y < input.height; ++y) {
      std::copy_n(input.data.begin() + (c * input.height + y) * input.width,
                  input.width,
                  padded.begin() + (c * padded_h + y + conv.pad) * padded_w +
                      conv.pad);
    }
  }

  // Output positions fan out across threads. Every position writes a
  // disjoint set of out.data cells and the per-position work is pure, so
  // the result is identical at any thread count; clip events accumulate per
  // chunk and sum exactly. The arenas live per chunk: the gathered codes
  // (positions x word lines) and the partial sums (positions x width).
  const std::int64_t positions = oh * ow;
  const int chunks = std::max(num_chunks(positions), 1);
  std::vector<std::int64_t> chunk_clips(static_cast<std::size_t>(chunks), 0);
  parallel_for_chunks(positions, chunks, [&](int chunk, std::int64_t begin,
                                             std::int64_t end) {
    const std::int64_t n = end - begin;
    std::vector<std::uint32_t> codes(static_cast<std::size_t>(n * rows), 0u);
    std::vector<std::int64_t> partials(static_cast<std::size_t>(n * width),
                                       0);
    std::int64_t& clips = chunk_clips[static_cast<std::size_t>(chunk)];

    // Crossbar activation rounds: gather, then one kernel pass per tile.
    for (const Round& round : rounds_) {
      for (std::int64_t p = 0; p < n; ++p) {
        const std::int64_t oy = (begin + p) / ow;
        const std::int64_t ox = (begin + p) % ow;
        const std::uint32_t* window =
            padded.data() + (oy * padded_w + ox) * conv.stride;
        std::uint32_t* line = codes.data() + p * rows;
        for (const Gather& g : round.gather) {
          line[g.word_line] = window[g.offset];
        }
      }
      std::int64_t* partial =
          partials.data() + round_co_offset_[static_cast<std::size_t>(
                                round.round)];
      for (const TilePass& pass : round.passes) {
        const Tile& tile = tiles_[pass.tile];
        tile.array.mvm_rows(codes.data() + tile.row_begin, rows, n,
                            pass.active, act_bits, partial + tile.col_begin,
                            width, pass.ncols, &clips);
      }
    }
    // Joint module / OFAT merge, entry by entry as the hardware applies
    // them; every cell sees the same sequence of writes as a per-position
    // merge.
    for (const OfatEntry& oe : tables_.ofat()) {
      const std::int64_t co_len = oe.co_stop - oe.co_start;
      const std::int64_t* src =
          partials.data() + round_co_offset_[static_cast<std::size_t>(
                                oe.replica_of >= 0 ? oe.replica_of
                                                   : oe.round)];
      for (std::int64_t j = 0; j < co_len; ++j) {
        std::int64_t* cell =
            out.data.data() + (oe.co_start + j) * positions + begin;
        for (std::int64_t p = 0; p < n; ++p) {
          const std::int64_t v = src[p * width + j];
          cell[p] = oe.accumulate ? cell[p] + v : v;
        }
      }
    }
  });
  if (clip_count != nullptr) {
    for (const std::int64_t c : chunk_clips) *clip_count += c;
  }
  return out;
}

}  // namespace epim
