#include "jp2k/rate_control.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "jp2k/t2_encoder.hpp"

namespace cj2k::jp2k {

double hull_weight(const Subband& sb, WaveletKind kind, int tile_levels) {
  const double gain = subband_synthesis_gain(kind, sb.info.level,
                                             sb.info.orient, tile_levels);
  return (sb.quant_step * gain) * (sb.quant_step * gain);
}

void build_block_hull(CodeBlock& cb, double weight,
                      std::uint64_t block_ordinal,
                      std::vector<HullSegment>& out,
                      RateControlStats* stats) {
  struct Point {
    std::size_t r;
    double d;
    int passes;
  };
  std::vector<Point> hull;
  hull.push_back({0, 0.0, 0});

  std::size_t r = 0;
  double d = 0.0;
  for (std::size_t i = 0; i < cb.enc.passes.size(); ++i) {
    if (stats) ++stats->passes_considered;
    const auto& pi = cb.enc.passes[i];
    r = pi.trunc_len;
    d += pi.dist_reduction * weight;
    // Pop hull points that this one dominates (keeps slopes decreasing).
    while (hull.size() >= 2) {
      const Point& a = hull[hull.size() - 2];
      const Point& b = hull.back();
      const double s_ab =
          b.r > a.r ? (b.d - a.d) / static_cast<double>(b.r - a.r) : 1e300;
      const double s_bx =
          r > b.r ? (d - b.d) / static_cast<double>(r - b.r) : 1e300;
      if (s_bx >= s_ab) {
        hull.pop_back();
      } else {
        break;
      }
    }
    if (r > hull.back().r && d > hull.back().d) {
      hull.push_back({r, d, static_cast<int>(i) + 1});
    } else if (r <= hull.back().r && d > hull.back().d) {
      // Same rate, more distortion reduction: replace.
      hull.back() = {hull.back().r, d, static_cast<int>(i) + 1};
    }
  }

  for (std::size_t i = 1; i < hull.size(); ++i) {
    if (stats) ++stats->hull_points;
    const auto& a = hull[i - 1];
    const auto& b = hull[i];
    out.push_back({(b.d - a.d) / static_cast<double>(b.r - a.r), b.r - a.r,
                   &cb, b.passes, b.r, (block_ordinal << 16) | (i - 1)});
  }
}

std::vector<HullSegment> build_sorted_segments(Tile& tile, WaveletKind kind,
                                               RateControlStats& stats,
                                               std::uint64_t ordinal_base) {
  std::vector<HullSegment> segments;
  std::uint64_t ordinal = ordinal_base;
  for (auto& tc : tile.components) {
    for (auto& sb : tc.subbands) {
      const double w = hull_weight(sb, kind, tile.levels);
      for (auto& cb : sb.blocks) {
        cb.included_passes = 0;
        cb.included_len = 0;
        cb.layer_passes.clear();
        build_block_hull(cb, w, ordinal++, segments, &stats);
      }
    }
  }
  std::sort(segments.begin(), segments.end(), hull_segment_before);
  return segments;
}

std::vector<HullSegment> merge_segment_lists(
    std::vector<std::vector<HullSegment>>&& lists) {
  // Drop empty lists up front.
  std::vector<std::vector<HullSegment>> src;
  src.reserve(lists.size());
  std::size_t total = 0;
  for (auto& l : lists) {
    if (!l.empty()) {
      total += l.size();
      src.push_back(std::move(l));
    }
  }
  lists.clear();

  std::vector<HullSegment> out;
  out.reserve(total);
  if (src.empty()) return out;
  if (src.size() == 1) return std::move(src.front());

  // Tournament over the K list heads (K is small: one list per worker).
  std::vector<std::size_t> head(src.size(), 0);
  struct HeapEntry {
    const HullSegment* seg;
    std::size_t list;
  };
  auto heap_after = [](const HeapEntry& a, const HeapEntry& b) {
    // std::push_heap keeps the *largest* on top; "largest" = first in the
    // slope order.
    return hull_segment_before(*b.seg, *a.seg);
  };
  std::vector<HeapEntry> heap;
  heap.reserve(src.size());
  for (std::size_t k = 0; k < src.size(); ++k) {
    heap.push_back({&src[k][0], k});
  }
  std::make_heap(heap.begin(), heap.end(), heap_after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    const HeapEntry top = heap.back();
    heap.pop_back();
    out.push_back(*top.seg);
    const std::size_t next = ++head[top.list];
    if (next < src[top.list].size()) {
      heap.push_back({&src[top.list][next], top.list});
      std::push_heap(heap.begin(), heap.end(), heap_after);
    }
  }
  return out;
}

std::size_t IncrementalScan::advance(std::size_t max_segments) {
  if (done()) return 0;
  const auto& segments = *segments_;
  std::size_t examined = 0;
  while (examined < max_segments && position_ < segments.size()) {
    const auto& seg = segments[position_];
    if (used_ + seg.delta_r > budget_) {
      stopped_ = true;
      break;
    }
    used_ += seg.delta_r;
    seg.block->included_passes = seg.pass_count;
    seg.block->included_len = seg.trunc_len;
    lambda_ = seg.slope;
    ++position_;
    ++examined;
  }
  return examined;
}

void IncrementalScan::set_budget(std::size_t body_budget) {
  CJ2K_CHECK_MSG(body_budget >= budget_, "scan budgets must be ascending");
  budget_ = body_budget;
  stopped_ = false;
}

namespace {

/// Total T2 size across the tile set (the multi-tile refinement target;
/// per-tile framing overhead is subtracted from the budget by the caller).
std::size_t t2_encoded_size_tiles(const std::vector<Tile*>& tiles) {
  std::size_t total = 0;
  for (const Tile* t : tiles) total += t2_encoded_size(*t);
  return total;
}

std::size_t sized_total(const std::vector<Tile*>& tiles, const SizingFn& sizer,
                        int iteration) {
  return sizer ? sizer(iteration) : t2_encoded_size_tiles(tiles);
}

}  // namespace

RateControlStats rate_control_presorted_tiles(
    const std::vector<Tile*>& tiles, std::size_t total_budget_bytes,
    const std::vector<HullSegment>& segments, RateControlStats stats,
    const SizingFn& sizer) {
  CJ2K_CHECK_MSG(!tiles.empty(), "need at least one tile");
  stats.target_bytes = total_budget_bytes;

  // Iteratively shrink the body budget until headers + bodies fit.
  std::size_t body_budget =
      total_budget_bytes > total_budget_bytes / 20 + 32
          ? total_budget_bytes - total_budget_bytes / 20 - 32
          : 0;
  for (int iter = 0; iter < 8; ++iter) {
    ++stats.iterations;
    // Greedy prefix of the slope-sorted segments.  A block's segments have
    // decreasing slopes, so a prefix always yields consistent truncation
    // points.
    for (Tile* tp : tiles) {
      for (auto& tc : tp->components) {
        for (auto& sb : tc.subbands) {
          for (auto& cb : sb.blocks) {
            cb.included_passes = 0;
            cb.included_len = 0;
          }
        }
      }
    }
    IncrementalScan scan(segments, body_budget);
    scan.run_to_stop();
    stats.selected_bytes = scan.used();
    stats.lambda = scan.lambda();

    const std::size_t total = sized_total(tiles, sizer, iter);
    stats.scan_iterations.push_back(
        {body_budget, scan.used(), scan.position(), total});
    if (total <= total_budget_bytes || body_budget == 0) break;
    const std::size_t overshoot = total - total_budget_bytes;
    body_budget = body_budget > overshoot + 16 ? body_budget - overshoot - 16
                                               : 0;
  }
  return stats;
}

RateControlStats rate_control_layered_presorted_tiles(
    const std::vector<Tile*>& tiles, const std::vector<std::size_t>& budgets,
    const std::vector<HullSegment>& segments, RateControlStats stats,
    const SizingFn& sizer) {
  CJ2K_CHECK_MSG(!tiles.empty(), "need at least one tile");
  CJ2K_CHECK_MSG(!budgets.empty(), "need at least one layer budget");
  for (std::size_t i = 1; i < budgets.size(); ++i) {
    CJ2K_CHECK_MSG(budgets[i] >= budgets[i - 1],
                   "layer budgets must be ascending");
  }
  for (Tile* tp : tiles) tp->layers = static_cast<int>(budgets.size());
  stats.target_bytes = budgets.back();

  // Final-layer body budget, refined against the real T2 size as in the
  // single-layer path; intermediate layers scale proportionally.
  std::size_t final_body =
      budgets.back() > budgets.back() / 20 + 32 * budgets.size()
          ? budgets.back() - budgets.back() / 20 - 32 * budgets.size()
          : 0;
  for (int iter = 0; iter < 8; ++iter) {
    ++stats.iterations;
    for (Tile* tp : tiles) {
      for (auto& tc : tp->components) {
        for (auto& sb : tc.subbands) {
          for (auto& cb : sb.blocks) {
            cb.included_passes = 0;
            cb.included_len = 0;
            cb.layer_passes.assign(budgets.size(), 0);
          }
        }
      }
    }
    const double scale = budgets.back() > 0
                             ? static_cast<double>(final_body) /
                                   static_cast<double>(budgets.back())
                             : 0.0;
    // One walk over the slope order: each layer raises the budget and
    // resumes the scan where the previous layer's wall stopped it (the
    // blocking segment is retried against the larger budget).
    IncrementalScan scan(segments, static_cast<std::size_t>(
                                       static_cast<double>(budgets[0]) * scale));
    for (std::size_t l = 0; l < budgets.size(); ++l) {
      if (l > 0) {
        scan.set_budget(static_cast<std::size_t>(
            static_cast<double>(budgets[l]) * scale));
      }
      scan.run_to_stop();
      // Freeze this layer's cumulative pass counts.
      for (Tile* tp : tiles) {
        for (auto& tc : tp->components) {
          for (auto& sb : tc.subbands) {
            for (auto& cb : sb.blocks) {
              cb.layer_passes[l] = cb.included_passes;
            }
          }
        }
      }
    }
    stats.selected_bytes = scan.used();
    if (scan.position() > 0) stats.lambda = scan.lambda();

    const std::size_t total = sized_total(tiles, sizer, iter);
    stats.scan_iterations.push_back(
        {final_body, scan.used(), scan.position(), total});
    if (total <= budgets.back() || final_body == 0) break;
    const std::size_t overshoot = total - budgets.back();
    final_body =
        final_body > overshoot + 16 ? final_body - overshoot - 16 : 0;
  }
  return stats;
}

RateControlStats rate_control(Tile& tile, std::size_t total_budget_bytes,
                              WaveletKind kind) {
  RateControlStats stats;
  const auto segments = build_sorted_segments(tile, kind, stats);
  return rate_control_presorted_tiles({&tile}, total_budget_bytes, segments,
                                      stats);
}

RateControlStats rate_control_layered(Tile& tile,
                                      const std::vector<std::size_t>& budgets,
                                      WaveletKind kind) {
  RateControlStats stats;
  const auto segments = build_sorted_segments(tile, kind, stats);
  return rate_control_layered_presorted_tiles({&tile}, budgets, segments,
                                              stats);
}

}  // namespace cj2k::jp2k
