// The exact dynamic partition (Algorithm 1) as the split scan ran it before
// its lanes could be approximate: the in-place memo, one exact side kernel
// call per side, and the in-order first-minimum fold over every candidate's
// exact total. Production's certified scan must return the same bounds.
#ifndef UUQ_TESTS_PARTITION_ORACLE_H_
#define UUQ_TESTS_PARTITION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "core/bucket.h"
#include "core/estimate.h"

namespace uuq {
namespace oracle {

/// An exact side kernel: out[i] = NormalizedAbsDelta(FromStats(stats_i)),
/// bit for bit (e.g. the baseline build of an estimator's kernel). The
/// view's fold is always unset.
using ExactSide = std::function<void(const PrefixSideView&, double*)>;

/// Row bounds of Algorithm 1 over `index` with the inner estimator whose
/// exact lanes `exact_side` writes and whose scalar definition is `inner`.
inline std::vector<size_t> ExactDynamicPartition(
    const SortedEntityIndex& index, const StatsSumEstimator& inner,
    const ExactSide& exact_side) {
  if (index.size() == 0) return {0, 0};
  struct Bucket {
    size_t begin, end;
    double delta;
    bool left_known, right_known;
  };
  const size_t runs = index.runs();
  std::vector<double> left(runs), right(runs);
  const SortedEntityIndex::Prefix& prefix = index.prefix();
  const auto evaluate = [&](size_t first, size_t count, size_t anchor,
                            PrefixSideView::Side side, double* out) {
    PrefixSideView view;
    view.size = count;
    view.n = prefix.n.data() + first;
    view.c = prefix.c.data() + first;
    view.f1 = prefix.f1.data() + first;
    view.sum_mm1 = prefix.sum_mm1.data() + first;
    view.value_sum = prefix.value_sum.data() + first;
    view.singleton_sum = prefix.singleton_sum.data() + first;
    view.anchor = index.Row(anchor);
    view.side = side;
    exact_side(view, out);
  };
  const SampleStats root = index.SliceRows(0, runs);
  double delta_min =
      root.empty() ? 0.0 : NormalizedAbsDelta(inner.FromStats(root).delta);
  double done_delta_sum = 0.0;
  std::vector<Bucket> todo = {{0, runs, delta_min, false, false}};
  std::vector<std::pair<size_t, size_t>> done;
  for (size_t head = 0; head < todo.size(); ++head) {
    const Bucket work = todo[head];
    double delta_rest;
    if (std::isinf(work.delta) || std::isinf(delta_min)) {
      delta_rest = done_delta_sum;
      for (size_t i = head + 1; i < todo.size(); ++i) {
        delta_rest += todo[i].delta;
      }
      delta_min = delta_rest + work.delta;
    } else {
      delta_rest = delta_min - work.delta;
    }
    const size_t first = work.begin + 1;
    const size_t count = work.end - first;
    size_t best = work.end;
    if (count > 0 && delta_rest < delta_min) {
      if (!work.left_known) {
        evaluate(first, count, work.begin, PrefixSideView::Side::kLeft,
                 left.data() + first);
      }
      if (!work.right_known) {
        evaluate(first, count, work.end, PrefixSideView::Side::kRight,
                 right.data() + first);
      }
      for (size_t row = first; row < work.end; ++row) {
        const double total = delta_rest + left[row] + right[row];
        if (total < delta_min) {
          delta_min = total;
          best = row;
        }
      }
    }
    if (best == work.end) {
      done_delta_sum += work.delta;
      done.push_back({work.begin, work.end});
      continue;
    }
    todo.push_back({work.begin, best, left[best], true, false});
    todo.push_back({best, work.end, right[best], false, true});
  }
  std::sort(done.begin(), done.end());
  std::vector<size_t> bounds = {0};
  for (const auto& r : done) bounds.push_back(r.second);
  return bounds;
}

}  // namespace oracle
}  // namespace uuq

#endif  // UUQ_TESTS_PARTITION_ORACLE_H_
