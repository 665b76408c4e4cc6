#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/macros.h"

namespace uuq {

std::vector<int> WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, int k, Rng* rng) {
  WeightedWorSelector selector;
  selector.Select(weights, k, rng);
  // The min-heap sorted under its own comparator runs from the highest
  // (log-key, index) down: the first item drawn under successive sampling
  // comes first, so callers can treat the vector as arrival order.
  std::sort_heap(selector.heap_.begin(), selector.heap_.end(),
                 std::greater<std::pair<double, int>>());
  std::vector<int> out;
  out.reserve(selector.heap_.size());
  for (const auto& [log_key, index] : selector.heap_) out.push_back(index);
  return out;
}

std::vector<int> WeightedSampleWithReplacement(
    const std::vector<double>& weights, int k, Rng* rng) {
  UUQ_CHECK(rng != nullptr);
  UUQ_CHECK(k >= 0);
  if (k == 0) return {};
  AliasSampler sampler(weights);
  std::vector<int> out;
  out.reserve(k);
  for (int i = 0; i < k; ++i) out.push_back(sampler.Sample(rng));
  return out;
}

void PartialShuffler::EnsureIdentity(int n) {
  if (perm_.size() == static_cast<size_t>(n)) return;
  perm_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i;
}

void WeightedWorSelector::Select(const std::vector<double>& weights, int k,
                                 Rng* rng) {
  UUQ_CHECK(rng != nullptr);
  UUQ_CHECK(k >= 0);
  heap_.clear();
  if (k == 0) return;
  // Efraimidis-Spirakis: item i gets key u^(1/w_i); the k largest keys form
  // an exact weighted sample without replacement. Work in log space for
  // numerical stability: log key = log(u)/w_i. heap_ is a min-heap on
  // (log-key, index) holding the k best items seen so far; most items fail
  // the single comparison against its top.
  //
  // Rejection without a log. Once the heap is full, let top <= 0 be its
  // minimum log-key and W the largest weight of a block of kBlock items, and
  // put T = exp(top·W)·(1 − 1e-9). Take an item of the block with weight
  // w <= W and uniform u <= T:
  //  - A rejection needs T >= u > 1e-300, so |top·W| <= 691, and the
  //    rounding of top·W, of exp and of the product moves log T by at most
  //    ~1e-13. So the exact log(u) <= top·W − 1e-9 + 1e-13.
  //  - Dividing by w, and using top <= 0 and W/w >= 1, the exact key
  //    log(u)/w <= top·W/w − 0.99e-9/w <= top − 0.99e-9/w.
  //  - The computed key fl(fl(log u)/w) is within ~2e-13/w of the exact one,
  //    because |log u| <= 691.
  // So the computed key is strictly below top, and the comparison below
  // would reject the item anyway: skipping it changes nothing but the work.
  // top only grows, so a T computed from an earlier top stays conservative
  // for the whole block. If top·W overflows, T = 0 (or NaN when top = −inf
  // and W = 0) and nothing is rejected. Every positive-weight item still
  // draws exactly one uniform, in index order, so the Rng stream is
  // consumed as without the test.
  constexpr size_t kBlock = 64;
  const auto greater = std::greater<std::pair<double, int>>();
  const size_t n = weights.size();
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t end = std::min(begin + kBlock, n);
    double threshold = 0.0;  // u > 1e-300 > 0: rejects nothing
    if (static_cast<int>(heap_.size()) == k) {
      // Four running maxima: a single one chains 64 dependent max
      // operations per block, as slow as the block's uniform draws.
      double lane_max[4] = {0.0, 0.0, 0.0, 0.0};
      size_t i = begin;
      for (; i + 4 <= end; i += 4) {
        for (size_t j = 0; j < 4; ++j) {
          lane_max[j] = std::max(lane_max[j], weights[i + j]);
        }
      }
      for (; i < end; ++i) lane_max[0] = std::max(lane_max[0], weights[i]);
      const double block_max = std::max(std::max(lane_max[0], lane_max[1]),
                                        std::max(lane_max[2], lane_max[3]));
      threshold = std::exp(heap_.front().first * block_max) * (1.0 - 1e-9);
    }
    for (size_t i = begin; i < end; ++i) {
      UUQ_CHECK_MSG(weights[i] >= 0.0, "weights must be non-negative");
      if (weights[i] <= 0.0) continue;
      double u = 0.0;
      do {
        u = rng->NextDouble();
      } while (u <= 1e-300);
      if (u <= threshold) continue;
      const double log_key = std::log(u) / weights[i];
      if (static_cast<int>(heap_.size()) < k) {
        heap_.emplace_back(log_key, static_cast<int>(i));
        std::push_heap(heap_.begin(), heap_.end(), greater);
      } else if (log_key > heap_.front().first) {
        std::pop_heap(heap_.begin(), heap_.end(), greater);
        heap_.back() = {log_key, static_cast<int>(i)};
        std::push_heap(heap_.begin(), heap_.end(), greater);
      }
    }
  }
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  UUQ_CHECK_MSG(!weights.empty(), "AliasSampler needs at least one weight");
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    UUQ_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  UUQ_CHECK_MSG(total > 0.0, "AliasSampler needs a positive total weight");

  probability_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;

  std::vector<int> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<int>(i));
  }
  while (!small.empty() && !large.empty()) {
    const int s = small.back();
    small.pop_back();
    const int l = large.back();
    large.pop_back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (int i : large) probability_[i] = 1.0;
  for (int i : small) probability_[i] = 1.0;
}

int AliasSampler::Sample(Rng* rng) const {
  UUQ_CHECK(rng != nullptr);
  const size_t column = rng->NextBounded(probability_.size());
  return rng->NextDouble() < probability_[column]
             ? static_cast<int>(column)
             : alias_[column];
}

}  // namespace uuq
