// Weighted sampling primitives for the data-integration sampling model
// (paper §2.2) and the Monte-Carlo simulator (Algorithm 2, line 6).
//
// Sources sample WITHOUT replacement from the ground truth (a web page lists
// a company once); the union of many sources approximates sampling WITH
// replacement. Both modes are provided.
//
// Weighted sampling without replacement has ONE implementation,
// WeightedWorSelector (Efraimidis-Spirakis keys in a bounded min-heap);
// WeightedSampleWithoutReplacement is a wrapper that orders its selection.
// Stream contract: a call draws exactly one NextDouble() per positive-weight
// item, in index order (redrawing the rare u <= 1e-300), and nothing else, so
// a crowd stream or a Monte-Carlo grid point is a pure function of its seed.
// Once k keys are held, an item whose uniform is provably too small to enter
// the heap skips its log and division (the argument is at
// WeightedWorSelector::Select); the skip never changes a selection.
#ifndef UUQ_STATS_SAMPLING_H_
#define UUQ_STATS_SAMPLING_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"

namespace uuq {

/// Draws k distinct indices from {0..|weights|-1} without replacement with
/// probability proportional to weight (successive sampling), returned in
/// draw order: descending Efraimidis-Spirakis key (key_i = u_i^(1/w_i)),
/// ties by descending index. Zero-weight items are never drawn. k is clamped
/// to the number of positive weights. Allocates; the Monte-Carlo inner loop
/// uses WeightedWorSelector directly.
std::vector<int> WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, int k, Rng* rng);

/// Draws k indices i.i.d. with probability proportional to weight.
std::vector<int> WeightedSampleWithReplacement(
    const std::vector<double>& weights, int k, Rng* rng);

/// Allocation-free uniform sampling without replacement via a PARTIAL
/// Fisher-Yates shuffle: only the first k positions of an internal
/// permutation are shuffled (O(k) work), visited, and then the swaps are
/// undone (O(k)) so the permutation is ready for the next draw. Compare a
/// full shuffle or heap-based selection at O(n) / O(n log k) per draw.
///
/// The permutation is rebuilt (O(n)) only when n changes between calls, so
/// repeated draws at a fixed n — the Monte-Carlo inner loop's shape — cost
/// O(k) and allocate nothing. Draws depend only on `rng` and (n, k), never
/// on prior calls, so results stay deterministic under thread-local reuse.
class PartialShuffler {
 public:
  /// Draws k distinct indices uniformly from {0..n-1} and calls
  /// visit(index) for each, in draw order. k is clamped to n.
  template <typename Visitor>
  void Draw(int n, int k, Rng* rng, Visitor&& visit) {
    if (n <= 0) return;
    if (k > n) k = n;
    EnsureIdentity(n);
    swapped_with_.resize(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      const int j =
          i + static_cast<int>(rng->NextBounded(static_cast<uint64_t>(n - i)));
      std::swap(perm_[static_cast<size_t>(i)], perm_[static_cast<size_t>(j)]);
      swapped_with_[static_cast<size_t>(i)] = j;
      visit(perm_[static_cast<size_t>(i)]);
    }
    // Undo in reverse so perm_ is the identity again for the next call.
    for (int i = k - 1; i >= 0; --i) {
      std::swap(perm_[static_cast<size_t>(i)],
                perm_[static_cast<size_t>(swapped_with_[static_cast<size_t>(i)])]);
    }
  }

 private:
  void EnsureIdentity(int n);

  std::vector<int> perm_;  // identity permutation of size perm_.size()
  std::vector<int> swapped_with_;
};

/// Allocation-free weighted sampling without replacement: the k largest
/// Efraimidis-Spirakis keys are kept in a bounded min-heap that is REUSED
/// across calls instead of freshly allocated. Exactly one uniform is drawn
/// per positive-weight item, in index order (see the stream contract above).
class WeightedWorSelector {
 public:
  /// Draws min(k, #positive-weight items) distinct indices with probability
  /// proportional to weight and calls visit(index) for each (selection
  /// order is unspecified — NOT arrival order). Weights must be >= 0.
  template <typename Visitor>
  void Draw(const std::vector<double>& weights, int k, Rng* rng,
            Visitor&& visit) {
    Select(weights, k, rng);
    for (const auto& [log_key, index] : heap_) {
      visit(index);
    }
  }

 private:
  friend std::vector<int> WeightedSampleWithoutReplacement(
      const std::vector<double>& weights, int k, Rng* rng);

  /// Fills heap_ with the selected (log-key, index) pairs, a min-heap under
  /// std::greater.
  void Select(const std::vector<double>& weights, int k, Rng* rng);

  std::vector<std::pair<double, int>> heap_;
};

/// O(1)-per-draw sampler over a fixed weight vector (Vose's alias method).
class AliasSampler {
 public:
  /// Builds the alias tables; weights must be non-negative with positive sum.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws one index with probability proportional to its weight.
  int Sample(Rng* rng) const;

  size_t size() const { return probability_.size(); }

 private:
  std::vector<double> probability_;
  std::vector<int> alias_;
};

}  // namespace uuq

#endif  // UUQ_STATS_SAMPLING_H_
