// The bucket estimator (paper §3.3, Appendix B).
//
// Publicity-value correlation biases whole-sample value estimates, so the
// value range is divided into buckets and the impact is estimated per bucket
// with an inner estimator (naive or frequency), then aggregated (Eq. 11).
//
// Three partitioning strategies:
//  * equi-width  — fixed number of equal value-range buckets (§3.3.1)
//  * equi-height — fixed number of equal-cardinality buckets (App. B)
//  * dynamic     — Algorithm 1: recursively split only while the total
//                  |Δ| estimate DECREASES (the conservative rule §3.3.2)
//
// Slices are evaluated in O(1) via prefix sums over the value-sorted entity
// array, one prefix row per run of equal values (a bucket is a value range,
// so it never splits a run); the dynamic algorithm therefore costs O(runs)
// per candidate-split scan instead of O(runs·size).
//
// REPLICATE HOT PATH. Bootstrap/jackknife replicates re-run the whole
// estimator B times; IndexScratch makes those runs allocation-free: the
// sorted index, prefix columns, partition worklists, and bucket vector are
// all reused. A built replicate lists its entities in its SampleView's rank
// order (sample_view.h): the sample's own fused-value order, which a
// replicate perturbs only locally (multiplicities change, averaged values
// nudge), so the index copies the points and an adaptive insertion pass
// fixes up the few that moved. The index orders points canonically
// (PointLess), NaN-valued points last, which makes the sorted
// array — and every prefix sum — independent of the input permutation, so
// the copy-and-fix-up is bit-identical to a full sort of a fresh index. SUM,
// AVG and MIN/MAX replicates all run through the same per-thread scratch.
//
// POINT PARTITION. The serving layer computes the sample's own default
// partition once per registered snapshot (serving/sample_cache.h), and
// QueryCorrector folds SUM/AVG/MIN/MAX point estimates from it
// (BucketSumEstimator, AvgEstimator and MinMaxEstimator::FromBuckets)
// instead of partitioning again.
#ifndef UUQ_CORE_BUCKET_H_
#define UUQ_CORE_BUCKET_H_

#include <cmath>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "core/estimate.h"

namespace uuq {

/// A value-range bucket with its slice statistics and inner estimate.
struct ValueBucket {
  double lo = 0.0;  ///< smallest fused value in the bucket
  double hi = 0.0;  ///< largest fused value in the bucket
  SampleStats stats;
  Estimate estimate;
};

/// Prefix-sum index over a value-sorted entity array; SliceRows(i, j)
/// returns the sufficient statistics of value runs [i, j) in O(1).
///
/// RUN-SPACE PREFIX ROWS. The prefix columns hold one row per boundary of a
/// value run — a position whose value differs (`!=`) from its predecessor's,
/// so every NaN point is a run of its own and −0.0 and +0.0 share one —
/// plus rows for 0 and size(): row k is the prefix at row_positions()[k],
/// the first point of run k. Row j (0 < j < runs()) is therefore candidate
/// cut j of the dynamic split scan, which reads its side kernels' lanes
/// straight from the columns. Finalize writes the rows in the fold it runs
/// anyway; a row is the same in-order fold a per-point prefix holds there.
///
/// Stores only the (value, multiplicity) points the bucket math reads — no
/// keys, no categories — so it is equally at home indexing a full sample's
/// entities or a columnar bootstrap replicate. A default-constructed index
/// is an empty reusable shell: Assign()/Finalize() rebuild it in place
/// without allocating once its buffers are warm.
class SortedEntityIndex {
 public:
  /// Prefix sums as double columns: column[k] is the field summed over
  /// points [0, row_positions()[k]). Count fields hold static_cast<double>
  /// of the int64 running sum, exact below 2^53 (the PrefixRow cast
  /// convention), so column[end] − column[begin] is exactly the slice's
  /// field.
  struct Prefix {
    std::vector<double> n;
    std::vector<double> c;
    std::vector<double> f1;
    std::vector<double> sum_mm1;
    std::vector<double> value_sum;
    std::vector<double> value_sum_sq;
    std::vector<double> singleton_sum;
  };

  SortedEntityIndex() = default;
  explicit SortedEntityIndex(const std::vector<EntityStat>& entities);
  explicit SortedEntityIndex(std::vector<EntityPoint> points);

  /// Canonical order of the numeric points: ascending (value, sign bit,
  /// multiplicity), so −0.0 sorts before +0.0. Total up to bit-identical
  /// points: any input permutation of the same point multiset sorts to the
  /// same array content — the bit-identity guarantee behind the
  /// scratch-reuse and nearly-sorted rebuild paths. NaN compares false
  /// against everything, so this is a strict weak order only over numbers:
  /// Finalize first moves NaN-valued points behind every number and orders
  /// them by (multiplicity, bit pattern), then sorts the numbers with this.
  static bool PointLess(const EntityPoint& a, const EntityPoint& b) {
    return a.value < b.value ||
           (a.value == b.value &&
            (std::signbit(a.value) != std::signbit(b.value)
                 ? std::signbit(a.value)
                 : a.multiplicity < b.multiplicity));
  }

  /// In-place rebuild, step 1: copy the points (any order; capacity
  /// retained).
  void Assign(const std::vector<EntityPoint>& points) {
    points_.assign(points.begin(), points.end());
  }
  /// In-place rebuild, step 2: sort + rebuild the prefix rows, reusing the
  /// internal buffers. `nearly_sorted` selects an adaptive insertion sort
  /// (O(points + inversions), falling back to std::sort past a shift
  /// budget); the final content is canonical either way.
  void Finalize(bool nearly_sorted);

  size_t size() const { return points_.size(); }
  const std::vector<EntityPoint>& entities() const { return points_; }
  const Prefix& prefix() const { return prefix_; }
  /// Number of value runs (0 for an empty or never finalized index); the
  /// columns of a finalized index hold runs() + 1 rows.
  size_t runs() const {
    return row_positions_.empty() ? 0 : row_positions_.size() - 1;
  }
  /// Point position of each prefix row: run k starts at entry k, and the
  /// last entry is size().
  const std::vector<size_t>& row_positions() const { return row_positions_; }

  /// Stats of the points between prefix rows `begin_row` and `end_row`:
  /// every bucket is a row range, so this is the one slice a partition
  /// reads.
  SampleStats SliceRows(size_t begin_row, size_t end_row) const;
  /// Prefix row k (k ≤ runs()), as the Δ chain reads it.
  PrefixRow Row(size_t k) const;

  /// Releases ALL internal capacity: the index returns to a freshly
  /// constructed empty shell (the scratch trim hook, scratch_metrics.h).
  void Release();
  /// Approximate resident capacity of the internal arrays, in bytes.
  int64_t ApproxBytes() const;

 private:
  std::vector<EntityPoint> points_;    // sorted ascending by PointLess
  Prefix prefix_;                      // runs() + 1 rows per column
  std::vector<size_t> row_positions_;  // runs() + 1 point positions
};

/// Reusable buffers for BucketPartitioner::PartitionInto. One per thread;
/// contents are transient per call.
///
/// IN-PLACE MEMO. The dynamic scan works in the index's run space: a bucket
/// is a row range [begin, end), and its candidate cuts are rows
/// (begin, end). Live buckets never share a candidate row, so two per-row
/// arrays hold the whole memo:
///   left[j]  = |Δ(owner.begin, j)|
///   right[j] = |Δ(j, owner.end)|
/// where owner is the live bucket whose range contains j. Splitting at row
/// k keeps left[] valid for the left child's rows (begin, k) (same begin)
/// and right[] valid for the right child's rows (k, end) (same end), so
/// each child scan evaluates only its other side. A memoized value is the
/// lane the child's own kernel call would write (the lanes are pure), and
/// each child's delta is the exact |Δ| of its range (the winning
/// candidate's exact half), so the memoized partition is bit-identical to
/// the scan-everything one.
struct PartitionScratch {
  /// One dynamic worklist entry: prefix rows [begin, end) of the index.
  struct Bucket {
    size_t begin = 0;
    size_t end = 0;
    /// |Δ(begin, end)|: the parent scan's winning half (the root computes
    /// it directly).
    double delta = 0.0;
    bool left_known = false;   ///< left[] holds this bucket's left halves
    bool right_known = false;  ///< right[] holds this bucket's right halves
  };

  std::vector<double> left;    ///< per row: |Δ(owner.begin, row)|
  std::vector<double> right;   ///< per row: |Δ(row, owner.end)|
  std::vector<Bucket> todo;    ///< FIFO worklist (head index)
  std::vector<std::pair<size_t, size_t>> done;  ///< finalized row ranges
  /// One scan's candidate cuts (CutFold): a handful per scan, so it grows
  /// to the largest list seen, not to a row count.
  std::vector<size_t> candidates;

  /// Work counters of the last DynamicPartitioner::PartitionInto: scans
  /// whose kernel listed candidates, and candidates re-evaluated exactly
  /// (two scalar halves each).
  int64_t folded_scans = 0;
  int64_t exact_candidates = 0;

  /// Approximate resident capacity, in bytes.
  int64_t ApproxBytes() const;
  /// Releases every buffer.
  void Release();
};

/// Partitioning strategy interface: returns bucket boundaries as half-open
/// ranges of the index's prefix rows (value runs), so a bucket never splits
/// a run and its stats are one SliceRows.
class BucketPartitioner {
 public:
  virtual ~BucketPartitioner() = default;
  virtual std::string name() const = 0;
  /// Writes row boundaries r_0=0 < r_1 < ... < r_k=runs() into *bounds
  /// ({0, 0} for an empty index), reusing `scratch` — allocation-free once
  /// warm (the replicate hot path).
  virtual void PartitionInto(const SortedEntityIndex& index,
                             const StatsSumEstimator& inner,
                             PartitionScratch* scratch,
                             std::vector<size_t>* bounds) const = 0;
  /// Allocating convenience wrapper around PartitionInto that returns the
  /// boundaries as point positions b_0=0 < ... < b_k=size (each row's
  /// row_positions() entry).
  std::vector<size_t> Partition(const SortedEntityIndex& index,
                                const StatsSumEstimator& inner) const;
};

/// §3.3.1: `num_buckets` equal-width value ranges over [min, max] of the
/// finite values; −inf joins the first bucket, +inf and NaN the last.
class EquiWidthPartitioner final : public BucketPartitioner {
 public:
  explicit EquiWidthPartitioner(int num_buckets);
  std::string name() const override;
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  int num_buckets_;
};

/// Appendix B: `num_buckets` buckets with (near-)equal entity counts.
class EquiHeightPartitioner final : public BucketPartitioner {
 public:
  explicit EquiHeightPartitioner(int num_buckets);
  std::string name() const override;
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  int num_buckets_;
};

/// §3.3.2 Algorithm 1: recursively split a bucket at the unique value that
/// minimizes the global Σ|Δ|; stop when no split lowers it.
///
/// ONE SERIAL SCAN. Buckets are popped in FIFO order. A bucket's scan
/// evaluates the halves it does not inherit (both at the root, one side for
/// every child — see PartitionScratch) with one DeltaFromPrefixSide call per
/// side over the bucket's candidate rows, read in place from the index's
/// prefix columns, certified with the index's total n
/// (PrefixSideView::index_n: the lanes are slices of one index, so the
/// naive AVX-512F build need not re-prove their counts lane by lane at up
/// to 2^21 observations). Those lanes may be approximate (within ρ of the
/// exact |Δ|), so the call that evaluates the second side brackets every
/// total delta_rest + |Δ(left)| + |Δ(right)| and lists the cuts that can
/// still be the first minimum (CutFold), inside the kernel's loop. The scan
/// then re-evaluates both halves of each listed cut exactly (SliceRows and
/// FromStats) and runs the in-order first-minimum fold over those totals:
/// the cut and δmin bits of the fold over every cut's exact total. The only
/// skip is the whole-scan one: when delta_rest ≥ δmin no candidate can go
/// strictly below δmin (both halves are nonnegative), e.g. a
/// singleton-free bucket with Δ == 0.
///
/// NO PER-CANDIDATE PRUNING. With the memo supplying one half, every
/// non-root candidate costs exactly one kernel lane. A lower-bound pruned
/// scan measured 1.08 lanes per candidate on a 50k-observation sample's
/// replicate partitions: pruning had nothing left to save, and its
/// per-candidate bookkeeping cost several times the kernel itself. The
/// exact re-evaluation is the opposite trade: about one listed cut per
/// scan (PartitionScratch's work counters) buys lanes without a division.
class DynamicPartitioner final : public BucketPartitioner {
 public:
  /// A non-inert `cancel` token is polled once per worklist bucket: when it
  /// fires, the buckets still pending are finalized UNSPLIT and the scan
  /// returns immediately — the bounds are a valid (coarser) partition, but
  /// not Algorithm 1's converged one, so callers must discard the result
  /// via the token's status. The inert default leaves partitions
  /// bit-identical.
  explicit DynamicPartitioner(CancelToken cancel = {})
      : cancel_(std::move(cancel)) {}

  std::string name() const override { return "dynamic"; }
  void PartitionInto(const SortedEntityIndex& index,
                     const StatsSumEstimator& inner, PartitionScratch* scratch,
                     std::vector<size_t>* bounds) const override;

 private:
  CancelToken cancel_;
};

/// Reusable per-thread state for allocation-free replicate bucket
/// evaluation: the sorted index + prefix buffers and the partition/bucket
/// vectors. One scratch serves
/// replicates of any size from any SampleView, interleaved in any order —
/// every rebuild starts from the resting state, so results never depend on
/// what the scratch evaluated before.
/// Instances register with the process-wide resident-scratch gauge and honor
/// the cooperative trim epoch (common/scratch_metrics.h): RebuildIndex — the
/// sole entry point of the replicate hot path — checks the epoch once per
/// call (one relaxed load) and, when a trim was requested since this scratch
/// last looked, releases every pooled buffer before rebuilding. A trimmed
/// scratch is indistinguishable from a fresh one, so results are unaffected;
/// only the warm-up allocations recur.
class IndexScratch {
 public:
  IndexScratch() = default;
  ~IndexScratch();
  IndexScratch(const IndexScratch&) = delete;
  IndexScratch& operator=(const IndexScratch&) = delete;

  /// Rebuilds the scratch-owned SortedEntityIndex from `rep` and returns
  /// it: one copy of rep.entities, then Finalize(nearly_sorted=true). A built
  /// replicate's rank order needs only the insertion fix-up; any other
  /// order falls back to std::sort past the shift budget. Either way the
  /// index is the canonical one.
  const SortedEntityIndex& RebuildIndex(const ReplicateSample& rep);

  /// Approximate resident capacity across every pooled buffer, in bytes.
  int64_t ApproxBytes() const;
  /// Releases every pooled buffer (back to a freshly-constructed scratch).
  void Trim();

 private:
  friend class BucketSumEstimator;

  /// Reconciles the resident-bytes gauge with the current capacity.
  void SyncResidentBytes();

  SortedEntityIndex index_;
  PartitionScratch partition_;
  std::vector<size_t> bounds_;
  std::vector<ValueBucket> buckets_;
  uint64_t trim_epoch_seen_ = 0;  // last scratch::TrimEpoch() observed
  int64_t reported_bytes_ = 0;    // our contribution to the global gauge
};

/// The composed bucket estimator (Eq. 11): Δ = Σ_b Δ(b).
class BucketSumEstimator final : public SumEstimator {
 public:
  /// Defaults to the paper's best configuration: dynamic partitioning with
  /// the naive inner estimator.
  BucketSumEstimator();
  BucketSumEstimator(std::shared_ptr<const BucketPartitioner> partitioner,
                     std::shared_ptr<const StatsSumEstimator> inner);

  std::string name() const override;
  Estimate EstimateImpact(const IntegratedSample& sample) const override;

  /// Columnar replicate path (bit-identical to EstimateImpact on the
  /// materialized replicate — the whole-sample stats are the replicate's
  /// carried first-touch fold and the canonical index sort sees the same
  /// point multiset). Runs through a thread-local IndexScratch: zero heap
  /// allocations per replicate once warm.
  bool SupportsReplicates() const override { return true; }
  Estimate EstimateReplicate(const ReplicateSample& rep) const override;
  /// Same, through a caller-owned scratch (engines and tests that manage
  /// reuse explicitly).
  Estimate EstimateReplicate(const ReplicateSample& rep,
                             IndexScratch* scratch) const;

  /// Eq. 11 over an already-computed partition: `buckets` must be this
  /// estimator's ComputeBuckets of the sample (or replicate) whose
  /// whole-sample stats are `whole`. QueryCorrector folds a snapshot's
  /// precomputed point partition through it.
  Estimate FromBuckets(const SampleStats& whole,
                       const std::vector<ValueBucket>& buckets) const;

  /// The full per-bucket breakdown (used by AVG and MIN/MAX, §5, by the
  /// serving layer's snapshot and by the static-bucket ablation benches).
  std::vector<ValueBucket> ComputeBuckets(const IntegratedSample& sample) const;
  /// Same, over a columnar replicate (AVG/MIN-MAX bootstrap), through the
  /// same thread-local IndexScratch as EstimateReplicate. The returned
  /// buckets live in that scratch: valid until this thread's next replicate
  /// evaluation.
  const std::vector<ValueBucket>& ComputeBuckets(
      const ReplicateSample& rep) const;
  /// Shared core: buckets of an already-built index. Uses a call-local
  /// partition scratch, so a one-shot point estimate pins no memory to the
  /// calling thread.
  std::vector<ValueBucket> ComputeBuckets(const SortedEntityIndex& index) const;

  const BucketPartitioner& partitioner() const { return *partitioner_; }
  const StatsSumEstimator& inner() const { return *inner_; }

 private:
  /// Partition + per-bucket evaluation into scratch-owned vectors: each
  /// bucket's stats are the SliceRows of its row range, and its lo/hi the
  /// values of its first and last point (row_positions()).
  void ComputeBucketsInto(const SortedEntityIndex& index,
                          PartitionScratch* partition_scratch,
                          std::vector<size_t>* bounds,
                          std::vector<ValueBucket>* out) const;
  /// Rebuilds `scratch`'s index from `rep` and fills its bucket vector.
  const std::vector<ValueBucket>& ReplicateBuckets(
      const ReplicateSample& rep, IndexScratch* scratch) const;

  std::shared_ptr<const BucketPartitioner> partitioner_;
  std::shared_ptr<const StatsSumEstimator> inner_;
  std::string name_;  // cached: replicate paths stamp it per Estimate
};

}  // namespace uuq

#endif  // UUQ_CORE_BUCKET_H_
