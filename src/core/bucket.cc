#include "core/bucket.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "common/scratch_metrics.h"
#include "core/naive.h"
#include "stats/coverage.h"

namespace uuq {

namespace {

template <typename T>
int64_t VectorBytes(const std::vector<T>& v) {
  return static_cast<int64_t>(v.capacity() * sizeof(T));
}

template <typename T>
void ReleaseVector(std::vector<T>* v) {
  std::vector<T>().swap(*v);
}

bool IsNanPoint(const EntityPoint& point) { return std::isnan(point.value); }

/// Canonical order of the NaN-valued points: (multiplicity, bit pattern).
bool NanPointLess(const EntityPoint& a, const EntityPoint& b) {
  if (a.multiplicity != b.multiplicity) {
    return a.multiplicity < b.multiplicity;
  }
  uint64_t a_bits = 0;
  uint64_t b_bits = 0;
  std::memcpy(&a_bits, &a.value, sizeof(a_bits));
  std::memcpy(&b_bits, &b.value, sizeof(b_bits));
  return a_bits < b_bits;
}

/// Moves every NaN-valued point of [begin, end) behind the numbers and
/// returns the first NaN. The numbers keep their relative order, so a
/// nearly sorted input stays nearly sorted.
EntityPoint* PartitionNanToTail(EntityPoint* begin, EntityPoint* end) {
  EntityPoint* out = std::find_if(begin, end, IsNanPoint);
  if (out == end) return end;
  for (EntityPoint* p = out + 1; p != end; ++p) {
    if (!IsNanPoint(*p)) std::swap(*out++, *p);
  }
  return out;
}

}  // namespace

SortedEntityIndex::SortedEntityIndex(const std::vector<EntityStat>& entities) {
  points_.reserve(entities.size());
  for (const EntityStat& e : entities) {
    points_.push_back({e.value, e.multiplicity});
  }
  Finalize(/*nearly_sorted=*/false);
}

SortedEntityIndex::SortedEntityIndex(std::vector<EntityPoint> points)
    : points_(std::move(points)) {
  Finalize(/*nearly_sorted=*/false);
}

void SortedEntityIndex::Finalize(bool nearly_sorted) {
  // NaN-valued points go behind every number in their own total order, so
  // the numbers sort with PointLess (a strict weak order only over them).
  EntityPoint* const begin = points_.data();
  EntityPoint* const nan_begin =
      PartitionNanToTail(begin, begin + points_.size());
  std::sort(nan_begin, begin + points_.size(), NanPointLess);
  const size_t numbers = static_cast<size_t>(nan_begin - begin);
  if (!nearly_sorted) {
    std::sort(begin, nan_begin, PointLess);
  } else {
    // Adaptive insertion sort: a replicate in view-rank order has only local
    // inversions (entities whose replicate value moved, multiplicity ties
    // within an equal-value run), so this is O(points + inversions). A
    // pathological replicate burns through the shift budget and falls back
    // to std::sort — same canonical content, bounded worst case.
    size_t budget = 8 * numbers + 16;
    bool fell_back = false;
    for (size_t i = 1; !fell_back && i < numbers; ++i) {
      if (!PointLess(begin[i], begin[i - 1])) continue;
      const EntityPoint point = begin[i];
      size_t j = i;
      while (j > 0 && PointLess(point, begin[j - 1])) {
        begin[j] = begin[j - 1];
        --j;
        if (--budget == 0) {
          fell_back = true;
          break;
        }
      }
      begin[j] = point;  // restore before any fallback: same multiset
      if (fell_back) std::sort(begin, nan_begin, PointLess);
    }
  }

  // One running SampleStats fold, written out column by column at every
  // run boundary: every row is the same in-order fold a per-point
  // SampleStats prefix would hold there. The columns are sized for one row
  // per point, then trimmed to the rows written.
  const size_t size = points_.size();
  const auto rows_for = [size](std::vector<double>* column) {
    column->resize(size + 1);
    return column->data();
  };
  double* UUQ_RESTRICT pn = rows_for(&prefix_.n);
  double* UUQ_RESTRICT pc = rows_for(&prefix_.c);
  double* UUQ_RESTRICT pf1 = rows_for(&prefix_.f1);
  double* UUQ_RESTRICT pmm1 = rows_for(&prefix_.sum_mm1);
  double* UUQ_RESTRICT pvs = rows_for(&prefix_.value_sum);
  double* UUQ_RESTRICT pvss = rows_for(&prefix_.value_sum_sq);
  double* UUQ_RESTRICT pss = rows_for(&prefix_.singleton_sum);
  row_positions_.resize(size + 1);
  size_t* UUQ_RESTRICT positions = row_positions_.data();
  SampleStats acc;
  size_t row = 0;
  for (size_t i = 0;; ++i) {
    if (i == 0 || i == size || points_[i].value != points_[i - 1].value) {
      pn[row] = static_cast<double>(acc.n);
      pc[row] = static_cast<double>(acc.c);
      pf1[row] = static_cast<double>(acc.f1);
      pmm1[row] = static_cast<double>(acc.sum_mm1);
      pvs[row] = acc.value_sum;
      pvss[row] = acc.value_sum_sq;
      pss[row] = acc.singleton_sum;
      positions[row] = i;
      ++row;
    }
    if (i == size) break;
    acc.Add(points_[i]);
  }
  for (std::vector<double>* column :
       {&prefix_.n, &prefix_.c, &prefix_.f1, &prefix_.sum_mm1,
        &prefix_.value_sum, &prefix_.value_sum_sq, &prefix_.singleton_sum}) {
    column->resize(row);
  }
  row_positions_.resize(row);
}

SampleStats SortedEntityIndex::SliceRows(size_t begin, size_t end) const {
  UUQ_DCHECK(begin <= end && end < row_positions_.size());
  // Count differences are exact in double below 2^53, so the int64 casts
  // reproduce the integer prefix difference.
  const Prefix& p = prefix_;
  SampleStats out;
  out.n = static_cast<int64_t>(p.n[end] - p.n[begin]);
  out.c = static_cast<int64_t>(p.c[end] - p.c[begin]);
  out.f1 = static_cast<int64_t>(p.f1[end] - p.f1[begin]);
  out.sum_mm1 = static_cast<int64_t>(p.sum_mm1[end] - p.sum_mm1[begin]);
  out.value_sum = p.value_sum[end] - p.value_sum[begin];
  out.value_sum_sq = p.value_sum_sq[end] - p.value_sum_sq[begin];
  out.singleton_sum = p.singleton_sum[end] - p.singleton_sum[begin];
  return out;
}

PrefixRow SortedEntityIndex::Row(size_t k) const {
  UUQ_DCHECK(k < row_positions_.size());
  const Prefix& p = prefix_;
  PrefixRow row;
  row.n = p.n[k];
  row.c = p.c[k];
  row.f1 = p.f1[k];
  row.sum_mm1 = p.sum_mm1[k];
  row.value_sum = p.value_sum[k];
  row.singleton_sum = p.singleton_sum[k];
  return row;
}

void SortedEntityIndex::Release() {
  ReleaseVector(&points_);
  prefix_ = Prefix();
  ReleaseVector(&row_positions_);
}

int64_t SortedEntityIndex::ApproxBytes() const {
  return VectorBytes(points_) + VectorBytes(prefix_.n) +
         VectorBytes(prefix_.c) + VectorBytes(prefix_.f1) +
         VectorBytes(prefix_.sum_mm1) + VectorBytes(prefix_.value_sum) +
         VectorBytes(prefix_.value_sum_sq) +
         VectorBytes(prefix_.singleton_sum) + VectorBytes(row_positions_);
}

int64_t PartitionScratch::ApproxBytes() const {
  return VectorBytes(left) + VectorBytes(right) + VectorBytes(todo) +
         VectorBytes(done) + VectorBytes(candidates);
}

void PartitionScratch::Release() { *this = PartitionScratch(); }

IndexScratch::~IndexScratch() {
  if (reported_bytes_ != 0) scratch::AddResidentBytes(-reported_bytes_);
}

int64_t IndexScratch::ApproxBytes() const {
  return index_.ApproxBytes() + partition_.ApproxBytes() +
         VectorBytes(bounds_) + VectorBytes(buckets_);
}

void IndexScratch::Trim() {
  index_.Release();
  partition_.Release();
  ReleaseVector(&bounds_);
  ReleaseVector(&buckets_);
  SyncResidentBytes();
}

void IndexScratch::SyncResidentBytes() {
  const int64_t now = ApproxBytes();
  if (now != reported_bytes_) {
    scratch::AddResidentBytes(now - reported_bytes_);
    reported_bytes_ = now;
  }
}

const SortedEntityIndex& IndexScratch::RebuildIndex(
    const ReplicateSample& rep) {
  // Cooperative trim (scratch_metrics.h): one relaxed load per replicate;
  // the release only runs on the owning thread, right before a rebuild —
  // the one moment dropping the buffers cannot change any result.
  const uint64_t epoch = scratch::TrimEpoch();
  if (epoch != trim_epoch_seen_) {
    trim_epoch_seen_ = epoch;
    Trim();
  }
  index_.Assign(rep.entities);
  index_.Finalize(/*nearly_sorted=*/true);
  SyncResidentBytes();
  return index_;
}

namespace {

/// The whole index as one bucket: rows [0, runs).
void SingleBucket(const SortedEntityIndex& index,
                  std::vector<size_t>* bounds) {
  bounds->clear();
  bounds->push_back(0);
  bounds->push_back(index.runs());
}

/// Evaluates one side of a scan: for every candidate row j in
/// [first, first + count), the normalized |Δ| of rows [anchor, j) (left
/// side) or [j, anchor) (right side) goes to out[j − first]. One kernel
/// call over a contiguous range of the index's prefix columns, certified
/// with the index's total n (PrefixSideView::index_n); `fold`, when set,
/// picks the scan's cut among the same lanes.
void EvaluateSide(const StatsSumEstimator& inner,
                  const SortedEntityIndex& index, size_t first, size_t count,
                  size_t anchor, PrefixSideView::Side side, double* out,
                  CutFold* fold) {
  const SortedEntityIndex::Prefix& prefix = index.prefix();
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
  view.index_n = prefix.n.back();
  view.fold = fold;
  inner.DeltaFromPrefixSide(view, out);
}

/// Normalized |Δ| of one slice: the scalar form of an exact kernel lane,
/// used for the root bucket's own delta and the candidates' exact halves.
double AbsDelta(const StatsSumEstimator& inner, const SampleStats& stats) {
  if (stats.empty()) return 0.0;
  return NormalizedAbsDelta(inner.FromStats(stats).delta);
}

}  // namespace

std::vector<size_t> BucketPartitioner::Partition(
    const SortedEntityIndex& index, const StatsSumEstimator& inner) const {
  PartitionScratch scratch;
  std::vector<size_t> bounds;
  PartitionInto(index, inner, &scratch, &bounds);
  if (index.size() == 0) return bounds;  // rows {0, 0} are positions too
  for (size_t& bound : bounds) bound = index.row_positions()[bound];
  return bounds;
}

EquiWidthPartitioner::EquiWidthPartitioner(int num_buckets)
    : num_buckets_(num_buckets) {
  UUQ_CHECK_MSG(num_buckets >= 1, "need at least one bucket");
}

std::string EquiWidthPartitioner::name() const {
  return "eq-width-" + std::to_string(num_buckets_);
}

void EquiWidthPartitioner::PartitionInto(const SortedEntityIndex& index,
                                         const StatsSumEstimator& inner,
                                         PartitionScratch* scratch,
                                         std::vector<size_t>* bounds) const {
  UUQ_UNUSED(inner);
  UUQ_UNUSED(scratch);
  // The range spans the finite values: −inf then falls in the first
  // bucket, and +inf and NaN (which sort last) in the last one.
  const std::vector<EntityPoint>& entities = index.entities();
  const auto is_finite = [](const EntityPoint& p) {
    return std::isfinite(p.value);
  };
  const auto first = std::find_if(entities.begin(), entities.end(), is_finite);
  const auto last = std::find_if(entities.rbegin(), entities.rend(), is_finite);
  if (num_buckets_ == 1 || first == entities.end() ||
      first->value == last->value) {
    return SingleBucket(index, bounds);
  }
  const double lo = first->value;
  const double width = (last->value - lo) / num_buckets_;

  // One row per value run: a run's values all fall in the same bucket.
  const std::vector<size_t>& positions = index.row_positions();
  const size_t runs = index.runs();
  bounds->clear();
  bounds->push_back(0);
  size_t row = 0;
  for (int b = 1; b < num_buckets_; ++b) {
    const double boundary = lo + width * b;
    while (row < runs && entities[positions[row]].value <= boundary) ++row;
    // Empty buckets collapse (duplicate boundaries are dropped).
    if (row > bounds->back()) bounds->push_back(row);
  }
  if (runs > bounds->back()) bounds->push_back(runs);
}

EquiHeightPartitioner::EquiHeightPartitioner(int num_buckets)
    : num_buckets_(num_buckets) {
  UUQ_CHECK_MSG(num_buckets >= 1, "need at least one bucket");
}

std::string EquiHeightPartitioner::name() const {
  return "eq-height-" + std::to_string(num_buckets_);
}

void EquiHeightPartitioner::PartitionInto(const SortedEntityIndex& index,
                                          const StatsSumEstimator& inner,
                                          PartitionScratch* scratch,
                                          std::vector<size_t>* bounds) const {
  UUQ_UNUSED(inner);
  UUQ_UNUSED(scratch);
  const size_t size = index.size();
  if (size == 0) return SingleBucket(index, bounds);
  const int k = std::min<int>(num_buckets_, static_cast<int>(size));
  const std::vector<size_t>& positions = index.row_positions();
  const size_t runs = index.runs();
  bounds->clear();
  bounds->push_back(0);
  for (int b = 1; b < k; ++b) {
    const size_t pos = size * static_cast<size_t>(b) / static_cast<size_t>(k);
    // Entities with equal values must not straddle a boundary (a bucket is a
    // value range): the cut is the first run that starts at or after `pos`.
    const size_t row = static_cast<size_t>(
        std::lower_bound(positions.begin(), positions.end(), pos) -
        positions.begin());
    if (row > bounds->back() && row < runs) bounds->push_back(row);
  }
  bounds->push_back(runs);
}

void DynamicPartitioner::PartitionInto(const SortedEntityIndex& index,
                                       const StatsSumEstimator& inner,
                                       PartitionScratch* scratch,
                                       std::vector<size_t>* bounds) const {
  UUQ_CHECK(scratch != nullptr && bounds != nullptr);
  if (index.size() == 0) return SingleBucket(index, bounds);

  auto& todo = scratch->todo;
  auto& done = scratch->done;
  todo.clear();
  done.clear();
  scratch->folded_scans = 0;
  scratch->exact_candidates = 0;

  // Run space: prefix rows 1 .. runs − 1 are every legal split point of
  // every bucket the scan will ever see (a split never moves a run
  // boundary), and row j is candidate cut j.
  const size_t runs = index.runs();
  if (scratch->left.size() < runs) {
    scratch->left.resize(runs);
    scratch->right.resize(runs);
  }
  double* UUQ_RESTRICT left = scratch->left.data();
  double* UUQ_RESTRICT right = scratch->right.data();

  // delta_min tracks the global objective Σ|Δ(b)| over all current buckets
  // (todo + finalized), exactly as Algorithm 1's δmin. done_delta_sum is
  // the Σ|Δ| of the finalized buckets, accumulated in done-push order —
  // the same left-fold a recomputation loop over `done` would run.
  double delta_min = AbsDelta(inner, index.SliceRows(0, runs));
  double done_delta_sum = 0.0;
  PartitionScratch::Bucket root;
  root.end = runs;
  root.delta = delta_min;
  todo.push_back(root);

  // FIFO worklist on a flat vector: `head` plays the deque's pop_front, so
  // the split order — and with it every tie-break — matches a deque-based
  // traversal while staying allocation-free on reuse.
  for (size_t head = 0; head < todo.size(); ++head) {
    // Bucket-granularity cancellation: a fired token finalizes every
    // pending bucket unsplit, so the bounds below are still a valid
    // partition (just coarser than Algorithm 1's fixpoint) and no scan
    // starts after the token fires.
    if (cancel_.Fired()) {
      for (size_t i = head; i < todo.size(); ++i) {
        done.push_back({todo[i].begin, todo[i].end});
      }
      break;
    }
    const PartitionScratch::Bucket work = todo[head];  // copy: todo may grow
    // |Δ| of this bucket was evaluated as a half of the parent's winning
    // candidate (the root computed it above).
    const double b_delta = work.delta;
    // Objective contribution of everything except this bucket. Infinity-
    // aware: if b_delta is infinite, the remainder is rebuilt from the
    // per-bucket deltas of the finalized and pending buckets rather than
    // subtracting inf.
    double delta_rest;
    if (std::isinf(b_delta) || std::isinf(delta_min)) {
      delta_rest = done_delta_sum;
      for (size_t i = head + 1; i < todo.size(); ++i) {
        delta_rest += todo[i].delta;
      }
      delta_min = delta_rest + b_delta;
    } else {
      delta_rest = delta_min - b_delta;
    }

    // Candidate cuts are the rows strictly inside the bucket.
    const size_t first = work.begin + 1;
    const size_t count = work.end - first;
    size_t best = work.end;  // no split
    double best_left = 0.0;
    double best_right = 0.0;
    // Both halves are nonnegative, so when delta_rest ≥ δmin no candidate
    // total can go strictly below δmin: skip the whole scan.
    if (count > 0 && delta_rest < delta_min) {
      // The side evaluated last lists the cuts whose bracketed totals leave
      // them in the running for the first minimum (CutFold).
      CutFold fold;
      fold.delta_rest = delta_rest;
      fold.delta_min = delta_min;
      fold.candidates = &scratch->candidates;
      if (!work.right_known) {
        if (!work.left_known) {
          EvaluateSide(inner, index, first, count, work.begin,
                       PrefixSideView::Side::kLeft, left + first, nullptr);
        }
        fold.other = left + first;
        EvaluateSide(inner, index, first, count, work.end,
                     PrefixSideView::Side::kRight, right + first, &fold);
      } else {
        fold.other = right + first;
        EvaluateSide(inner, index, first, count, work.begin,
                     PrefixSideView::Side::kLeft, left + first, &fold);
      }
      // The in-order first-minimum fold over the candidates' exact totals:
      // the cut and the δmin bits of the fold over every cut's exact total.
      ++scratch->folded_scans;
      scratch->exact_candidates +=
          static_cast<int64_t>(scratch->candidates.size());
      for (const size_t lane : scratch->candidates) {
        const size_t row = first + lane;
        const double left_half =
            AbsDelta(inner, index.SliceRows(work.begin, row));
        const double right_half =
            AbsDelta(inner, index.SliceRows(row, work.end));
        const double total = (delta_rest + left_half) + right_half;
        if (total < delta_min) {
          delta_min = total;
          best = row;
          best_left = left_half;
          best_right = right_half;
        }
      }
    }

    if (best == work.end) {
      done_delta_sum += b_delta;
      done.push_back({work.begin, work.end});
      continue;
    }
    // The left child keeps this bucket's begin, so left[] stays valid over
    // its rows; the right child keeps the end, so right[] does.
    PartitionScratch::Bucket left_child;
    left_child.begin = work.begin;
    left_child.end = best;
    left_child.delta = best_left;
    left_child.left_known = true;
    PartitionScratch::Bucket right_child;
    right_child.begin = best;
    right_child.end = work.end;
    right_child.delta = best_right;
    right_child.right_known = true;
    todo.push_back(left_child);
    todo.push_back(right_child);
  }

  std::sort(done.begin(), done.end());
  bounds->clear();
  bounds->push_back(0);
  for (const auto& r : done) bounds->push_back(r.second);
}

BucketSumEstimator::BucketSumEstimator()
    : BucketSumEstimator(std::make_shared<DynamicPartitioner>(),
                         std::make_shared<NaiveEstimator>()) {}

BucketSumEstimator::BucketSumEstimator(
    std::shared_ptr<const BucketPartitioner> partitioner,
    std::shared_ptr<const StatsSumEstimator> inner)
    : partitioner_(std::move(partitioner)), inner_(std::move(inner)) {
  UUQ_CHECK(partitioner_ != nullptr && inner_ != nullptr);
  name_ = "bucket[" + partitioner_->name();
  if (inner_->name() != "naive") name_ += "," + inner_->name();
  name_ += "]";
}

std::string BucketSumEstimator::name() const { return name_; }

void BucketSumEstimator::ComputeBucketsInto(
    const SortedEntityIndex& index, PartitionScratch* partition_scratch,
    std::vector<size_t>* bounds, std::vector<ValueBucket>* out) const {
  partitioner_->PartitionInto(index, *inner_, partition_scratch, bounds);
  const std::vector<size_t>& positions = index.row_positions();
  out->clear();
  for (size_t i = 0; i + 1 < bounds->size(); ++i) {
    const size_t begin = (*bounds)[i];
    const size_t end = (*bounds)[i + 1];
    if (begin == end) continue;
    out->emplace_back();
    ValueBucket& bucket = out->back();
    bucket.lo = index.entities()[positions[begin]].value;
    bucket.hi = index.entities()[positions[end] - 1].value;
    bucket.stats = index.SliceRows(begin, end);
    bucket.estimate = inner_->FromStats(bucket.stats);
  }
}

std::vector<ValueBucket> BucketSumEstimator::ComputeBuckets(
    const SortedEntityIndex& index) const {
  // Deliberately call-local (unlike the replicate path's thread_local
  // IndexScratch): a one-shot point estimate would otherwise pin the
  // partition scratch's high-water allocation to every calling thread.
  PartitionScratch partition_scratch;
  std::vector<size_t> bounds;
  std::vector<ValueBucket> buckets;
  ComputeBucketsInto(index, &partition_scratch, &bounds, &buckets);
  return buckets;
}

std::vector<ValueBucket> BucketSumEstimator::ComputeBuckets(
    const IntegratedSample& sample) const {
  return ComputeBuckets(SortedEntityIndex(sample.entities()));
}

namespace {

IndexScratch& ThreadReplicateScratch() {
  // thread_local: one warm scratch per worker thread, shared by every
  // replicate entry point (SUM, AVG and MIN/MAX) and never touched by
  // another thread; every rebuild starts from the resting state, so reuse
  // never changes a result.
  static thread_local IndexScratch scratch;
  return scratch;
}

}  // namespace

const std::vector<ValueBucket>& BucketSumEstimator::ReplicateBuckets(
    const ReplicateSample& rep, IndexScratch* scratch) const {
  UUQ_CHECK(scratch != nullptr);
  const SortedEntityIndex& index = scratch->RebuildIndex(rep);
  ComputeBucketsInto(index, &scratch->partition_, &scratch->bounds_,
                     &scratch->buckets_);
  return scratch->buckets_;
}

const std::vector<ValueBucket>& BucketSumEstimator::ComputeBuckets(
    const ReplicateSample& rep) const {
  return ReplicateBuckets(rep, &ThreadReplicateScratch());
}

Estimate BucketSumEstimator::FromBuckets(
    const SampleStats& whole, const std::vector<ValueBucket>& buckets) const {
  Estimate est;
  est.estimator = name_;
  est.num_buckets = static_cast<int>(buckets.size());
  est.coverage_ok = whole.Coverage() >= kCoverageRecommendationThreshold;
  if (buckets.empty()) {
    est.coverage_ok = false;
    return est;
  }

  double delta = 0.0;
  double n_hat = 0.0;
  bool finite = true;
  for (const ValueBucket& b : buckets) {
    delta += b.estimate.delta;
    n_hat += b.estimate.n_hat;
    finite = finite && b.estimate.finite;
  }
  est.delta = delta;
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(whole.c);
  est.missing_value =
      est.missing_count > 0.0 ? delta / est.missing_count : 0.0;
  est.finite = finite && std::isfinite(delta);
  est.corrected_sum = whole.value_sum + delta;
  return est;
}

Estimate BucketSumEstimator::EstimateImpact(
    const IntegratedSample& sample) const {
  return FromBuckets(SampleStats::FromSample(sample), ComputeBuckets(sample));
}

Estimate BucketSumEstimator::EstimateReplicate(
    const ReplicateSample& rep) const {
  return EstimateReplicate(rep, &ThreadReplicateScratch());
}

Estimate BucketSumEstimator::EstimateReplicate(const ReplicateSample& rep,
                                               IndexScratch* scratch) const {
  return FromBuckets(SampleStats::FromReplicate(rep),
                     ReplicateBuckets(rep, scratch));
}

}  // namespace uuq
