// Per-registered-sample artifact snapshot: the state QueryService serves
// every query from.
//
// Every correction over a sample starts by recomputing things that depend
// only on the sample, never on the query: the flattened columnar SampleView,
// the value-sorted SortedEntityIndex behind the bucket estimator's point
// estimate, the whole-sample SampleStats fold, and the advisor's estimator
// verdict. A registered sample answers many queries, so QueryService builds
// those four artifacts once at RegisterSample and shares them with every
// query on that sample.
//
// SampleArtifacts bundles them plus a shared_ptr that pins the sample itself
// — and, because every engine is deterministic under the shared corrector
// options, a capacity-capped memo of completed per-query answers (see
// "answer memo" below): the second identical query on a snapshot skips
// replicate evaluation entirely. The concurrency contract mirrors
// "Aggregate Estimation Over Dynamic Hidden Web Databases" (PAPERS.md):
// registered samples get REPLACED over time, so replacement must atomically
// swap the snapshot for new admissions while in-flight queries keep the
// snapshot they pinned at admission — shared_ptr's refcount is the whole
// mechanism. The artifacts themselves are never mutated after construction
// (the answer memo is the one internally-locked exception), so no locks are
// held while a query uses its snapshot, and a replaced snapshot dies
// exactly when its last in-flight query finishes (ASan-pinned by
// tests/serving_test.cc's replacement tests).
//
// BIT-IDENTITY CONTRACT. Every artifact is a pure deterministic function of
// the sample (and, for the advice, of the advisor options the snapshot was
// built with), so an answer computed on a snapshot is byte-for-byte the
// answer the offline QueryCorrector computes without one. The tests pin
// this per aggregate (sample_cache_test, serving_test).
#ifndef UUQ_SERVING_SAMPLE_CACHE_H_
#define UUQ_SERVING_SAMPLE_CACHE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/advisor.h"
#include "core/bucket.h"
#include "core/estimate.h"
#include "core/query_correction.h"
#include "integration/sample.h"
#include "integration/sample_view.h"

namespace uuq {

/// Immutable bundle of the query-independent artifacts of one sample.
/// Construction does all the work once; afterwards the bundle is read-only
/// and safe to share across any number of concurrent queries.
struct SampleArtifacts {
  /// Builds every artifact from `sample` (which must be non-null). `advisor`
  /// must be the advisor configuration queries will run with — the cached
  /// advice is only valid under the same options (SamplePrecomp's contract).
  SampleArtifacts(std::shared_ptr<const IntegratedSample> sample,
                  const EstimatorAdvisor::Options& advisor);

  // Declaration order is construction order: the view/index/stats/advice
  // all borrow from *sample, which the bundle pins for its whole lifetime.
  std::shared_ptr<const IntegratedSample> sample;
  SampleView view;          ///< flattened columns of *sample
  SortedEntityIndex index;  ///< over sample->entities()
  SampleStats stats;        ///< SampleStats::FromSample(*sample)
  Advice advice;            ///< advisor verdict under the ctor's options

  /// The non-owning pointer bundle the core layer consumes. Valid only
  /// while this SampleArtifacts is alive — callers keep their shared_ptr
  /// snapshot pinned for at least as long as any SamplePrecomp use.
  SamplePrecomp precomp() const {
    SamplePrecomp pre;
    pre.view = &view;
    pre.index = &index;
    pre.stats = &stats;
    pre.advice = &advice;
    return pre;
  }

  // ---- answer memo (the cross-query half of the cache) -------------------
  //
  // Every engine under the corrector is deterministic: the replicate seeds
  // live in the shared corrector options, so two queries with the same text,
  // replicate count, and interval flag compute THE SAME CorrectedAnswer on
  // this snapshot, bit for bit. The serving layer memoizes each COMPLETED
  // answer here, so a repeat query — the "millions of users ask the same
  // aggregate" serving axis — returns the byte-identical answer without
  // re-running replicate evaluation at all. Replacement hygiene is free:
  // the memo lives on the snapshot, so RegisterSample's new snapshot starts
  // empty and the old memo dies with the old snapshot's last pin.
  //
  // The memo is capacity-capped (kAnswerMemoCapacity distinct keys); once
  // full, new keys are computed fresh every time rather than evicting —
  // serving workloads repeat a small query set, and a bounded memo can
  // never become a memory leak shaped like a query log.

  /// Canonical memo key. `replicates` is ignored (normalized to 0) when
  /// `attach_interval` is false — a point-only answer does not depend on it.
  static std::string AnswerKey(const std::string& sql, int replicates,
                               bool attach_interval);

  /// Copies the memoized answer for `key` into `*out`; false on miss.
  bool LookupAnswer(const std::string& key, CorrectedAnswer* out) const
      UUQ_EXCLUDES(memo_mu_);

  /// Memoizes `answer` under `key` (first writer wins; silently dropped at
  /// capacity). Callers must only pass answers from COMPLETE computations —
  /// never one whose interval was abandoned mid-loop (bootstrap_aborted).
  void MemoizeAnswer(const std::string& key,
                     const CorrectedAnswer& answer) const
      UUQ_EXCLUDES(memo_mu_);

 private:
  static constexpr size_t kAnswerMemoCapacity = 64;
  mutable Mutex memo_mu_;
  mutable std::map<std::string, CorrectedAnswer> memo_
      UUQ_GUARDED_BY(memo_mu_);
};

}  // namespace uuq

#endif  // UUQ_SERVING_SAMPLE_CACHE_H_
