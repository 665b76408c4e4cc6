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
// options, a capacity-capped memo of per-query answers and their replicate
// values (see "answer memo" below): a repeat of a query text on a snapshot
// skips replicate evaluation whenever its budget fits what is stored. The
// concurrency contract mirrors "Aggregate Estimation Over Dynamic Hidden
// Web Databases" (PAPERS.md):
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
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/advisor.h"
#include "core/bootstrap.h"
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
  // live in the shared corrector options, so a query text has ONE point
  // answer on this snapshot, and its replicate b has one value whatever
  // the budget. The memo keeps one entry per SQL text: the point answer
  // plus the replicate values of the longest completed run, in replicate
  // order. A request — point-only, fixed B, or any precision target — is
  // answered by replaying the stop rule over that prefix
  // (ReplayBootstrap), which gives the bit-identical answer a fresh run
  // would: a stored prefix of length B ≡ a fixed-B run. Only a request
  // whose schedule runs past the prefix misses; its fresh run then stores
  // the longer prefix. (QueryService does not look up precision-targeted
  // intervals yet; see RunQuery.) Replacement hygiene is free: the memo
  // lives on the snapshot, so RegisterSample's new snapshot starts empty
  // and the old memo dies with the old snapshot's last pin.
  //
  // The memo is capacity-capped (kAnswerMemoCapacity distinct SQL texts);
  // once full, new texts are computed fresh every time rather than
  // evicting — serving workloads repeat a small query set, and a bounded
  // memo can never become a memory leak shaped like a query log.

  /// Answers `sql` from the memo into `*out`: the point answer, plus — when
  /// `attach_interval` — the interval `bootstrap` asks for, replayed over
  /// the stored replicate prefix. False on a miss: the text is not stored,
  /// or the budget needs replicates past the prefix.
  bool LookupAnswer(const std::string& sql, bool attach_interval,
                    const BootstrapOptions& bootstrap,
                    CorrectedAnswer* out) const UUQ_EXCLUDES(memo_mu_);

  /// Stores `answer`, computed for `sql` on this snapshot: its point half
  /// on first sight, and its replicate values (bootstrap.by_replicate)
  /// whenever they are longer than the stored prefix. Silently dropped for
  /// a new text at capacity.
  void MemoizeAnswer(const std::string& sql,
                     const CorrectedAnswer& answer) const
      UUQ_EXCLUDES(memo_mu_);

 private:
  struct MemoEntry {
    CorrectedAnswer point;  ///< the answer with its interval fields cleared
    std::vector<double> by_replicate;  ///< longest completed run's values
  };
  static constexpr size_t kAnswerMemoCapacity = 64;
  mutable Mutex memo_mu_;
  mutable std::map<std::string, MemoEntry> memo_ UUQ_GUARDED_BY(memo_mu_);
};

}  // namespace uuq

#endif  // UUQ_SERVING_SAMPLE_CACHE_H_
