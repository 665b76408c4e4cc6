#include "serving/sample_cache.h"

#include <utility>

#include "common/macros.h"

namespace uuq {
namespace {

std::shared_ptr<const IntegratedSample> CheckedSample(
    std::shared_ptr<const IntegratedSample> sample) {
  UUQ_CHECK(sample != nullptr);
  return sample;
}

}  // namespace

SampleArtifacts::SampleArtifacts(
    std::shared_ptr<const IntegratedSample> sample_in,
    const EstimatorAdvisor::Options& advisor)
    : sample(CheckedSample(std::move(sample_in))),
      view(*sample),
      buckets(BucketSumEstimator().ComputeBuckets(*sample)),
      stats(SampleStats::FromSample(*sample)),
      advice(EstimatorAdvisor(advisor).Advise(*sample)) {}

bool SampleArtifacts::LookupAnswer(const std::string& sql,
                                   bool attach_interval,
                                   const BootstrapOptions& bootstrap,
                                   CorrectedAnswer* out) const {
  MutexLock lock(&memo_mu_);
  const auto it = memo_.find(sql);
  if (it == memo_.end()) return false;
  const MemoEntry& entry = it->second;
  BootstrapInterval interval;
  if (attach_interval && !ReplayBootstrap(entry.point.corrected,
                                          entry.by_replicate, bootstrap,
                                          &interval)) {
    return false;
  }
  *out = entry.point;
  if (attach_interval) {
    out->bootstrap = std::move(interval);
    out->bootstrap_valid = true;
    out->bootstrap_confidence = bootstrap.confidence;
  }
  return true;
}

void SampleArtifacts::MemoizeAnswer(const std::string& sql,
                                    const CorrectedAnswer& answer) const {
  const std::vector<double>& values = answer.bootstrap.by_replicate;
  MutexLock lock(&memo_mu_);
  const auto it = memo_.find(sql);
  if (it != memo_.end()) {
    // Replicate b is stream b, so the shorter prefix is a prefix of the
    // longer one: keep the longer.
    if (values.size() > it->second.by_replicate.size()) {
      it->second.by_replicate = values;
    }
    return;
  }
  if (memo_.size() >= kAnswerMemoCapacity) return;
  MemoEntry entry;
  entry.point = answer;
  entry.point.bootstrap = BootstrapInterval();
  entry.point.bootstrap_valid = false;
  entry.point.bootstrap_confidence = 0.0;
  entry.by_replicate = values;
  memo_.emplace(sql, std::move(entry));
}

}  // namespace uuq
