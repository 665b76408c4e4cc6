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
      index(sample->entities()),
      stats(SampleStats::FromSample(*sample)),
      advice(EstimatorAdvisor(advisor).Advise(*sample)) {}

std::string SampleArtifacts::AnswerKey(const std::string& sql, int replicates,
                                       bool attach_interval) {
  if (!attach_interval) replicates = 0;
  return sql + "|B=" + std::to_string(replicates) +
         (attach_interval ? "|interval" : "|point");
}

bool SampleArtifacts::LookupAnswer(const std::string& key,
                                   CorrectedAnswer* out) const {
  MutexLock lock(&memo_mu_);
  const auto it = memo_.find(key);
  if (it == memo_.end()) return false;
  *out = it->second;
  return true;
}

void SampleArtifacts::MemoizeAnswer(const std::string& key,
                                    const CorrectedAnswer& answer) const {
  UUQ_DCHECK(!answer.bootstrap_aborted);
  MutexLock lock(&memo_mu_);
  if (memo_.size() >= kAnswerMemoCapacity) return;
  memo_.emplace(key, answer);  // first writer wins (identical by contract)
}

}  // namespace uuq
