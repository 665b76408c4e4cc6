// The user-facing assembler: sources in, integrated sample out (Figure 1 /
// Figure 3 of the paper). QueryCorrector answers queries over the sample.
#ifndef UUQ_INTEGRATION_INTEGRATOR_H_
#define UUQ_INTEGRATION_INTEGRATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "integration/resolution.h"
#include "integration/sample.h"
#include "integration/source.h"

namespace uuq {

class Integrator {
 public:
  struct Options {
    FusionPolicy fusion = FusionPolicy::kAverage;
    /// When true, entity keys pass through a FuzzyResolver so near-duplicate
    /// mentions ("I.B.M. Corp" / "IBM") merge instead of inflating f1.
    bool fuzzy_resolution = false;
    FuzzyResolver::Options resolver;
  };

  Integrator() : Integrator(Options{}) {}
  explicit Integrator(Options options)
      : options_(std::move(options)),
        sample_(options_.fusion),
        resolver_(options_.resolver) {}

  /// Integrates a full source (all claims in order).
  Status AddSource(const DataSource& source);

  /// Streams a single observation (for arrival-order replay).
  void AddObservation(const Observation& obs);

  const IntegratedSample& sample() const { return sample_; }

  const Options& options() const { return options_; }

  /// The resolver state (meaningful only with fuzzy_resolution enabled).
  const FuzzyResolver& resolver() const { return resolver_; }

 private:
  std::string ResolveKey(const std::string& raw_key);

  Options options_;
  IntegratedSample sample_;
  FuzzyResolver resolver_;
};

}  // namespace uuq

#endif  // UUQ_INTEGRATION_INTEGRATOR_H_
