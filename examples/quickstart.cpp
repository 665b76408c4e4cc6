// Quickstart: estimate the impact of unknown unknowns on a SUM query.
//
// Recreates the paper's Appendix F toy example: five sources report US tech
// companies and their employee counts; two companies (C and E) are never
// mentioned by the first four sources. We ask how far the observed
// SELECT SUM(employee) is from the (unknown to the system) ground truth and
// let each estimator correct it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/bucket.h"
#include "core/frequency.h"
#include "core/naive.h"
#include "core/query_correction.h"
#include "integration/integrator.h"

int main() {
  using namespace uuq;

  // 1. Declare the sources (each mentions an entity at most once).
  DataSource s1("s1"), s2("s2"), s3("s3"), s4("s4"), s5("s5");
  (void)s1.Add("Company A", 1000);
  (void)s1.Add("Company B", 2000);
  (void)s1.Add("Company D", 10000);
  (void)s2.Add("Company B", 2000);
  (void)s2.Add("Company D", 10000);
  (void)s3.Add("Company D", 10000);
  (void)s4.Add("Company D", 10000);
  (void)s5.Add("Company A", 1000);
  (void)s5.Add("Company E", 300);

  // 2. Integrate them (entity resolution + value fusion + lineage).
  Integrator integrator;
  for (const DataSource* s : {&s1, &s2, &s3, &s4}) {
    if (Status status = integrator.AddSource(*s); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  const double ground_truth = 1000 + 2000 + 900 + 10000 + 300;  // = 14200

  // 3. Ask each estimator for the corrected answer.
  auto report = [&](const IntegratedSample& sample, const char* when) {
    std::printf("--- %s: observed SUM = %.0f (truth %.0f) ---\n", when,
                sample.ObservedSum(), ground_truth);
    for (const SumEstimator* est :
         std::initializer_list<const SumEstimator*>{
             new NaiveEstimator(), new FrequencyEstimator(),
             new BucketSumEstimator()}) {
      const Estimate e = est->EstimateImpact(sample);
      std::printf("  %-16s corrected = %8.1f  (delta %+8.1f, N-hat %5.1f)\n",
                  e.estimator.c_str(), e.corrected_sum, e.delta, e.n_hat);
      delete est;
    }
  };
  report(integrator.sample(), "before source s5");

  // 4. A new source arrives; everything updates incrementally.
  (void)integrator.AddSource(s5);
  report(integrator.sample(), "after source s5");

  // 5. Or just ask SQL and let the library pick the estimator and attach
  //    the worst-case bound + advice.
  const QueryCorrector corrector;
  auto answer = corrector.CorrectSql(
      integrator.sample(), "SELECT SUM(value) FROM us_tech_companies");
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s", answer.value().ToString().c_str());
  return 0;
}
