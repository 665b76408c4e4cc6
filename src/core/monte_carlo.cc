#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/chao92.h"
#include "stats/coverage.h"
#include "stats/curve_fit.h"
#include "stats/distributions.h"
#include "stats/kl_divergence.h"
#include "stats/sampling.h"

namespace uuq {

// Reusable buffers for Algorithm 2's inner loop. One instance lives per
// worker thread (thread_local in EstimateNhat); every buffer is either fully
// overwritten or restored to its resting state (histogram all-zero, shuffler
// permutation identity) before a run reads it, so reuse across grid points
// and estimates never changes results.
struct SimulationScratch {
  std::vector<double> publicity;   // weights of the current grid point
  std::vector<double> histogram;   // per-item multiplicity, size >= θN
  std::vector<int> touched;        // histogram cells that became non-zero
  std::vector<double> sim_counts;  // non-zero multiplicities, sorted desc
  PartialShuffler uniform_sampler;
  WeightedWorSelector weighted_sampler;
};

namespace {

/// The θλ grid [lo, hi] in `step` increments. Values within 1e-12 of zero
/// snap to exactly 0.0 so the uniform-publicity fast path triggers on the
/// middle row (lo + k·step lands on ±ε for the default grid).
std::vector<double> LambdaGrid(const MonteCarloOptions& options) {
  UUQ_CHECK(options.lambda_step > 0.0);
  std::vector<double> lambdas;
  const int count = static_cast<int>(
      std::floor((options.lambda_hi - options.lambda_lo) /
                     options.lambda_step +
                 1e-9)) +
      1;
  lambdas.reserve(static_cast<size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    double lambda = options.lambda_lo + options.lambda_step * i;
    if (std::fabs(lambda) < 1e-12) lambda = 0.0;
    lambdas.push_back(lambda);
  }
  return lambdas;
}

/// The θN grid c..chao in (chao−c)/n_grid_steps increments, with rounding
/// collisions dropped.
std::vector<int64_t> ThetaNGrid(int64_t c, double chao, int steps) {
  const double step = (chao - static_cast<double>(c)) / steps;
  std::vector<int64_t> thetas;
  thetas.reserve(static_cast<size_t>(steps) + 1);
  int64_t previous = -1;
  for (int i = 0; i <= steps; ++i) {
    const int64_t theta_n =
        static_cast<int64_t>(std::llround(static_cast<double>(c) + step * i));
    if (theta_n == previous) continue;
    previous = theta_n;
    thetas.push_back(theta_n);
  }
  return thetas;
}

}  // namespace

double MonteCarloEstimator::SimulatedDistanceSorted(
    int64_t theta_n, double theta_lambda,
    const std::vector<double>& observed_desc, double observed_sum,
    const std::vector<int64_t>& source_sizes, Rng* rng,
    SimulationScratch* scratch) const {
  UUQ_CHECK(rng != nullptr);
  UUQ_CHECK(theta_n >= 1);
  const int n_items = static_cast<int>(theta_n);
  // θλ = 0 is uniform publicity: the partial Fisher-Yates path needs no
  // weight vector at all and costs O(n_i) per source instead of O(θN).
  const bool uniform = theta_lambda == 0.0;
  if (!uniform) {
    scratch->publicity = MonteCarloPublicity(n_items, theta_lambda);
  }
  if (scratch->histogram.size() < static_cast<size_t>(n_items)) {
    scratch->histogram.resize(static_cast<size_t>(n_items), 0.0);
  }

  double total = 0.0;
  for (int run = 0; run < options_.runs_per_point; ++run) {
    scratch->touched.clear();
    const auto visit = [scratch](int idx) {
      double& cell = scratch->histogram[static_cast<size_t>(idx)];
      if (cell == 0.0) scratch->touched.push_back(idx);
      cell += 1.0;
    };
    for (int64_t nj : source_sizes) {
      // Each source samples without replacement from the hypothesized
      // population; a source larger than θN simply exhausts it.
      const int k = static_cast<int>(std::min<int64_t>(nj, theta_n));
      if (uniform) {
        scratch->uniform_sampler.Draw(n_items, k, rng, visit);
      } else {
        scratch->weighted_sampler.Draw(scratch->publicity, k, rng, visit);
      }
    }
    // Collect the non-zero histogram cells (zeroing them for the next run)
    // and compare against the observation under the rank-aligned KL.
    scratch->sim_counts.clear();
    double simulated_sum = 0.0;
    for (int idx : scratch->touched) {
      double& cell = scratch->histogram[static_cast<size_t>(idx)];
      scratch->sim_counts.push_back(cell);
      simulated_sum += cell;
      cell = 0.0;
    }
    std::sort(scratch->sim_counts.begin(), scratch->sim_counts.end(),
              std::greater<double>());
    const size_t support =
        std::max(observed_desc.size(), static_cast<size_t>(n_items));
    total += AlignedKlDivergenceSortedDesc(
        observed_desc.data(), observed_desc.size(), observed_sum,
        scratch->sim_counts.data(), scratch->sim_counts.size(), simulated_sum,
        support, options_.smoothing_epsilon);
  }
  return total / options_.runs_per_point;
}

double MonteCarloEstimator::SimulatedDistance(
    int64_t theta_n, double theta_lambda,
    const std::vector<int64_t>& observed_multiplicities,
    const std::vector<int64_t>& source_sizes, Rng* rng) const {
  // Non-positive multiplicities are dropped: under the rank-aligned KL a
  // zero cell is indistinguishable from a padding cell (both smoothed to
  // epsilon over the max(c, θN) support), and the sorted-desc kernel
  // requires positive counts.
  std::vector<double> observed_desc;
  observed_desc.reserve(observed_multiplicities.size());
  double observed_sum = 0.0;
  for (int64_t m : observed_multiplicities) {
    if (m <= 0) continue;
    observed_desc.push_back(static_cast<double>(m));
    observed_sum += static_cast<double>(m);
  }
  std::sort(observed_desc.begin(), observed_desc.end(),
            std::greater<double>());
  SimulationScratch scratch;
  return SimulatedDistanceSorted(theta_n, theta_lambda, observed_desc,
                                 observed_sum, source_sizes, rng, &scratch);
}

double MonteCarloEstimator::NhatFromColumns(
    const SampleStats& stats, std::vector<double> observed_desc,
    const std::vector<int64_t>& source_sizes) const {
  const int64_t c = stats.c;

  double chao = Chao92Nhat(stats);
  if (!std::isfinite(chao)) {
    chao = static_cast<double>(c) * options_.infinite_nhat_cap_factor;
  }
  if (chao <= static_cast<double>(c) + 0.5) {
    // Degenerate search interval: the sample already looks complete.
    return static_cast<double>(c);
  }

  double observed_sum = 0.0;
  for (double m : observed_desc) observed_sum += m;
  std::sort(observed_desc.begin(), observed_desc.end(),
            std::greater<double>());

  // Grid evaluation (Algorithm 3 lines 3-10), parallel over grid points.
  // Each point's Rng stream is derived serially, in grid order, from the
  // root generator, so results do not depend on the thread count.
  const std::vector<int64_t> thetas =
      ThetaNGrid(c, chao, options_.n_grid_steps);
  const std::vector<double> lambdas = LambdaGrid(options_);

  struct GridPoint {
    int64_t theta_n;
    double lambda;
  };
  std::vector<GridPoint> points;
  points.reserve(thetas.size() * lambdas.size());
  for (int64_t theta_n : thetas) {
    for (double lambda : lambdas) {
      points.push_back({theta_n, lambda});
    }
  }
  if (points.empty()) return static_cast<double>(c);

  Rng root(options_.seed ^ static_cast<uint64_t>(stats.n) * 0x9E3779B9ull);
  const std::vector<Rng> streams =
      root.SplitStreams(static_cast<int>(points.size()));

  std::vector<double> zs(points.size());
  ThreadPool::OrDefault(options_.pool)
      ->ParallelFor(0, static_cast<int64_t>(points.size()), [&](int64_t i) {
        // Grid-point granularity cancellation: a skipped point records an
        // infinite distance (never the argmin) and costs nothing; in-flight
        // points finish and ParallelFor joins, so the scratch stays owned.
        if (options_.cancel.Fired()) {
          zs[static_cast<size_t>(i)] = std::numeric_limits<double>::infinity();
          return;
        }
        // thread_local: per-worker simulation buffers — the MC inner loop's
        // allocation-free contract depends on warm per-thread reuse.
        thread_local SimulationScratch scratch;
        const GridPoint& point = points[static_cast<size_t>(i)];
        Rng rng = streams[static_cast<size_t>(i)];
        zs[static_cast<size_t>(i)] = SimulatedDistanceSorted(
            point.theta_n, point.lambda, observed_desc, observed_sum,
            source_sizes, &rng, &scratch);
      });
  // Cancelled mid-grid: the surface is full of +inf holes, so neither the
  // fit nor the argmin means anything. Return the conservative "sample is
  // complete" clamp; the caller's token tells it to discard the answer.
  if (options_.cancel.Fired()) return static_cast<double>(c);

  std::vector<double> xs, ys;
  xs.reserve(points.size());
  ys.reserve(points.size());
  for (const GridPoint& point : points) {
    xs.push_back(static_cast<double>(point.theta_n));
    ys.push_back(point.lambda);
  }

  // Curve fit + argmin on the fitted surface (lines 11-12); fall back to the
  // raw grid argmin when the fit is degenerate.
  auto surface = FitQuadraticSurface(xs, ys, zs);
  double n_mc;
  if (surface.ok()) {
    auto [best_n, best_lambda] =
        MinimizeOnBox(surface.value(), static_cast<double>(c), chao,
                      options_.lambda_lo, options_.lambda_hi);
    UUQ_UNUSED(best_lambda);
    n_mc = best_n;
  } else {
    size_t best = 0;
    for (size_t i = 1; i < zs.size(); ++i) {
      if (zs[i] < zs[best]) best = i;
    }
    n_mc = xs[best];
  }
  return std::clamp(n_mc, static_cast<double>(c), chao);
}

double MonteCarloEstimator::EstimateNhat(const IntegratedSample& sample) const {
  if (sample.empty()) return 0.0;
  std::vector<double> observed;
  observed.reserve(sample.entities().size());
  for (const EntityStat& e : sample.entities()) {
    observed.push_back(static_cast<double>(e.multiplicity));
  }
  return NhatFromColumns(SampleStats::FromSample(sample), std::move(observed),
                         sample.SourceSizeVector());
}

double MonteCarloEstimator::EstimateNhat(const ReplicateSample& rep) const {
  if (rep.entities.empty()) return 0.0;
  std::vector<double> observed;
  observed.reserve(rep.entities.size());
  for (const EntityPoint& point : rep.entities) {
    observed.push_back(static_cast<double>(point.multiplicity));
  }
  return NhatFromColumns(SampleStats::FromReplicate(rep), std::move(observed),
                         rep.source_sizes);
}

namespace {

/// §3.4's final mean-substitution step, shared by both entry points.
Estimate ImpactFromNhat(const std::string& name, const SampleStats& stats,
                        double n_hat) {
  Estimate est;
  est.estimator = name;
  est.coverage_ok = stats.Coverage() >= kCoverageRecommendationThreshold;
  if (stats.empty()) {
    est.coverage_ok = false;
    return est;
  }
  est.n_hat = n_hat;
  est.missing_count = n_hat - static_cast<double>(stats.c);
  est.missing_value = stats.ValueMean();
  est.delta = est.missing_value * est.missing_count;
  est.finite = std::isfinite(est.delta);
  est.corrected_sum = stats.value_sum + est.delta;
  return est;
}

}  // namespace

Estimate MonteCarloEstimator::EstimateImpact(
    const IntegratedSample& sample) const {
  const SampleStats stats = SampleStats::FromSample(sample);
  return ImpactFromNhat(name(), stats,
                        stats.empty() ? 0.0 : EstimateNhat(sample));
}

Estimate MonteCarloEstimator::EstimateReplicate(
    const ReplicateSample& rep) const {
  const SampleStats stats = SampleStats::FromReplicate(rep);
  return ImpactFromNhat(name(), stats,
                        stats.empty() ? 0.0 : EstimateNhat(rep));
}

}  // namespace uuq
