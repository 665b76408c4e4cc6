#include "core/adaptive_budget.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"

namespace uuq {

double NormalQuantile(double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) confidence = 0.95;
  const double p = 0.5 * (1.0 + confidence);  // two-sided -> upper tail

  // Acklam's inverse normal CDF approximation: three rational segments
  // (lower tail / central / upper tail), |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1.0 - p_low;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

namespace {

// Sample standard deviation over the finite entries of values[0..count).
// Returns the finite count via *finite_out; sd is 0 for < 2 finite values.
double FiniteSampleSd(const double* values, int count, int* finite_out) {
  int finite = 0;
  double mean = 0.0;
  for (int i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) continue;
    ++finite;
    mean += (values[i] - mean) / finite;  // streaming mean, no overflow
  }
  *finite_out = finite;
  if (finite < 2) return 0.0;
  double ss = 0.0;
  for (int i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) continue;
    const double d = values[i] - mean;
    ss += d * d;
  }
  return std::sqrt(ss / (finite - 1));
}

}  // namespace

double EstimatedHalfWidth(const double* values, int count, double confidence) {
  int finite = 0;
  const double sd = FiniteSampleSd(values, count, &finite);
  if (finite < 2) return std::numeric_limits<double>::infinity();
  if (sd == 0.0) return 0.0;
  return NormalQuantile(confidence) * sd / std::sqrt(double(finite));
}

int PlannedReplicates(const double* values, int count, double epsilon,
                      double confidence) {
  if (!(epsilon > 0.0)) return count;
  int finite = 0;
  const double sd = FiniteSampleSd(values, count, &finite);
  if (finite < 2 || sd == 0.0) return count;
  const double z = NormalQuantile(confidence);
  const double needed = std::ceil((z * sd / epsilon) * (z * sd / epsilon));
  if (!(needed > double(count))) return count;
  // Clamp to something sane before int conversion; the engine's cap applies
  // the real ceiling.
  const double capped = needed > 1e9 ? 1e9 : needed;
  return static_cast<int>(capped);
}

int NextReplicateTarget(const double* values, int done, int cap,
                        const AdaptiveBudgetOptions& budget,
                        AdaptiveBudgetReport* report) {
  UUQ_CHECK_MSG(budget.epsilon >= 0.0, "epsilon must be >= 0");
  if (budget.epsilon == 0.0) return done == 0 ? cap : done;
  UUQ_CHECK_MSG(budget.pilot_replicates > 0,
                "a precision target needs a pilot block");
  UUQ_CHECK_MSG(budget.escalation_block > 0,
                "a precision target needs a positive escalation block");
  if (done == 0) return std::min(cap, budget.pilot_replicates);
  report->half_width = EstimatedHalfWidth(values, done, budget.confidence);
  if (report->half_width <= budget.epsilon) {
    report->stop = BudgetStop::kTargetMet;
    return done;
  }
  if (done >= cap) {
    report->stop = BudgetStop::kCapReached;
    return done;
  }
  // Jump straight to the variance-predicted budget when it is larger than
  // one escalation block; the block floor keeps progress moving when the
  // pilot variance underestimates the tail.
  const int planned =
      PlannedReplicates(values, done, budget.epsilon, budget.confidence);
  ++report->escalations;
  return std::min(cap, std::max(planned, done + budget.escalation_block));
}

}  // namespace uuq
