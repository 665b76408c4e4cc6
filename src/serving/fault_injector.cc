#include "serving/fault_injector.h"

#include <cerrno>
#include <cstdlib>
#include <thread>

#include "common/macros.h"
#include "common/strings.h"

namespace uuq {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kSlowReplicate:
      return "slow_replicate";
    case FaultSite::kQueueStall:
      return "queue_stall";
  }
  return "unknown";
}

namespace {

/// SplitMix64 finalizer: the (seed, site, probe) triple hashes to a uniform
/// 64-bit word, whose top 53 bits become the probe's uniform in [0, 1).
/// Same mixing quality as Rng's seeding, without carrying generator state
/// per site.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ProbeUniform(uint64_t seed, FaultSite site, int64_t probe) {
  uint64_t h = Mix(seed ^ Mix(static_cast<uint64_t>(site) + 1));
  h = Mix(h ^ static_cast<uint64_t>(probe));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Result<FaultSite> ParseSite(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    if (name == FaultSiteName(site)) return site;
  }
  return Status::InvalidArgument("unknown fault site '" + std::string(name) +
                                 "'");
}

Result<std::chrono::nanoseconds> ParseDelay(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double magnitude = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || errno != 0 || magnitude < 0.0) {
    return Status::InvalidArgument("bad fault delay '" + text + "'");
  }
  const std::string_view unit = StripWhitespace(end);
  double to_ns;
  if (unit.empty() || unit == "ms") {
    to_ns = 1e6;
  } else if (unit == "ns") {
    to_ns = 1.0;
  } else if (unit == "us") {
    to_ns = 1e3;
  } else if (unit == "s") {
    to_ns = 1e9;
  } else {
    return Status::InvalidArgument("bad fault delay unit '" + text + "'");
  }
  return std::chrono::nanoseconds(
      static_cast<int64_t>(magnitude * to_ns));
}

}  // namespace

Result<FaultInjector> FaultInjector::Parse(uint64_t seed,
                                           const std::string& spec) {
  std::array<FaultSpec, kNumFaultSites> specs{};
  for (const std::string& raw : Split(spec, ',')) {
    const std::string entry(StripWhitespace(raw));
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec entry '" + entry +
                                     "' is not site=prob[:delay]");
    }
    auto site = ParseSite(StripWhitespace(entry.substr(0, eq)));
    if (!site.ok()) return site.status();
    std::string rest = entry.substr(eq + 1);
    std::string delay_text;
    const size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      delay_text = rest.substr(colon + 1);
      rest.resize(colon);
    }
    errno = 0;
    char* end = nullptr;
    const double probability = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || !StripWhitespace(end).empty() ||
        errno != 0 || probability < 0.0 || probability > 1.0) {
      return Status::InvalidArgument("fault probability '" + rest +
                                     "' must be in [0, 1]");
    }
    FaultSpec& slot = specs[static_cast<size_t>(site.value())];
    slot.probability = probability;
    if (!delay_text.empty()) {
      auto delay = ParseDelay(delay_text);
      if (!delay.ok()) return delay.status();
      slot.delay = delay.value();
    }
  }
  return FaultInjector(seed, specs);
}

FaultInjector* FaultInjector::FromEnv() {
  static FaultInjector* injector = [] {
    const char* spec = std::getenv("UUQ_FAULT_SPEC");
    const char* seed_text = std::getenv("UUQ_FAULT_SEED");
    const uint64_t seed =
        seed_text != nullptr ? std::strtoull(seed_text, nullptr, 10) : 0;
    if (spec == nullptr || *spec == '\0') {
      return new FaultInjector();  // inert; intentionally leaked (static)
    }
    auto parsed = Parse(seed, spec);
    UUQ_CHECK_MSG(parsed.ok(),
                  "malformed UUQ_FAULT_SPEC (a chaos run with a typo would "
                  "silently test nothing)");
    return new FaultInjector(std::move(parsed).value());
  }();
  return injector;
}

bool FaultInjector::ShouldFire(FaultSite site) {
  const size_t s = static_cast<size_t>(site);
  if (specs_[s].probability <= 0.0) return false;
  // Relaxed claim: schedule determinism needs only that each probe gets a
  // DISTINCT counter value (RMW atomicity); the header's contract is per
  // SITE, independent of cross-site or cross-thread ordering.
  const int64_t probe = counters_[s].fetch_add(1, std::memory_order_relaxed);
  const bool fire = ProbeUniform(seed_, site, probe) < specs_[s].probability;
  if (fire) fired_[s].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

bool FaultInjector::MaybeStall(FaultSite site) {
  if (!ShouldFire(site)) return false;
  const auto stall = delay(site);
  if (stall.count() > 0) std::this_thread::sleep_for(stall);
  return true;
}

}  // namespace uuq
