// uuq_cli — correct an aggregate query over a CSV of observations.
//
// Usage:
//   uuq_cli <observations.csv> "<SQL>" [options]
//   uuq_cli --demo "<SQL>" [options]
//
// The CSV needs 'source', 'entity' and 'value' columns (any order, extra
// columns ignored). SQL has the paper's shape:
//   SELECT SUM|COUNT|AVG|MIN|MAX(value) FROM <table>
//       [WHERE <pred over entity/value/observations/category>]
//       [GROUP BY category]
//
// Options:
//   --estimator=auto|bucket|mc|naive|freq   (default auto: §6.5 advisor)
//   --bootstrap[=N]                         percentile interval over N
//                                           replicates (default 200), on
//                                           the filtered sample
//   --fusion=average|first|last|majority    value-fusion policy
//   --demo                                  run on a built-in demo stream
//
// Server mode:
//   uuq_cli --serve <observations.csv>|--demo [--workers=N] [--queue=N]
//           [--deadline-ms=N]
// reads one SQL query per stdin line and serves it through the
// deadline-aware QueryService (admission control, cooperative cancellation,
// graceful degradation — serving/query_service.h). A line may carry a
// precision target before the SQL:
//   epsilon=250 confidence=0.99 SELECT SUM(value) FROM integrated
// which runs the pilot-then-refine adaptive replicate budget (stop as soon
// as the replicate-mean Monte Carlo half-width — the resolution of the
// replicate ensemble, not the reported interval's own width, see
// core/adaptive_budget.h — meets ±epsilon, escalate up to the configured
// cap otherwise); UUQ_SERVE_EPSILON / UUQ_SERVE_CONFIDENCE set defaults for
// lines that carry none. A malformed target (unparseable number, or a
// target token with no SQL after it) rejects the LINE with a usage
// message; out-of-range values the service refuses (epsilon < 0,
// confidence >= 1) come back as typed kInvalidArgument statuses. Failures
// print as typed statuses; EOF or "quit" shuts down and prints the serving
// counters. The UUQ_FAULT_SEED / UUQ_FAULT_SPEC env knobs inject
// deterministic faults.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "core/bootstrap.h"
#include "core/bucket.h"
#include "core/query_correction.h"
#include "db/csv.h"
#include "db/sql_parser.h"
#include "serving/query_service.h"
#include "simulation/scenarios.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "uuq_cli: %s\n", message.c_str());
  return 1;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: uuq_cli <observations.csv>|--demo \"<SQL>\" "
      "[--estimator=auto|bucket|mc|naive|freq] [--bootstrap[=N]] "
      "[--fusion=average|first|last|majority]\n"
      "       uuq_cli --serve <observations.csv>|--demo [--workers=N] "
      "[--queue=N] [--deadline-ms=N]\n");
}

uuq::Result<std::vector<uuq::Observation>> LoadStream(
    const std::string& input) {
  using namespace uuq;
  if (input == "--demo") {
    const Scenario scenario = scenarios::UsTechEmployment();
    std::printf("demo stream: %zu crowd answers about US tech companies "
                "(hidden ground-truth SUM = %.0f)\n\n",
                scenario.stream.size(), scenario.ground_truth_sum);
    return scenario.stream;
  }
  std::ifstream file(input);
  if (!file) return Status::NotFound("cannot open '" + input + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ReadObservationsCsv(buffer.str());
}

// One attempt to strip a leading `key=<double>` token off *line.
enum class TokenParse {
  kNoMatch,  ///< line does not start with `key=`; nothing consumed
  kBad,      ///< starts with `key=` but the number fails to parse
  kOk,       ///< token consumed (with any following spaces), *value set
};

TokenParse TakeDoubleToken(std::string* line, const char* key,
                           double* value) {
  const std::string prefix = std::string(key) + "=";
  if (line->rfind(prefix, 0) != 0) return TokenParse::kNoMatch;
  const size_t end = line->find(' ', prefix.size());
  const size_t value_end = end == std::string::npos ? line->size() : end;
  const std::string text =
      line->substr(prefix.size(), value_end - prefix.size());
  try {
    size_t parsed = 0;
    *value = std::stod(text, &parsed);
    // Trailing garbage ("epsilon=250x") is as malformed as no number.
    if (parsed != text.size()) return TokenParse::kBad;
  } catch (...) {
    return TokenParse::kBad;
  }
  const size_t rest = line->find_first_not_of(' ', value_end);
  // A token at end-of-line leaves the line EMPTY (not erased-to-npos
  // garbage); the caller rejects target-only lines with no SQL.
  line->erase(0, rest == std::string::npos ? line->size() : rest);
  return TokenParse::kOk;
}

// --serve: one SQL query per stdin line through the QueryService.
int RunServeMode(int argc, char** argv) {
  using namespace uuq;
  if (argc < 3) {
    PrintUsage();
    return 1;
  }
  ServingOptions options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      options.workers = std::atoi(arg.c_str() + 10);
      if (options.workers <= 0) return Fail("bad --workers count");
    } else if (arg.rfind("--queue=", 0) == 0) {
      options.max_queue = std::atoi(arg.c_str() + 8);
      if (options.max_queue <= 0) return Fail("bad --queue size");
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      const int ms = std::atoi(arg.c_str() + 14);
      if (ms <= 0) return Fail("bad --deadline-ms value");
      options.default_deadline = std::chrono::milliseconds(ms);
    } else {
      PrintUsage();
      return Fail("unknown --serve option '" + arg + "'");
    }
  }

  auto stream = LoadStream(argv[2]);
  if (!stream.ok()) return Fail(stream.status().ToString());
  auto sample = std::make_shared<IntegratedSample>();
  for (const Observation& obs : stream.value()) sample->Add(obs);
  std::printf("serving %lld observations -> %lld entities as sample "
              "'main' (%d workers, queue %d, default deadline %lld ms)\n",
              static_cast<long long>(sample->n()),
              static_cast<long long>(sample->c()), options.workers,
              options.max_queue,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      options.default_deadline)
                      .count()));

  // Env defaults for lines without explicit epsilon=/confidence= tokens
  // (0 = no target: the fixed full_replicates budget).
  double default_epsilon = 0.0;
  double default_confidence = 0.0;
  if (const char* env = std::getenv("UUQ_SERVE_EPSILON")) {
    default_epsilon = std::atof(env);
  }
  if (const char* env = std::getenv("UUQ_SERVE_CONFIDENCE")) {
    default_confidence = std::atof(env);
  }

  QueryService service(options);
  service.RegisterSample("main", sample);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    double epsilon = default_epsilon;
    double confidence = default_confidence;
    // Request-level precision target: leading `epsilon=` / `confidence=`
    // tokens (either order) ahead of the SQL. A token that matches but
    // does not parse poisons the LINE — executing the remainder as SQL
    // would silently drop the caller's precision intent.
    bool malformed_target = false;
    for (bool consumed = true; consumed && !malformed_target;) {
      consumed = false;
      for (const auto& token :
           {std::pair<const char*, double*>{"epsilon", &epsilon},
            std::pair<const char*, double*>{"confidence", &confidence}}) {
        const TokenParse parse =
            TakeDoubleToken(&line, token.first, token.second);
        if (parse == TokenParse::kBad) malformed_target = true;
        if (parse == TokenParse::kOk) consumed = true;
      }
    }
    if (malformed_target || line.empty()) {
      std::printf("bad query line (%s); expected: [epsilon=<number>] "
                  "[confidence=<number>] <SQL>\n",
                  malformed_target ? "unparseable precision target"
                                   : "precision target without SQL");
      continue;
    }
    const ServedResult result =
        service.Execute("main", line, std::chrono::nanoseconds(0),
                        /*want_interval=*/true, epsilon, confidence);
    if (!result.status.ok()) {
      std::printf("[query %llu] %s\n",
                  static_cast<unsigned long long>(result.query_id),
                  result.status.ToString().c_str());
      continue;
    }
    std::string degraded_note;
    if (result.degraded != DegradeLevel::kNone) {
      degraded_note =
          std::string("DEGRADED to ") + DegradeLevelName(result.degraded) +
          "\n";
    }
    if (result.precision_degraded) {
      degraded_note += "PRECISION TARGET MISSED (replicate cap/deadline)\n";
    }
    // The budget note reports what actually ran: a targeted query whose
    // interval ran says how many replicates the stop rule settled on and
    // whether the target was met (at the reduced rung too, where the cap
    // is smaller); one left without an interval (point-only rung, or an
    // interval abandoned mid-run) says the target was ignored.
    std::string budget_note;
    if (epsilon > 0.0) {
      const AdaptiveBudgetReport& report = result.answer.bootstrap.adaptive;
      budget_note =
          result.answer.bootstrap_valid
              ? ", adaptive budget used " +
                    std::to_string(result.replicates_used) +
                    " replicates, target " +
                    (report.target_met ? "met" : "missed")
              : ", precision target ignored (no interval ran)";
    }
    std::printf("[query %llu] %s%s  (queue %.1f ms, run %.1f ms%s)\n",
                static_cast<unsigned long long>(result.query_id),
                degraded_note.c_str(), result.answer.ToString().c_str(),
                result.queue_ms, result.run_ms, budget_note.c_str());
  }
  service.Shutdown();
  const QueryService::Stats stats = service.stats();
  std::printf("served: %lld admitted, %lld completed, %lld degraded, "
              "%lld failed, %lld shed\n",
              static_cast<long long>(stats.admitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.degraded),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.shed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uuq;
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0) {
    return RunServeMode(argc, argv);
  }
  if (argc < 3) {
    PrintUsage();
    return 1;
  }
  const std::string input = argv[1];
  const std::string sql = argv[2];

  CorrectionEstimator estimator = CorrectionEstimator::kAuto;
  FusionPolicy fusion = FusionPolicy::kAverage;
  int bootstrap_replicates = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--estimator=", 0) == 0) {
      const std::string which = arg.substr(12);
      if (which == "auto") estimator = CorrectionEstimator::kAuto;
      else if (which == "bucket") estimator = CorrectionEstimator::kBucket;
      else if (which == "mc") estimator = CorrectionEstimator::kMonteCarlo;
      else if (which == "naive") estimator = CorrectionEstimator::kNaive;
      else if (which == "freq") estimator = CorrectionEstimator::kFreq;
      else return Fail("unknown estimator '" + which + "'");
    } else if (arg == "--bootstrap") {
      bootstrap_replicates = 200;
    } else if (arg.rfind("--bootstrap=", 0) == 0) {
      bootstrap_replicates = std::atoi(arg.c_str() + 12);
      if (bootstrap_replicates <= 0) return Fail("bad --bootstrap count");
    } else if (arg.rfind("--fusion=", 0) == 0) {
      const std::string which = arg.substr(9);
      if (which == "average") fusion = FusionPolicy::kAverage;
      else if (which == "first") fusion = FusionPolicy::kFirst;
      else if (which == "last") fusion = FusionPolicy::kLast;
      else if (which == "majority") fusion = FusionPolicy::kMajority;
      else return Fail("unknown fusion policy '" + which + "'");
    } else {
      PrintUsage();
      return Fail("unknown option '" + arg + "'");
    }
  }

  // Load the observation stream.
  auto loaded = LoadStream(input);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::vector<Observation> stream = std::move(loaded).value();

  IntegratedSample sample(fusion);
  for (const Observation& obs : stream) sample.Add(obs);
  std::printf("integrated %lld observations -> %lld distinct entities from "
              "%lld sources\n\n",
              static_cast<long long>(sample.n()),
              static_cast<long long>(sample.c()),
              static_cast<long long>(sample.num_sources()));

  QueryCorrector::Options options;
  options.estimator = estimator;
  options.attach_bootstrap = bootstrap_replicates > 0;
  if (options.attach_bootstrap) {
    options.bootstrap.replicates = bootstrap_replicates;
  }
  const QueryCorrector corrector(options);

  // Grouped or plain?
  auto parsed_query = ParseQuery(sql);
  if (!parsed_query.ok()) return Fail(parsed_query.status().ToString());
  const AggregateQuery& query = parsed_query.value();
  if (!query.group_by.empty()) {
    auto grouped = corrector.CorrectGroupedSql(sample, sql);
    if (!grouped.ok()) return Fail(grouped.status().ToString());
    std::printf("%s", grouped.value().ToString().c_str());
    return 0;
  }

  auto answer = corrector.CorrectSql(sample, sql);
  if (!answer.ok()) return Fail(answer.status().ToString());
  std::printf("%s", answer.value().ToString().c_str());
  if (answer.value().bootstrap_valid) {
    std::printf("  (a variability report: source-resampled intervals skew "
                "low by construction, see core/bootstrap.h)\n");
  }

  // The jackknife reruns the bucket estimator on the whole sample, so it
  // only describes a predicate-free SUM.
  if (bootstrap_replicates > 0 && query.aggregate == AggregateKind::kSum &&
      query.predicate->ToString() == "TRUE") {
    const BucketSumEstimator bucket;
    const JackknifeInterval jk = JackknifeCorrectedSum(sample, bucket);
    std::printf("  95%% jackknife interval (bucket, delete-one-source): "
                "[%.2f, %.2f]  (se %.2f)\n",
                jk.lo, jk.hi, jk.standard_error);
  }
  return 0;
}
