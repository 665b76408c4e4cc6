// The aggregate functions of the paper's query class: SUM, COUNT, AVG, MIN,
// MAX. The observed answer φK is computed by QueryCorrector from the
// sample's sufficient statistics (core/query_correction.h).
#ifndef UUQ_DB_AGGREGATE_H_
#define UUQ_DB_AGGREGATE_H_

#include <string>

#include "common/status.h"

namespace uuq {

enum class AggregateKind { kSum, kCount, kAvg, kMin, kMax };

const char* AggregateKindName(AggregateKind kind);

/// Parses "SUM", "count", "Avg"...; InvalidArgument otherwise.
Result<AggregateKind> ParseAggregateKind(const std::string& name);

}  // namespace uuq

#endif  // UUQ_DB_AGGREGATE_H_
