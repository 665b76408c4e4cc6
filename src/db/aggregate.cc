#include "db/aggregate.h"

#include "common/strings.h"

namespace uuq {

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
  }
  return "?";
}

Result<AggregateKind> ParseAggregateKind(const std::string& name) {
  if (EqualsIgnoreCase(name, "sum")) return AggregateKind::kSum;
  if (EqualsIgnoreCase(name, "count")) return AggregateKind::kCount;
  if (EqualsIgnoreCase(name, "avg")) return AggregateKind::kAvg;
  if (EqualsIgnoreCase(name, "min")) return AggregateKind::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggregateKind::kMax;
  return Status::InvalidArgument("unknown aggregate function '" + name + "'");
}

}  // namespace uuq
