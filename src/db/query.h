// Aggregate query representation.
//
// Queries have the paper's shape: SELECT AGG(attr) FROM table [WHERE pred]
// [GROUP BY col]. QueryCorrector answers them over the integrated sample
// (core/query_correction.h); there is no row-store executor.
#ifndef UUQ_DB_QUERY_H_
#define UUQ_DB_QUERY_H_

#include <string>

#include "db/aggregate.h"
#include "db/predicate.h"

namespace uuq {

/// A parsed/constructed aggregate query.
struct AggregateQuery {
  AggregateKind aggregate = AggregateKind::kSum;
  std::string attribute;     // "*" only valid for COUNT
  std::string table_name;
  PredicatePtr predicate;    // never null; MakeTrue() when absent
  std::string group_by;      // empty = ungrouped

  std::string ToString() const;
};

}  // namespace uuq

#endif  // UUQ_DB_QUERY_H_
