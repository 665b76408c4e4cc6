#include "db/query.h"

namespace uuq {

std::string AggregateQuery::ToString() const {
  std::string out = "SELECT ";
  out += AggregateKindName(aggregate);
  out += "(" + attribute + ") FROM " + table_name;
  if (predicate != nullptr) {
    const std::string pred = predicate->ToString();
    if (pred != "TRUE") out += " WHERE " + pred;
  }
  if (!group_by.empty()) out += " GROUP BY " + group_by;
  return out;
}

}  // namespace uuq
