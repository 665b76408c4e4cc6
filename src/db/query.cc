#include "db/query.h"

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <utility>

#include "common/macros.h"

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

double QueryResult::AsDoubleOrNan() const {
  auto d = value.ToDouble();
  return d.ok() ? d.value() : std::numeric_limits<double>::quiet_NaN();
}

Result<QueryResult> ExecuteAggregateQuery(const AggregateQuery& query,
                                          const Table& table) {
  if (!query.group_by.empty()) {
    return Status::InvalidArgument(
        "query has GROUP BY; use ExecuteGroupedAggregateQuery");
  }
  const Schema& schema = table.schema();
  const bool count_star =
      query.aggregate == AggregateKind::kCount && query.attribute == "*";

  size_t attr_index = 0;
  if (!count_star) {
    auto idx = schema.IndexOf(query.attribute);
    if (!idx.ok()) return idx.status();
    attr_index = idx.value();
  }
  PredicatePtr predicate =
      query.predicate != nullptr ? query.predicate : MakeTrue();
  auto bound = predicate->Bind(schema);
  if (!bound.ok()) return bound.status();
  const BoundPredicate& matches = bound.value();

  Aggregator agg(query.aggregate);
  QueryResult result;
  for (const Row& row : table.rows()) {
    if (!matches(row)) continue;
    ++result.rows_matched;
    if (count_star) {
      Status s = agg.Update(Value(int64_t{1}));
      if (!s.ok()) return s;
      continue;
    }
    const Value& cell = row[attr_index];
    Status s = agg.Update(cell);
    if (!s.ok()) return s;
    if (!cell.is_null()) {
      auto d = cell.ToDouble();
      if (d.ok()) result.matched_values.push_back(d.value());
    }
  }
  result.value = agg.Current();
  return result;
}

Result<GroupedQueryResult> ExecuteGroupedAggregateQuery(
    const AggregateQuery& query, const Table& table) {
  if (query.group_by.empty()) {
    return Status::InvalidArgument("query has no GROUP BY column");
  }
  const Schema& schema = table.schema();
  auto group_idx = schema.IndexOf(query.group_by);
  if (!group_idx.ok()) return group_idx.status();

  const bool count_star =
      query.aggregate == AggregateKind::kCount && query.attribute == "*";
  size_t attr_index = 0;
  if (!count_star) {
    auto idx = schema.IndexOf(query.attribute);
    if (!idx.ok()) return idx.status();
    attr_index = idx.value();
  }
  PredicatePtr predicate =
      query.predicate != nullptr ? query.predicate : MakeTrue();
  auto bound = predicate->Bind(schema);
  if (!bound.ok()) return bound.status();
  const BoundPredicate& matches = bound.value();

  // Group state keyed by the grouping value (Value has a total order).
  std::map<Value, std::pair<Aggregator, QueryResult>,
           std::function<bool(const Value&, const Value&)>>
      groups([](const Value& a, const Value& b) { return a < b; });

  for (const Row& row : table.rows()) {
    if (!matches(row)) continue;
    const Value& key = row[group_idx.value()];
    auto [it, inserted] = groups.try_emplace(
        key, std::make_pair(Aggregator(query.aggregate), QueryResult{}));
    Aggregator& agg = it->second.first;
    QueryResult& partial = it->second.second;
    ++partial.rows_matched;
    if (count_star) {
      if (Status s = agg.Update(Value(int64_t{1})); !s.ok()) return s;
      continue;
    }
    const Value& cell = row[attr_index];
    if (Status s = agg.Update(cell); !s.ok()) return s;
    if (!cell.is_null()) {
      auto d = cell.ToDouble();
      if (d.ok()) partial.matched_values.push_back(d.value());
    }
  }

  GroupedQueryResult out;
  out.groups.reserve(groups.size());
  for (auto& [key, state] : groups) {
    state.second.value = state.first.Current();
    out.groups.emplace_back(key, std::move(state.second));
  }
  return out;
}

}  // namespace uuq
