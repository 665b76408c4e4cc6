// Point-position views of a SortedEntityIndex, kept as test references.
//
// Production reads an index in run space only: a bucket is a range of
// prefix rows and its stats are one SliceRows. The references below state
// the same slices and split points by point position, the way the paper's
// Algorithm 1 walks the sorted entities, so the suites can check the run
// space against them.
#ifndef UUQ_TESTS_INDEX_ORACLE_H_
#define UUQ_TESTS_INDEX_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/macros.h"
#include "core/bucket.h"

namespace uuq {
namespace oracle {

/// The prefix row that starts at point position `position`, which must be
/// a run boundary (0, size(), or a position whose value differs from its
/// predecessor's).
inline size_t RowAt(const SortedEntityIndex& index, size_t position) {
  const std::vector<size_t>& rows = index.row_positions();
  const auto it = std::lower_bound(rows.begin(), rows.end(), position);
  UUQ_CHECK_MSG(it != rows.end() && *it == position,
                "slice bound inside a run of equal values");
  return static_cast<size_t>(it - rows.begin());
}

/// Stats of the points [begin, end); both ends must be run boundaries.
inline SampleStats SlicePoints(const SortedEntityIndex& index, size_t begin,
                               size_t end) {
  return index.SliceRows(RowAt(index, begin), RowAt(index, end));
}

/// One past the last point sharing entities()[i].value: the smallest legal
/// split point strictly after position i.
inline size_t UpperBoundOfValueAt(const SortedEntityIndex& index, size_t i) {
  const std::vector<EntityPoint>& points = index.entities();
  UUQ_CHECK(i < points.size());
  size_t j = i + 1;
  while (j < points.size() && points[j].value == points[i].value) ++j;
  return j;
}

/// Row bounds of PartitionInto as point positions (what Partition returns).
inline std::vector<size_t> PointBounds(const SortedEntityIndex& index,
                                       std::vector<size_t> rows) {
  if (index.size() == 0) return rows;
  for (size_t& row : rows) row = index.row_positions()[row];
  return rows;
}

}  // namespace oracle
}  // namespace uuq

#endif  // UUQ_TESTS_INDEX_ORACLE_H_
