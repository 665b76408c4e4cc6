// Dynamically typed cell value for the mini database substrate.
//
// The integrated database K (paper §2.2) is an ordinary relational view; the
// estimators only need numeric attributes, but sources carry entity names and
// lineage strings, so Value supports null / bool / int64 / double / string
// with total ordering and hashing (needed for grouping and MIN/MAX).
#ifndef UUQ_DB_VALUE_H_
#define UUQ_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace uuq {

/// The supported column types.
enum class ValueType { kNull = 0, kBool, kInt64, kDouble, kString };

const char* ValueTypeName(ValueType type);

/// A single cell. Small, copyable, totally ordered (nulls sort first, then
/// bools, numerics — int64 and double compare numerically — then strings).
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(bool v) : data_(v) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  /// Typed accessors; abort on type mismatch (use type() first).
  bool AsBool() const;
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric coercion: int64 and double become double; everything else is an
  /// error. This is what aggregates call.
  Result<double> ToDouble() const;

  /// Total ordering across types; SQL-style except that nulls are ordered
  /// (first) instead of propagating.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Display form ("NULL", "true", "3", "3.5", "abc").
  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// A row is a vector of cells matching a schema positionally.
using Row = std::vector<Value>;

}  // namespace uuq

#endif  // UUQ_DB_VALUE_H_
