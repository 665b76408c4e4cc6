#include "db/value.h"

#include <cmath>

#include "common/macros.h"
#include "common/strings.h"

namespace uuq {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kBool;
    case 2:
      return ValueType::kInt64;
    case 3:
      return ValueType::kDouble;
    case 4:
      return ValueType::kString;
  }
  return ValueType::kNull;
}

bool Value::AsBool() const {
  UUQ_CHECK_MSG(type() == ValueType::kBool, "Value is not BOOL");
  return std::get<bool>(data_);
}

int64_t Value::AsInt64() const {
  UUQ_CHECK_MSG(type() == ValueType::kInt64, "Value is not INT64");
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  UUQ_CHECK_MSG(type() == ValueType::kDouble, "Value is not DOUBLE");
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  UUQ_CHECK_MSG(type() == ValueType::kString, "Value is not STRING");
  return std::get<std::string>(data_);
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(std::get<int64_t>(data_));
    case ValueType::kDouble:
      return std::get<double>(data_);
    default:
      return Status::InvalidArgument(std::string("cannot coerce ") +
                                     ValueTypeName(type()) + " to DOUBLE");
  }
}

namespace {

// Cross-type rank: NULL < BOOL < numeric < STRING.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const int rank_a = TypeRank(type());
  const int rank_b = TypeRank(other.type());
  if (rank_a != rank_b) return rank_a < rank_b ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      const bool a = AsBool(), b = other.AsBool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInt64:
    case ValueType::kDouble:
      return CompareDoubles(ToDouble().value(), other.ToDouble().value());
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return FormatDouble(AsDouble());
    case ValueType::kString:
      return AsString();
  }
  return "NULL";
}

}  // namespace uuq
