#include "db/predicate.h"

#include <algorithm>

#include "common/macros.h"

namespace uuq {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool BoundPredicate::operator()(const Row& row) const {
  return root_->EvalAt(row, columns_.data()) == Truth::kTrue;
}

bool BoundPredicate::Reads(size_t column) const {
  return std::find(columns_.begin(), columns_.end(), column) !=
         columns_.end();
}

Result<BoundPredicate> Predicate::Bind(const Schema& schema) const {
  std::vector<size_t> columns;
  Status resolved = ResolveColumns(schema, &columns);
  if (!resolved.ok()) return resolved;
  return BoundPredicate(this, std::move(columns));
}

Result<bool> Predicate::Eval(const Row& row, const Schema& schema) const {
  auto bound = Bind(schema);
  if (!bound.ok()) return bound.status();
  return bound.value()(row);
}

namespace {

class ComparisonPredicate final : public Predicate {
 public:
  ComparisonPredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  Status ResolveColumns(const Schema& schema,
                        std::vector<size_t>* columns) const override {
    auto idx = schema.IndexOf(column_);
    if (!idx.ok()) return idx.status();
    // Value::Compare orders different types by type rank, so a literal of
    // another kind than its column would keep all rows or none.
    const ValueType column_type = schema.field(idx.value()).type;
    if (!Comparable(column_type, literal_.type())) {
      return Status::InvalidArgument(
          "cannot compare column '" + column_ + "' of type " +
          ValueTypeName(column_type) + " with " +
          ValueTypeName(literal_.type()) + " literal " + LiteralText());
    }
    columns->push_back(idx.value());
    return Status::OK();
  }

  size_t num_comparisons() const override { return 1; }

  Truth EvalAt(const Row& row, const size_t* columns) const override {
    const Value& cell = row[columns[0]];
    if (cell.is_null() || literal_.is_null()) return Truth::kUnknown;
    return Compare(cell.Compare(literal_)) ? Truth::kTrue : Truth::kFalse;
  }

  std::string ToString() const override {
    return "(" + column_ + " " + CompareOpSymbol(op_) + " " + LiteralText() +
           ")";
  }

 private:
  // NULL (a literal or an untyped column) compares with anything, int64
  // with double, and every other type only with itself.
  static bool Comparable(ValueType column, ValueType literal) {
    const auto numeric = [](ValueType t) {
      return t == ValueType::kInt64 || t == ValueType::kDouble;
    };
    return column == ValueType::kNull || literal == ValueType::kNull ||
           column == literal || (numeric(column) && numeric(literal));
  }

  bool Compare(int cmp) const {
    switch (op_) {
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  std::string LiteralText() const {
    return literal_.type() == ValueType::kString
               ? "'" + literal_.ToString() + "'"
               : literal_.ToString();
  }

  std::string column_;
  CompareOp op_;
  Value literal_;
};

class BinaryLogicalPredicate final : public Predicate {
 public:
  BinaryLogicalPredicate(bool is_and, PredicatePtr lhs, PredicatePtr rhs)
      : is_and_(is_and), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
    UUQ_CHECK(lhs_ != nullptr && rhs_ != nullptr);
    lhs_comparisons_ = lhs_->num_comparisons();
  }

  Status ResolveColumns(const Schema& schema,
                        std::vector<size_t>* columns) const override {
    Status s = lhs_->ResolveColumns(schema, columns);
    if (!s.ok()) return s;
    return rhs_->ResolveColumns(schema, columns);
  }

  size_t num_comparisons() const override {
    return lhs_comparisons_ + rhs_->num_comparisons();
  }

  Truth EvalAt(const Row& row, const size_t* columns) const override {
    const Truth lhs = lhs_->EvalAt(row, columns);
    // Short circuit: FALSE decides an AND, TRUE an OR.
    if (lhs == (is_and_ ? Truth::kFalse : Truth::kTrue)) return lhs;
    const Truth rhs = rhs_->EvalAt(row, columns + lhs_comparisons_);
    return is_and_ ? std::min(lhs, rhs) : std::max(lhs, rhs);
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + (is_and_ ? " AND " : " OR ") +
           rhs_->ToString() + ")";
  }

 private:
  bool is_and_;
  PredicatePtr lhs_;
  PredicatePtr rhs_;
  size_t lhs_comparisons_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {
    UUQ_CHECK(inner_ != nullptr);
  }

  Status ResolveColumns(const Schema& schema,
                        std::vector<size_t>* columns) const override {
    return inner_->ResolveColumns(schema, columns);
  }

  size_t num_comparisons() const override {
    return inner_->num_comparisons();
  }

  Truth EvalAt(const Row& row, const size_t* columns) const override {
    return static_cast<Truth>(static_cast<int8_t>(Truth::kTrue) -
                              static_cast<int8_t>(inner_->EvalAt(row, columns)));
  }

  std::string ToString() const override {
    return "(NOT " + inner_->ToString() + ")";
  }

 private:
  PredicatePtr inner_;
};

class TruePredicate final : public Predicate {
 public:
  Status ResolveColumns(const Schema& schema,
                        std::vector<size_t>* columns) const override {
    UUQ_UNUSED(schema);
    UUQ_UNUSED(columns);
    return Status::OK();
  }
  size_t num_comparisons() const override { return 0; }
  Truth EvalAt(const Row& row, const size_t* columns) const override {
    UUQ_UNUSED(row);
    UUQ_UNUSED(columns);
    return Truth::kTrue;
  }
  std::string ToString() const override { return "TRUE"; }
};

}  // namespace

PredicatePtr MakeComparison(std::string column, CompareOp op, Value literal) {
  return std::make_shared<ComparisonPredicate>(std::move(column), op,
                                               std::move(literal));
}

PredicatePtr MakeAnd(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<BinaryLogicalPredicate>(true, std::move(lhs),
                                                  std::move(rhs));
}

PredicatePtr MakeOr(PredicatePtr lhs, PredicatePtr rhs) {
  return std::make_shared<BinaryLogicalPredicate>(false, std::move(lhs),
                                                  std::move(rhs));
}

PredicatePtr MakeNot(PredicatePtr inner) {
  return std::make_shared<NotPredicate>(std::move(inner));
}

PredicatePtr MakeTrue() { return std::make_shared<TruePredicate>(); }

}  // namespace uuq
