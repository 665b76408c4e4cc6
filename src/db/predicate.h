// Predicate expression trees for the WHERE clause of aggregate queries.
//
// Grammar (built by the SQL parser or programmatically):
//   expr    := or
//   or      := and (OR and)*
//   and     := unary (AND unary)*
//   unary   := NOT unary | comparison | '(' expr ')'
//   compare := column op literal         op ∈ {=, !=, <>, <, <=, >, >=}
// Evaluation follows SQL's three-valued logic: a comparison with a NULL cell
// or literal is UNKNOWN, NOT leaves UNKNOWN unknown, AND/OR take the
// minimum/maximum under FALSE < UNKNOWN < TRUE, and a row is kept only when
// the whole predicate is TRUE. So `NOT (c = 'x')` drops NULL rows exactly as
// `c != 'x'` does, and `c = 'x' OR NOT (c = 'x')` keeps only non-NULL rows.
#ifndef UUQ_DB_PREDICATE_H_
#define UUQ_DB_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/schema.h"
#include "db/value.h"

namespace uuq {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// A three-valued truth value, ordered so that AND is min, OR is max and
/// NOT is kTrue − x.
enum class Truth : int8_t { kFalse = 0, kUnknown = 1, kTrue = 2 };

const char* CompareOpSymbol(CompareOp op);

class Predicate;

/// A predicate whose column references were resolved against one schema
/// (Predicate::Bind): evaluation reads cells by position, with no name
/// lookup, no error path and no allocation. Bind once per query, evaluate
/// once per row. Borrows the predicate it was bound from, which must
/// outlive it.
class BoundPredicate {
 public:
  /// True when the predicate is TRUE for `row` (FALSE and UNKNOWN drop it).
  bool operator()(const Row& row) const;

  /// True when evaluation may read the cell at schema position `column`;
  /// callers filling a reused row need only refresh these cells.
  bool Reads(size_t column) const;

 private:
  friend class Predicate;
  BoundPredicate(const Predicate* root, std::vector<size_t> columns)
      : root_(root), columns_(std::move(columns)) {}

  const Predicate* root_;
  std::vector<size_t> columns_;  // one per comparison, left to right
};

/// Abstract predicate node.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Resolves every referenced column against `schema`; NotFound when one
  /// is missing.
  Result<BoundPredicate> Bind(const Schema& schema) const;

  /// Evaluates against a row of the given schema: Bind, then one call (true
  /// only when the predicate is TRUE). Row loops should Bind once instead.
  Result<bool> Eval(const Row& row, const Schema& schema) const;

  /// SQL-ish rendering, fully parenthesized.
  virtual std::string ToString() const = 0;

  // The node interface Bind and BoundPredicate are built on.

  /// Appends the schema position of every comparison's column in this
  /// subtree, left to right.
  virtual Status ResolveColumns(const Schema& schema,
                                std::vector<size_t>* columns) const = 0;
  /// Number of comparisons in this subtree: the positions it consumes.
  virtual size_t num_comparisons() const = 0;
  /// Evaluates with `columns` at this subtree's first resolved position.
  virtual Truth EvalAt(const Row& row, const size_t* columns) const = 0;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

/// column <op> literal.
PredicatePtr MakeComparison(std::string column, CompareOp op, Value literal);
/// lhs AND rhs.
PredicatePtr MakeAnd(PredicatePtr lhs, PredicatePtr rhs);
/// lhs OR rhs.
PredicatePtr MakeOr(PredicatePtr lhs, PredicatePtr rhs);
/// NOT inner.
PredicatePtr MakeNot(PredicatePtr inner);
/// Always true (the implicit predicate of a query with no WHERE clause).
PredicatePtr MakeTrue();

}  // namespace uuq

#endif  // UUQ_DB_PREDICATE_H_
