#pragma once

/// \file expression.h
/// Scalar expression trees (column refs, constants, arithmetic, comparisons,
/// boolean logic) used by filter predicates, projections, and update set
/// clauses. Two evaluation strategies exist: the recursive interpreter here
/// (execution_mode = interpret) and the block-at-a-time typed lanes of
/// exec/vector_ops.h (execution_mode = compiled).

#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/value.h"

namespace mb2 {

enum class ExprType : uint8_t { kColumnRef, kConstant, kArithmetic, kComparison, kLogic };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp : uint8_t { kAnd, kOr, kNot };

class Expression;
using ExprPtr = std::unique_ptr<Expression>;

class Expression {
 public:
  ExprType type;
  // kColumnRef
  uint32_t col_idx = 0;
  // kConstant
  Value constant;
  // op kinds
  ArithOp arith_op = ArithOp::kAdd;
  CmpOp cmp_op = CmpOp::kEq;
  LogicOp logic_op = LogicOp::kAnd;
  std::vector<ExprPtr> children;
  /// For kConstant built from a SQL literal: the literal's ordinal in the
  /// statement (see Token::literal_ordinal), -1 otherwise. The plan cache
  /// substitutes fresh literal values into cloned plan templates by ordinal.
  int32_t param_idx = -1;

  explicit Expression(ExprType t) : type(t) {}

  /// Recursive interpreter (per-tuple virtual-free but call-heavy path).
  Value Evaluate(const Tuple &row) const;

  /// Truthiness of the result (non-zero numeric). Predicates are normally
  /// comparisons/logic, but arbitrary numeric expressions also work.
  bool EvaluateBool(const Tuple &row) const {
    const Value v = Evaluate(row);
    return v.type() == TypeId::kDouble ? v.AsDouble() != 0.0 : v.AsInt() != 0;
  }

  /// Number of operator applications — the ARITHMETIC OU's op_complexity
  /// feature.
  uint32_t Complexity() const;

  ExprPtr Clone() const;
};

// Builder helpers ------------------------------------------------------------
ExprPtr ColRef(uint32_t idx);
ExprPtr Const(Value v);
ExprPtr ConstInt(int64_t v);
ExprPtr ConstDouble(double v);
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Cmp(CmpOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr child);

}  // namespace mb2
