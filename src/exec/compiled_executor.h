#pragma once

/// \file compiled_executor.h
/// The compiled execution mode's scalar expression program: a flattened
/// postfix form of the recursive interpreter. Compiled mode evaluates
/// expressions over typed column lanes (exec/vector_ops.h); this program
/// answers, row at a time, the blocks those lanes cannot hold (varchar
/// operands), with results identical to Expression::Evaluate. Note the
/// postfix form cannot short-circuit AND/OR; both sides always evaluate.

#include <vector>

#include "common/value.h"
#include "plan/expression.h"

namespace mb2 {

class CompiledExpression {
 public:
  explicit CompiledExpression(const Expression &expr);

  Value Evaluate(const Tuple &row) const;
  bool EvaluateBool(const Tuple &row) const;

 private:
  struct Op {
    ExprType kind = ExprType::kConstant;
    uint8_t sub = 0;   // ArithOp / CmpOp / LogicOp
    uint32_t idx = 0;  // column index
    Value constant;
  };

  void Flatten(const Expression &expr);

  std::vector<Op> program_;
  mutable std::vector<Value> stack_;
};

}  // namespace mb2
