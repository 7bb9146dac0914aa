#include "exec/compiled_executor.h"

#include "common/macros.h"
#include "exec/interpreter.h"

namespace mb2 {

CompiledExpression::CompiledExpression(const Expression &expr) {
  Flatten(expr);
  stack_.reserve(program_.size());
}

bool CompiledExpression::EvaluateBool(const Tuple &row) const {
  const Value v = Evaluate(row);
  return v.type() == TypeId::kDouble ? v.AsDouble() != 0.0 : v.AsInt() != 0;
}

void CompiledExpression::Flatten(const Expression &expr) {
  for (const auto &child : expr.children) Flatten(*child);
  Op op;
  op.kind = expr.type;
  op.idx = expr.col_idx;
  switch (expr.type) {
    case ExprType::kColumnRef:
      break;
    case ExprType::kConstant:
      op.constant = expr.constant;
      break;
    case ExprType::kArithmetic:
      op.sub = static_cast<uint8_t>(expr.arith_op);
      break;
    case ExprType::kComparison:
      op.sub = static_cast<uint8_t>(expr.cmp_op);
      break;
    case ExprType::kLogic:
      op.sub = static_cast<uint8_t>(expr.logic_op);
      break;
  }
  program_.push_back(std::move(op));
}

Value CompiledExpression::Evaluate(const Tuple &row) const {
  stack_.clear();
  for (const Op &op : program_) {
    switch (op.kind) {
      case ExprType::kColumnRef:
        stack_.push_back(row[op.idx]);
        break;
      case ExprType::kConstant:
        stack_.push_back(op.constant);
        break;
      case ExprType::kArithmetic: {
        const Value rhs = std::move(stack_.back());
        stack_.pop_back();
        Value &lhs = stack_.back();
        const auto aop = static_cast<ArithOp>(op.sub);
        if (lhs.type() == TypeId::kInteger && rhs.type() == TypeId::kInteger) {
          const int64_t a = lhs.AsInt(), b = rhs.AsInt();
          int64_t r = 0;
          switch (aop) {
            case ArithOp::kAdd: r = a + b; break;
            case ArithOp::kSub: r = a - b; break;
            case ArithOp::kMul: r = a * b; break;
            case ArithOp::kDiv: r = b == 0 ? 0 : a / b; break;
          }
          lhs = Value::Integer(r);
        } else {
          const double a = lhs.AsDouble(), b = rhs.AsDouble();
          double r = 0.0;
          switch (aop) {
            case ArithOp::kAdd: r = a + b; break;
            case ArithOp::kSub: r = a - b; break;
            case ArithOp::kMul: r = a * b; break;
            case ArithOp::kDiv: r = b == 0.0 ? 0.0 : a / b; break;
          }
          lhs = Value::Double(r);
        }
        break;
      }
      case ExprType::kComparison: {
        const Value rhs = std::move(stack_.back());
        stack_.pop_back();
        Value &lhs = stack_.back();
        const int c = lhs.Compare(rhs);
        bool result = false;
        switch (static_cast<CmpOp>(op.sub)) {
          case CmpOp::kEq: result = c == 0; break;
          case CmpOp::kNe: result = c != 0; break;
          case CmpOp::kLt: result = c < 0; break;
          case CmpOp::kLe: result = c <= 0; break;
          case CmpOp::kGt: result = c > 0; break;
          case CmpOp::kGe: result = c >= 0; break;
        }
        lhs = Value::Integer(result ? 1 : 0);
        break;
      }
      case ExprType::kLogic: {
        const auto truthy = [](const Value &v) {
          return v.type() == TypeId::kDouble ? v.AsDouble() != 0.0
                                             : v.AsInt() != 0;
        };
        const auto lop = static_cast<LogicOp>(op.sub);
        if (lop == LogicOp::kNot) {
          Value &v = stack_.back();
          v = Value::Integer(truthy(v) ? 0 : 1);
        } else {
          const Value rhs = std::move(stack_.back());
          stack_.pop_back();
          Value &lhs = stack_.back();
          const bool a = truthy(lhs), b = truthy(rhs);
          lhs = Value::Integer((lop == LogicOp::kAnd ? (a && b) : (a || b)) ? 1 : 0);
        }
        break;
      }
    }
  }
  MB2_ASSERT(stack_.size() == 1, "unbalanced expression program");
  return stack_.back();
}

namespace {

class InterpretedAccessor final : public TupleAccessor {
 public:
  Value Get(const Tuple &row, uint32_t col) const override { return row[col]; }
};

}  // namespace

const TupleAccessor *GetInterpretedAccessor() {
  static const InterpretedAccessor instance;
  return &instance;
}

}  // namespace mb2
