#include "exec/vector_ops.h"

#include <algorithm>

namespace mb2 {

namespace {

/// The interpreter's three-way comparison over the double view, including
/// its NaN convention (neither < nor == makes NaN compare "greater") — see
/// Value::Compare.
inline int ThreeWay(double a, double b) {
  if (a < b) return -1;
  return a == b ? 0 : 1;
}

inline int ThreeWay(int64_t a, int64_t b) {
  if (a < b) return -1;
  return a == b ? 0 : 1;
}

inline bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

inline int64_t IntArith(ArithOp op, int64_t a, int64_t b) {
  switch (op) {
    case ArithOp::kAdd: return a + b;
    case ArithOp::kSub: return a - b;
    case ArithOp::kMul: return a * b;
    case ArithOp::kDiv: return b == 0 ? 0 : a / b;
  }
  return 0;
}

inline double DblArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd: return a + b;
    case ArithOp::kSub: return a - b;
    case ArithOp::kMul: return a * b;
    case ArithOp::kDiv: return b == 0.0 ? 0.0 : a / b;
  }
  return 0.0;
}

}  // namespace

VectorizedExpression::VectorizedExpression(const Expression &expr)
    : expr_(&expr) {
  // A binary tree has at most one more leaf than operators.
  nodes_.reserve(2 * expr.Complexity() + 1);
  Flatten(expr);
  lanes_.resize(nodes_.size());
}

int32_t VectorizedExpression::Flatten(const Expression &expr) {
  Node node;
  node.type = expr.type;
  node.arith_op = expr.arith_op;
  node.cmp_op = expr.cmp_op;
  node.logic_op = expr.logic_op;
  node.col_idx = expr.col_idx;
  if (expr.type == ExprType::kConstant) {
    switch (expr.constant.type()) {
      case TypeId::kInteger:
        node.const_is_int = true;
        node.const_int = expr.constant.AsInt();
        node.const_dbl = static_cast<double>(node.const_int);
        break;
      case TypeId::kDouble:
        node.const_dbl = expr.constant.AsDouble();
        break;
      case TypeId::kVarchar:
        supported_ = false;
        break;
    }
  }
  if (!expr.children.empty()) node.lhs = Flatten(*expr.children[0]);
  if (expr.children.size() > 1) node.rhs = Flatten(*expr.children[1]);
  nodes_.push_back(node);
  return static_cast<int32_t>(nodes_.size() - 1);
}

bool VectorizedExpression::EvaluateBlock(const std::vector<Tuple> &rows,
                                         size_t begin, size_t n) {
  return Evaluate(rows, nullptr, begin, n);
}

bool VectorizedExpression::EvaluateBlock(const Tuple *const *rows, size_t n) {
  static const std::vector<Tuple> kNoBatch;
  return Evaluate(kNoBatch, rows, 0, n);
}

bool VectorizedExpression::Evaluate(const std::vector<Tuple> &rows,
                                    const Tuple *const *row_ptrs, size_t begin,
                                    size_t n) {
  scalar_block_ = !supported_;
  if (!scalar_block_ && n > lane_capacity_) {
    // One allocation per lane type for the whole tree; node i owns the
    // i-th run of `n` lanes.
    lane_capacity_ = n;
    ints_.resize(nodes_.size() * n);
    dbls_.resize(nodes_.size() * n);
    is_int_.resize(nodes_.size() * n);
    for (size_t i = 0; i < nodes_.size(); i++) {
      lanes_[i].ints = ints_.data() + i * n;
      lanes_[i].dbls = dbls_.data() + i * n;
      lanes_[i].is_int = is_int_.data() + i * n;
    }
  }
  for (size_t i = 0; i < nodes_.size() && !scalar_block_; i++) {
    scalar_block_ = !EvalNode(nodes_[i], &lanes_[i], rows, row_ptrs, begin, n);
  }
  if (!scalar_block_) return true;
  scalar_vals_.clear();
  for (size_t l = 0; l < n; l++) {
    const Tuple &row = row_ptrs != nullptr ? *row_ptrs[l] : rows[begin + l];
    scalar_vals_.push_back(expr_->Evaluate(row));
  }
  return false;
}

bool VectorizedExpression::EvalNode(const Node &node, Lanes *out,
                                    const std::vector<Tuple> &rows,
                                    const Tuple *const *row_ptrs, size_t begin,
                                    size_t n) {
  switch (node.type) {
    case ExprType::kColumnRef: {
      bool all_int = true, has_int = false;
      for (size_t l = 0; l < n; l++) {
        const Value &v = row_ptrs != nullptr ? (*row_ptrs[l])[node.col_idx]
                                             : rows[begin + l][node.col_idx];
        if (v.type() == TypeId::kVarchar) return false;
        if (v.type() == TypeId::kInteger) {
          out->ints[l] = v.AsInt();
          out->dbls[l] = static_cast<double>(out->ints[l]);
          out->is_int[l] = 1;
          has_int = true;
        } else {
          out->dbls[l] = v.AsDouble();
          out->is_int[l] = 0;
          all_int = false;
        }
      }
      out->all_int = all_int && n > 0;
      out->has_int = has_int;
      return true;
    }
    case ExprType::kConstant: {
      std::fill_n(out->ints, n, node.const_int);
      std::fill_n(out->dbls, n, node.const_dbl);
      std::fill_n(out->is_int, n, node.const_is_int ? uint8_t{1} : uint8_t{0});
      out->all_int = node.const_is_int && n > 0;
      out->has_int = node.const_is_int;
      return true;
    }
    case ExprType::kArithmetic: {
      const Lanes &a = lanes_[node.lhs];
      const Lanes &b = lanes_[node.rhs];
      if (a.all_int && b.all_int) {
        for (size_t l = 0; l < n; l++) {
          const int64_t r = IntArith(node.arith_op, a.ints[l], b.ints[l]);
          out->ints[l] = r;
          out->dbls[l] = static_cast<double>(r);
        }
        std::fill_n(out->is_int, n, uint8_t{1});
        out->all_int = n > 0;
        out->has_int = n > 0;
      } else if (!a.has_int || !b.has_int) {
        // No lane pair can be int×int: pure double loop.
        for (size_t l = 0; l < n; l++) {
          out->dbls[l] = DblArith(node.arith_op, a.dbls[l], b.dbls[l]);
        }
        std::fill_n(out->is_int, n, uint8_t{0});
        out->all_int = false;
        out->has_int = false;
      } else {
        bool all_int = true, has_int = false;
        for (size_t l = 0; l < n; l++) {
          if (a.is_int[l] && b.is_int[l]) {
            out->ints[l] = IntArith(node.arith_op, a.ints[l], b.ints[l]);
            out->dbls[l] = static_cast<double>(out->ints[l]);
            out->is_int[l] = 1;
            has_int = true;
          } else {
            out->dbls[l] = DblArith(node.arith_op, a.dbls[l], b.dbls[l]);
            out->is_int[l] = 0;
            all_int = false;
          }
        }
        out->all_int = all_int && n > 0;
        out->has_int = has_int;
      }
      return true;
    }
    case ExprType::kComparison: {
      const Lanes &a = lanes_[node.lhs];
      const Lanes &b = lanes_[node.rhs];
      if (a.all_int && b.all_int) {
        for (size_t l = 0; l < n; l++) {
          out->ints[l] = ApplyCmp(node.cmp_op, ThreeWay(a.ints[l], b.ints[l]))
                             ? 1
                             : 0;
        }
      } else if (!a.has_int || !b.has_int) {
        for (size_t l = 0; l < n; l++) {
          out->ints[l] = ApplyCmp(node.cmp_op, ThreeWay(a.dbls[l], b.dbls[l]))
                             ? 1
                             : 0;
        }
      } else {
        for (size_t l = 0; l < n; l++) {
          const int c = a.is_int[l] && b.is_int[l]
                            ? ThreeWay(a.ints[l], b.ints[l])
                            : ThreeWay(a.dbls[l], b.dbls[l]);
          out->ints[l] = ApplyCmp(node.cmp_op, c) ? 1 : 0;
        }
      }
      for (size_t l = 0; l < n; l++) {
        out->dbls[l] = static_cast<double>(out->ints[l]);
      }
      std::fill_n(out->is_int, n, uint8_t{1});
      out->all_int = n > 0;
      out->has_int = n > 0;
      return true;
    }
    case ExprType::kLogic: {
      // Truthiness is `double view != 0`: exact for doubles by definition,
      // and a nonzero int64 never casts to 0.0, so it matches the int path
      // too. Logic has no side effects, so skipping the interpreter's
      // short-circuit cannot change results.
      const Lanes &a = lanes_[node.lhs];
      switch (node.logic_op) {
        case LogicOp::kAnd: {
          const Lanes &b = lanes_[node.rhs];
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = (a.dbls[l] != 0.0) & (b.dbls[l] != 0.0) ? 1 : 0;
          }
          break;
        }
        case LogicOp::kOr: {
          const Lanes &b = lanes_[node.rhs];
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = (a.dbls[l] != 0.0) | (b.dbls[l] != 0.0) ? 1 : 0;
          }
          break;
        }
        case LogicOp::kNot:
          for (size_t l = 0; l < n; l++) {
            out->ints[l] = a.dbls[l] == 0.0 ? 1 : 0;
          }
          break;
      }
      for (size_t l = 0; l < n; l++) {
        out->dbls[l] = static_cast<double>(out->ints[l]);
      }
      std::fill_n(out->is_int, n, uint8_t{1});
      out->all_int = n > 0;
      out->has_int = n > 0;
      return true;
    }
  }
  return false;
}

bool VectorizedExpression::LaneBool(size_t lane) const {
  if (scalar_block_) {
    const Value &v = scalar_vals_[lane];
    return v.type() == TypeId::kDouble ? v.AsDouble() != 0.0 : v.AsInt() != 0;
  }
  return lanes_.back().dbls[lane] != 0.0;
}

Value VectorizedExpression::LaneValue(size_t lane) const {
  if (scalar_block_) return scalar_vals_[lane];
  const Lanes &root = lanes_.back();
  return root.is_int[lane] ? Value::Integer(root.ints[lane])
                           : Value::Double(root.dbls[lane]);
}

void VectorizedFilter(const Expression &expr, size_t block_rows,
                      std::vector<Tuple> *rows, std::vector<SlotId> *slots) {
  VectorizedExpression vec(expr);
  if (block_rows == 0) block_rows = 1;
  const size_t total = rows->size();
  size_t kept = 0;
  for (size_t begin = 0; begin < total; begin += block_rows) {
    const size_t n = std::min(block_rows, total - begin);
    vec.EvaluateBlock(*rows, begin, n);
    for (size_t l = 0; l < n; l++) {
      if (!vec.LaneBool(l)) continue;
      const size_t i = begin + l;
      if (kept != i) {
        (*rows)[kept] = std::move((*rows)[i]);
        if (slots != nullptr) (*slots)[kept] = (*slots)[i];
      }
      kept++;
    }
  }
  rows->resize(kept);
  if (slots != nullptr) slots->resize(kept);
}

void VectorizedProject(const std::vector<ExprPtr> &exprs, size_t block_rows,
                       const std::vector<Tuple> &in, std::vector<Tuple> *out) {
  std::vector<VectorizedExpression> vecs;
  vecs.reserve(exprs.size());
  for (const auto &e : exprs) vecs.emplace_back(*e);
  if (block_rows == 0) block_rows = 1;
  out->reserve(out->size() + in.size());
  for (size_t begin = 0; begin < in.size(); begin += block_rows) {
    const size_t n = std::min(block_rows, in.size() - begin);
    for (size_t l = 0; l < n; l++) {
      Tuple row;
      row.reserve(exprs.size());
      out->push_back(std::move(row));
    }
    Tuple *block_out = out->data() + out->size() - n;
    for (VectorizedExpression &vec : vecs) {
      vec.EvaluateBlock(in, begin, n);
      for (size_t l = 0; l < n; l++) block_out[l].push_back(vec.LaneValue(l));
    }
  }
}

std::vector<double> VectorizedDoubles(const Expression &expr, size_t block_rows,
                                      const std::vector<Tuple> &rows) {
  VectorizedExpression vec(expr);
  if (block_rows == 0) block_rows = 1;
  std::vector<double> vals(rows.size());
  for (size_t begin = 0; begin < rows.size(); begin += block_rows) {
    const size_t n = std::min(block_rows, rows.size() - begin);
    vec.EvaluateBlock(rows, begin, n);
    for (size_t l = 0; l < n; l++) vals[begin + l] = vec.LaneDouble(l);
  }
  return vals;
}

}  // namespace mb2
