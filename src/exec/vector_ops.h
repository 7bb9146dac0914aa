#pragma once

/// \file vector_ops.h
/// The compiled execution mode's expression engine: expressions are
/// flattened once and then evaluated column-at-a-time over blocks of
/// `kVectorBlockRows` rows. Each node's result lives in contiguous typed
/// lanes (an int64 array, a double array, and a per-lane typedness byte), so
/// the common homogeneous case runs as tight loops over raw arrays the
/// compiler can vectorize — the same auto-vectorization contract as the
/// ml/matrix.cpp kernels (no reassociation, ascending index order), which is
/// what keeps compiled results bit-identical to the row-at-a-time
/// interpreter:
///   - int OP int stays int64 (div-by-zero yields 0),
///   - any double operand promotes the lane pair to double,
///   - comparisons compute the interpreter's three-way result (NaN compares
///     "greater", exactly like Value::Compare),
///   - varchar operands do not fit the lanes: a varchar constant sends every
///     block, and a varchar column value sends its block, row at a time
///     through Expression::Evaluate instead (the interpreter's own answers,
///     just slower). Every entry point below therefore answers every
///     expression.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/value.h"
#include "plan/expression.h"
#include "storage/version.h"

namespace mb2 {

/// Rows per block of the compiled engine's column-at-a-time loops.
inline constexpr size_t kVectorBlockRows = 1024;

class VectorizedExpression {
 public:
  /// `expr` must outlive this object.
  explicit VectorizedExpression(const Expression &expr);
  // The lane views point into this object's own buffers, which a move
  // carries along and a copy would not.
  MB2_DISALLOW_COPY(VectorizedExpression);
  VectorizedExpression(VectorizedExpression &&) = default;

  /// False when no block can use the lanes (varchar constant).
  bool Supported() const { return supported_; }

  /// Evaluates rows [begin, begin+n); the Lane* accessors then answer for
  /// lanes [0, n). Returns true when the typed lanes held the block, false
  /// when it ran Expression::Evaluate per row; the answers are the same
  /// either way.
  bool EvaluateBlock(const std::vector<Tuple> &rows, size_t begin, size_t n);

  /// Gather form: evaluates `n` rows referenced by pointer (e.g. tuples
  /// still sitting in MVCC version chains) without materializing them. The
  /// scan fast path filters through this and copies only the survivors.
  bool EvaluateBlock(const Tuple *const *rows, size_t n);

  bool LaneBool(size_t lane) const;    ///< Expression::EvaluateBool semantics
  Value LaneValue(size_t lane) const;  ///< Expression::Evaluate semantics
  /// Expression::Evaluate(row).AsDouble() semantics.
  double LaneDouble(size_t lane) const {
    return scalar_block_ ? scalar_vals_[lane].AsDouble()
                         : lanes_.back().dbls[lane];
  }

 private:
  /// Columnar result of one expression node over the current block, a view
  /// into the lane buffers below. The double lanes always hold the value's
  /// AsDouble() view; the int lanes are meaningful only where is_int says
  /// so.
  struct Lanes {
    int64_t *ints = nullptr;
    double *dbls = nullptr;
    uint8_t *is_int = nullptr;
    bool all_int = false;  ///< every lane integer: int fast loops apply
    bool has_int = false;  ///< no lane integer: pure double loops apply
  };

  /// One flattened node; children precede parents (postorder), so a single
  /// forward pass over `nodes_` evaluates the tree.
  struct Node {
    ExprType type;
    ArithOp arith_op = ArithOp::kAdd;
    CmpOp cmp_op = CmpOp::kEq;
    LogicOp logic_op = LogicOp::kAnd;
    uint32_t col_idx = 0;
    int32_t lhs = -1, rhs = -1;  // node indexes; kNot uses lhs only
    bool const_is_int = false;
    int64_t const_int = 0;
    double const_dbl = 0.0;
  };

  int32_t Flatten(const Expression &expr);
  /// `rows`/`begin` index a contiguous batch; `row_ptrs` (when non-null)
  /// takes precedence and gathers by pointer instead. Runs the lanes when
  /// they can hold the block, else Expression::Evaluate per row.
  bool Evaluate(const std::vector<Tuple> &rows, const Tuple *const *row_ptrs,
                size_t begin, size_t n);
  /// False when a varchar column value makes the block unfit for the lanes.
  bool EvalNode(const Node &node, Lanes *out, const std::vector<Tuple> &rows,
                const Tuple *const *row_ptrs, size_t begin, size_t n);

  const Expression *expr_;
  std::vector<Node> nodes_;
  std::vector<Lanes> lanes_;  // parallel to nodes_
  std::vector<int64_t> ints_;  // nodes_.size() runs of lane_capacity_ lanes
  std::vector<double> dbls_;
  std::vector<uint8_t> is_int_;
  size_t lane_capacity_ = 0;
  bool supported_ = true;
  std::vector<Value> scalar_vals_;  ///< root values of a scalar block
  bool scalar_block_ = false;  ///< the lanes could not hold the current block
};

/// Applies `expr` as a filter over `rows` in blocks of `block_rows`,
/// compacting rows (and `slots`, when non-null) in place. Bit-identical to
/// the interpreter's row-at-a-time filter.
void VectorizedFilter(const Expression &expr, size_t block_rows,
                      std::vector<Tuple> *rows, std::vector<SlotId> *slots);

/// Evaluates the projection list over `in` in blocks of `block_rows`,
/// appending one output tuple per input row.
void VectorizedProject(const std::vector<ExprPtr> &exprs, size_t block_rows,
                       const std::vector<Tuple> &in, std::vector<Tuple> *out);

/// Evaluates `expr` over every row of `rows` in blocks of `block_rows`:
/// element i is Expression::Evaluate(rows[i]).AsDouble().
std::vector<double> VectorizedDoubles(const Expression &expr, size_t block_rows,
                                      const std::vector<Tuple> &rows);

}  // namespace mb2
