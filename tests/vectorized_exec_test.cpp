// Compiled-execution tests: mode 1 evaluates expressions over typed column
// lanes (exec/vector_ops.h) and must return results bit-identical to the
// interpreter (mode 0) for every query shape, any block size and across
// block boundaries, including the scalar fallback for varchar operands;
// plus unit coverage of the typed-lane expression engine's promotion and
// div-by-zero semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "database.h"
#include "exec/vector_ops.h"
#include "sql/parser.h"

namespace mb2 {
namespace {

using sql::ExecuteSql;

bool ValuesBitIdentical(const Value &a, const Value &b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case TypeId::kInteger: return a.AsInt() == b.AsInt();
    case TypeId::kVarchar: return a.AsVarchar() == b.AsVarchar();
    case TypeId::kDouble: {
      const double da = a.AsDouble(), db = b.AsDouble();
      return std::memcmp(&da, &db, sizeof(da)) == 0;
    }
  }
  return false;
}

// --- Typed-lane expression engine unit tests --------------------------------

TEST(VectorizedExpressionTest, MatchesInterpreterSemantics) {
  // Rows mix integer and double values in the same column positions, so the
  // per-lane promotion rules all get exercised: col0 arithmetic with an int
  // constant, col1 division including by zero, and a logic combination.
  std::vector<Tuple> rows = {
      {Value::Integer(10), Value::Integer(0)},
      {Value::Integer(-3), Value::Integer(4)},
      {Value::Double(2.5), Value::Integer(2)},
      {Value::Integer(7), Value::Double(0.0)},
      {Value::Double(-0.5), Value::Double(3.25)},
  };
  // (col0 * 3 + col1) / col1  — int lanes stay int (div-by-zero -> 0),
  // any double operand promotes the lane.
  ExprPtr expr = Arith(
      ArithOp::kDiv,
      Arith(ArithOp::kAdd, Arith(ArithOp::kMul, ColRef(0), ConstInt(3)),
            ColRef(1)),
      ColRef(1));
  VectorizedExpression vec(*expr);
  ASSERT_TRUE(vec.Supported());
  ASSERT_TRUE(vec.EvaluateBlock(rows, 0, rows.size()));  // lanes, not scalar
  for (size_t i = 0; i < rows.size(); i++) {
    const Value expect = expr->Evaluate(rows[i]);
    EXPECT_TRUE(ValuesBitIdentical(vec.LaneValue(i), expect))
        << "row " << i << ": " << vec.LaneValue(i).ToString() << " vs "
        << expect.ToString();
  }

  // Comparison + logic: (col0 >= 0 AND NOT col1 > 3) as the interpreter
  // computes it (comparisons yield Integer 0/1).
  ExprPtr pred = And(Cmp(CmpOp::kGe, ColRef(0), ConstInt(0)),
                     Not(Cmp(CmpOp::kGt, ColRef(1), ConstInt(3))));
  VectorizedExpression vpred(*pred);
  ASSERT_TRUE(vpred.EvaluateBlock(rows, 0, rows.size()));
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(vpred.LaneBool(i), pred->EvaluateBool(rows[i])) << "row " << i;
    EXPECT_TRUE(ValuesBitIdentical(vpred.LaneValue(i), pred->Evaluate(rows[i])));
  }
}

TEST(VectorizedExpressionTest, VarcharConstantIsUnsupported) {
  // A varchar constant never fits the lanes: every block runs the scalar
  // program, and the filter still answers exactly as the interpreter does.
  ExprPtr expr = Or(Cmp(CmpOp::kEq, ColRef(1), Const(Value::Varchar("x"))),
                    Cmp(CmpOp::kLt, ColRef(0), ConstInt(2)));
  EXPECT_FALSE(VectorizedExpression(*expr).Supported());
  std::vector<Tuple> rows;
  std::vector<SlotId> slots;
  for (int i = 0; i < 11; i++) {
    rows.push_back({Value::Integer(i), Value::Varchar(i % 3 == 0 ? "x" : "y")});
    slots.push_back(static_cast<SlotId>(100 + i));
  }
  std::vector<Tuple> expect;
  std::vector<SlotId> expect_slots;
  for (size_t i = 0; i < rows.size(); i++) {
    if (!expr->EvaluateBool(rows[i])) continue;
    expect.push_back(rows[i]);
    expect_slots.push_back(slots[i]);
  }
  VectorizedFilter(*expr, 4, &rows, &slots);
  ASSERT_EQ(rows.size(), expect.size());
  EXPECT_EQ(slots, expect_slots);
  for (size_t i = 0; i < rows.size(); i++) {
    for (size_t c = 0; c < rows[i].size(); c++) {
      EXPECT_TRUE(ValuesBitIdentical(rows[i][c], expect[i][c])) << "row " << i;
    }
  }
}

TEST(VectorizedExpressionTest, VarcharColumnFallsBackPerBlock) {
  // A projection list mixing a varchar column with numeric math: the varchar
  // expression's blocks cannot vectorize, so those lanes must be answered by
  // the scalar path — with results identical to the interpreter's.
  std::vector<Tuple> rows;
  for (int i = 0; i < 20; i++) {
    rows.push_back({Value::Integer(i), Value::Varchar("s" + std::to_string(i))});
  }
  std::vector<ExprPtr> exprs;
  exprs.push_back(ColRef(1));  // varchar column: per-block scalar fallback
  exprs.push_back(Arith(ArithOp::kMul, ColRef(0), ConstInt(3)));
  std::vector<Tuple> got;
  VectorizedProject(exprs, 3, rows, &got);
  ASSERT_EQ(got.size(), rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_TRUE(ValuesBitIdentical(got[i][0], exprs[0]->Evaluate(rows[i])));
    EXPECT_TRUE(ValuesBitIdentical(got[i][1], exprs[1]->Evaluate(rows[i])));
  }
  // Filtering on the same rows through the numeric column still vectorizes.
  ExprPtr pred = Cmp(CmpOp::kLt, ColRef(0), ConstInt(7));
  VectorizedExpression vpred(*pred);
  EXPECT_TRUE(vpred.EvaluateBlock(rows, 0, 4));  // lanes, not scalar
  VectorizedFilter(*pred, 4, &rows, nullptr);
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows.back()[1].AsVarchar(), "s6");
}

// --- End-to-end mode matrix -------------------------------------------------

class VectorizedSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE items (id INTEGER, grp INTEGER,"
                                 " price DOUBLE, name VARCHAR(8))").ok());
    for (int i = 0; i < 120; i++) {
      char stmt[160];
      std::snprintf(stmt, sizeof(stmt),
                    "INSERT INTO items VALUES (%d, %d, %d.125, 'n%d')", i,
                    i % 6, i, i);
      ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
    }
    ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE grps (gid INTEGER,"
                                 " label VARCHAR(8))").ok());
    for (int g = 0; g < 6; g++) {
      char stmt[96];
      std::snprintf(stmt, sizeof(stmt), "INSERT INTO grps VALUES (%d, 'g%d')",
                    g, g);
      ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
    }
    db_.estimator().RefreshStats();
    // Plan caching is orthogonal here; disable it so every run replans.
    ASSERT_TRUE(db_.settings().SetInt("sql_plan_cache_capacity", 0).ok());
  }

  Batch RunInMode(const std::string &statement, int64_t mode) {
    EXPECT_TRUE(db_.settings().SetInt("execution_mode", mode).ok());
    auto result = ExecuteSql(&db_, statement);
    EXPECT_TRUE(result.ok()) << statement;
    if (!result.ok()) return {};
    EXPECT_TRUE(result.value().status.ok()) << statement;
    return std::move(result.value().batch);
  }

  void ExpectAllModesBitIdentical(const std::string &statement) {
    const Batch interpret = RunInMode(statement, 0);
    const Batch compiled = RunInMode(statement, 1);
    ExpectBitIdentical(compiled.rows, interpret.rows, statement);
  }

  static void ExpectBitIdentical(const std::vector<Tuple> &got,
                                 const std::vector<Tuple> &expect,
                                 const std::string &what) {
    ASSERT_EQ(got.size(), expect.size()) << what;
    for (size_t r = 0; r < expect.size(); r++) {
      ASSERT_EQ(got[r].size(), expect[r].size()) << what << " row " << r;
      for (size_t c = 0; c < expect[r].size(); c++) {
        EXPECT_TRUE(ValuesBitIdentical(got[r][c], expect[r][c]))
            << what << " row " << r << " col " << c;
      }
    }
  }

  Database db_;
};

TEST_F(VectorizedSqlTest, AllModesBitIdenticalAcrossQueryShapes) {
  const char *queries[] = {
      "SELECT * FROM items WHERE id < 40 AND grp = 2",
      "SELECT id, price * 2 + 1, id / 7 FROM items WHERE price > 30.125",
      "SELECT id / 0 FROM items WHERE id < 5",  // int div-by-zero -> 0
      "SELECT grp, COUNT(*), SUM(price), MIN(id) FROM items GROUP BY grp "
      "ORDER BY 1",
      "SELECT id FROM items ORDER BY id DESC LIMIT 13",
      "SELECT name FROM items WHERE name = 'n42'",       // varchar fallback
      "SELECT id, name FROM items WHERE id = 17 OR id = 18",
      "SELECT * FROM items JOIN grps ON grp = gid WHERE label = 'g3' "
      "AND id < 60",
      "SELECT COUNT(*), AVG(price) FROM items WHERE id < 11",
  };
  for (const char *q : queries) ExpectAllModesBitIdentical(q);
}

TEST_F(VectorizedSqlTest, BatchSizeDoesNotChangeResults) {
  // The engine runs kVectorBlockRows-row blocks; the primitives take the
  // block size as a parameter, so sweep it on them directly. The projection
  // list carries a varchar column (scalar blocks) beside numeric math.
  const Batch table = RunInMode("SELECT * FROM items", 0);
  ExprPtr pred = And(Cmp(CmpOp::kEq, ColRef(1), ConstInt(1)),
                     Cmp(CmpOp::kGt, ColRef(2), ConstDouble(6.0)));
  std::vector<ExprPtr> exprs;
  exprs.push_back(ColRef(0));
  exprs.push_back(Arith(ArithOp::kMul, ColRef(2), ConstDouble(0.5)));
  exprs.push_back(ColRef(3));
  std::vector<Tuple> expect;
  for (const Tuple &row : table.rows) {
    if (!pred->EvaluateBool(row)) continue;
    Tuple out;
    for (const auto &e : exprs) out.push_back(e->Evaluate(row));
    expect.push_back(std::move(out));
  }
  ASSERT_FALSE(expect.empty());
  for (size_t block : {size_t{1}, size_t{3}, size_t{64}, size_t{100000}}) {
    std::vector<Tuple> rows = table.rows;
    VectorizedFilter(*pred, block, &rows, nullptr);
    std::vector<Tuple> got;
    VectorizedProject(exprs, block, rows, &got);
    ExpectBitIdentical(got, expect, "block " + std::to_string(block));
  }
}

TEST_F(VectorizedSqlTest, ResultsIdenticalAcrossBlockBoundaries) {
  // More than two full blocks, so the fused scan, the block filter, the
  // projection and the aggregate-argument lanes all cross block boundaries.
  const int n = 2 * static_cast<int>(kVectorBlockRows) + 300;
  ASSERT_TRUE(ExecuteSql(&db_, "CREATE TABLE big (id INTEGER, grp INTEGER,"
                               " price DOUBLE, name VARCHAR(8))").ok());
  for (int begin = 0; begin < n; begin += 100) {
    std::string stmt = "INSERT INTO big VALUES ";
    for (int i = begin; i < std::min(n, begin + 100); i++) {
      if (i != begin) stmt += ", ";
      stmt += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ", " +
              std::to_string(i) + ".375, 'n" + std::to_string(i) + "')";
    }
    ASSERT_TRUE(ExecuteSql(&db_, stmt).ok());
  }
  db_.estimator().RefreshStats();
  const char *queries[] = {
      "SELECT * FROM big WHERE id * 3 > 1000 AND price < 2000.5",
      "SELECT * FROM big WHERE name = 'n2047' OR id < 3",  // scalar blocks
      "SELECT id, price * 3 - id, id / 9 FROM big WHERE grp = 3",
      "SELECT grp, COUNT(*), SUM(price), AVG(id * 2), MAX(price / 3) FROM big "
      "WHERE id > 100 GROUP BY grp ORDER BY 1",
      "SELECT SUM(price), MIN(id) FROM big",
  };
  for (const char *q : queries) {
    const Batch interpret = RunInMode(q, 0);
    ASSERT_FALSE(interpret.rows.empty()) << q;
    ExpectBitIdentical(RunInMode(q, 1).rows, interpret.rows, q);
  }
}

TEST_F(VectorizedSqlTest, DmlRunsUnderVectorizedMode) {
  ASSERT_TRUE(db_.settings().SetInt("execution_mode", 1).ok());
  ASSERT_TRUE(ExecuteSql(&db_, "UPDATE items SET price = 0.0 WHERE grp = 4")
                  .ok());
  auto zeroed = ExecuteSql(&db_, "SELECT COUNT(*) FROM items WHERE "
                                 "price < 0.001");
  ASSERT_TRUE(zeroed.ok());
  EXPECT_EQ(zeroed.value().batch.rows[0][0].AsInt(), 20);
  ASSERT_TRUE(ExecuteSql(&db_, "DELETE FROM items WHERE id >= 100").ok());
  auto rest = ExecuteSql(&db_, "SELECT * FROM items");
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest.value().batch.rows.size(), 100u);
}

}  // namespace
}  // namespace mb2
