#include "ctrl/candidates.h"

#include <set>

#include "ctrl/forecaster.h"
#include "database.h"
#include "sql/parser.h"

namespace mb2::ctrl {

namespace {

/// Column ordinals referenced by comparisons against constants, walking
/// through AND conjuncts. (OR branches are skipped: a single-column index
/// cannot serve a disjunction, so proposing one would never get picked.)
void CollectFilterColumns(const Expression *expr, std::set<uint32_t> *out) {
  if (expr == nullptr) return;
  if (expr->type == ExprType::kLogic && expr->logic_op == LogicOp::kAnd) {
    for (const auto &child : expr->children) {
      CollectFilterColumns(child.get(), out);
    }
    return;
  }
  if (expr->type != ExprType::kComparison || expr->children.size() != 2) return;
  const Expression *lhs = expr->children[0].get();
  const Expression *rhs = expr->children[1].get();
  if (lhs->type == ExprType::kColumnRef && rhs->type == ExprType::kConstant) {
    out->insert(lhs->col_idx);
  } else if (rhs->type == ExprType::kColumnRef &&
             lhs->type == ExprType::kConstant) {
    out->insert(rhs->col_idx);
  }
}

struct PlanFacts {
  /// (table, filter column ordinal) pairs behind sequential scans.
  std::set<std::pair<std::string, uint32_t>> scan_filters;
  /// Index names any plan actually scans.
  std::set<std::string> used_indexes;
};

void WalkPlan(const PlanNode *node, PlanFacts *facts) {
  if (node == nullptr) return;
  if (node->type == PlanNodeType::kSeqScan) {
    const auto *scan = node->As<SeqScanPlan>();
    std::set<uint32_t> cols;
    CollectFilterColumns(scan->predicate.get(), &cols);
    for (uint32_t col : cols) facts->scan_filters.emplace(scan->table, col);
  } else if (node->type == PlanNodeType::kIndexScan) {
    facts->used_indexes.insert(node->As<IndexScanPlan>()->index);
  }
  for (const auto &child : node->children) WalkPlan(child.get(), facts);
}

}  // namespace

std::string ControllerIndexName(const std::string &table,
                                const std::string &column) {
  return "ctrl_" + table + "_" + column;
}

std::vector<Action> GenerateCandidates(
    Database *db, const std::vector<const TemplateForecast *> &forecast,
    const CandidateConfig &config) {
  std::vector<Action> candidates;
  Catalog &catalog = db->catalog();

  // Re-plan every forecasted template under the current catalog state and
  // collect what the plans touch. Parse failures (e.g. a table dropped since
  // the template was observed) just exclude that template.
  PlanFacts facts;
  for (const TemplateForecast *tmpl : forecast) {
    if (tmpl == nullptr || tmpl->sql.empty()) continue;
    auto bound = sql::Parse(db, tmpl->sql);
    if (!bound.ok() || bound.value().plan == nullptr) continue;
    WalkPlan(bound.value().plan.get(), &facts);
  }

  if (config.propose_indexes) {
    for (const auto &[table_name, col] : facts.scan_filters) {
      Table *table = catalog.GetTable(table_name);
      if (table == nullptr) continue;
      if (table->ApproxLiveRows() < config.min_table_rows) continue;
      if (col >= table->schema().NumColumns()) continue;
      // Skip when any index (ready or building) already leads with this
      // column — the scan will (or is about to) use it.
      bool covered = false;
      for (const BPlusTree *index : catalog.GetTableIndexes(table_name)) {
        if (!index->schema().key_columns.empty() &&
            index->schema().key_columns[0] == col) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      IndexSchema schema;
      schema.name = ControllerIndexName(table_name, table->schema().GetColumn(col).name);
      schema.table_name = table_name;
      schema.key_columns = {col};
      candidates.push_back(
          Action::CreateIndex(std::move(schema), config.index_build_threads));
    }
  }

  if (config.propose_drops) {
    for (const std::string &name : catalog.IndexNames()) {
      if (name.rfind("ctrl_", 0) != 0) continue;  // only our own indexes
      if (facts.used_indexes.count(name) > 0) continue;
      candidates.push_back(Action::DropIndex(name));
    }
  }

  if (config.propose_knobs) {
    // A bounded palette per knob. Values equal to the current setting are
    // skipped; the Planner prices the rest against the forecast.
    const struct {
      const char *knob;
      double values[3];
      int count;
    } kPalette[] = {
        {"execution_mode", {0, 1}, 2},
        {"gc_interval_us", {1000, 10000, 100000}, 3},
        {"log_flush_interval_us", {1000, 10000, 100000}, 3},
        {"net_queue_depth", {64, 256, 1024}, 3},
        {"sql_plan_cache_capacity", {0, 1024, 4096}, 3},
        {"buffer_pool_pages", {256, 1024, 4096}, 3},
    };
    for (const auto &entry : kPalette) {
      // Buffer-pool sizing only matters once a disk heap exists.
      if (std::string(entry.knob) == "buffer_pool_pages" &&
          db->buffer_pool() == nullptr) {
        continue;
      }
      const double current = db->settings().GetDouble(entry.knob);
      for (int i = 0; i < entry.count; i++) {
        if (entry.values[i] == current) continue;
        candidates.push_back(Action::ChangeKnob(entry.knob, entry.values[i]));
      }
    }
  }

  return candidates;
}

}  // namespace mb2::ctrl
