#include "modeling/ou_translator.h"

#include "index/bplus_tree.h"
#include "index/index_builder.h"
#include "storage/table.h"

namespace mb2 {

namespace {

double SchemaTupleBytes(const Schema &schema) {
  return static_cast<double>(schema.TupleByteSize());
}

}  // namespace

std::vector<TranslatedOu> OuTranslator::TranslateQuery(
    const PlanNode &plan, double exec_mode_override) const {
  const double mode =
      exec_mode_override >= 0.0
          ? exec_mode_override
          : static_cast<double>(settings_->GetInt("execution_mode"));
  std::vector<TranslatedOu> out;
  TranslateNode(plan, mode, &out);
  return out;
}

void OuTranslator::TranslateNode(const PlanNode &node, double mode,
                                 std::vector<TranslatedOu> *out) const {
  // Children first: execution is bottom-up (operator-at-a-time).
  for (const auto &child : node.children) TranslateNode(*child, mode, out);

  switch (node.type) {
    case PlanNodeType::kSeqScan: {
      const auto *scan = node.As<SeqScanPlan>();
      const double table_rows = estimator_->TableRows(scan->table);
      // Disk tables stage their heap pages before the scan proper
      // (ExecSeqScanDisk), so prepend the PAGE_READ OU. Training measured
      // the actual buffer-pool miss count; serving estimates it as the
      // pages that cannot fit the pool — 0 when the table fits (hot cache),
      // pages - pool when it cannot (the steady-state eviction regime).
      const Table *table = catalog_->GetTable(scan->table);
      if (table != nullptr && table->storage() == TableStorage::kDisk) {
        const double pages = static_cast<double>(table->heap()->NumPages());
        const double pool =
            static_cast<double>(table->heap()->pool()->CapacityPages());
        const double est_misses = pages > pool ? pages - pool : 0.0;
        out->push_back(
            {OuType::kPageRead, {pages, est_misses, table_rows, pool}});
      }
      // The scan OU itself emits every visible row (the predicate is a
      // separate ARITHMETIC OU), so its output-cardinality feature is the
      // table row count — matching what training-time execution records.
      out->push_back({OuType::kSeqScan,
                      MakeExecFeatures(table_rows,
                                       node.output_schema.NumColumns(),
                                       SchemaTupleBytes(node.output_schema),
                                       table_rows, 0.0, 1.0, mode)});
      if (scan->predicate != nullptr) {
        out->push_back({OuType::kArithmetic,
                        {table_rows,
                         static_cast<double>(scan->predicate->Complexity()),
                         mode}});
      }
      break;
    }
    case PlanNodeType::kIndexScan: {
      const auto *scan = node.As<IndexScanPlan>();
      const BPlusTree *index = catalog_->GetIndex(scan->index);
      const double entries =
          index != nullptr ? static_cast<double>(index->NumEntries())
                           : estimator_->TableRows(scan->table);
      out->push_back({OuType::kIdxScan,
                      MakeExecFeatures(node.estimated_rows,
                                       node.output_schema.NumColumns(),
                                       SchemaTupleBytes(node.output_schema),
                                       entries, 0.0, 1.0, mode)});
      if (scan->predicate != nullptr) {
        out->push_back({OuType::kArithmetic,
                        {node.estimated_rows,
                         static_cast<double>(scan->predicate->Complexity()),
                         mode}});
      }
      break;
    }
    case PlanNodeType::kHashJoin: {
      const PlanNode &build = *node.children[0];
      const PlanNode &probe = *node.children[1];
      const double payload = SchemaTupleBytes(build.output_schema);
      out->push_back({OuType::kHashJoinBuild,
                      MakeExecFeatures(build.estimated_rows,
                                       build.output_schema.NumColumns(), payload,
                                       node.estimated_cardinality, payload, 1.0,
                                       mode)});
      out->push_back({OuType::kHashJoinProbe,
                      MakeExecFeatures(probe.estimated_rows,
                                       probe.output_schema.NumColumns(),
                                       SchemaTupleBytes(probe.output_schema),
                                       node.estimated_rows, payload, 1.0, mode)});
      break;
    }
    case PlanNodeType::kAggregate: {
      const auto *agg = node.As<AggregatePlan>();
      const PlanNode &child = *node.children[0];
      const double payload = static_cast<double>(agg->group_by.size() * 8 +
                                                 agg->terms.size() * 32);
      out->push_back({OuType::kAggBuild,
                      MakeExecFeatures(child.estimated_rows,
                                       child.output_schema.NumColumns(),
                                       SchemaTupleBytes(child.output_schema),
                                       node.estimated_rows, payload, 1.0, mode)});
      out->push_back(
          {OuType::kAggProbe,
           MakeExecFeatures(node.estimated_rows,
                            node.output_schema.NumColumns(),
                            SchemaTupleBytes(node.output_schema),
                            node.estimated_rows, 0.0, 1.0, mode)});
      break;
    }
    case PlanNodeType::kSort: {
      const auto *sort = node.As<SortPlan>();
      const PlanNode &child = *node.children[0];
      const double bytes = SchemaTupleBytes(child.output_schema);
      out->push_back({OuType::kSortBuild,
                      MakeExecFeatures(child.estimated_rows,
                                       child.output_schema.NumColumns(), bytes,
                                       node.estimated_cardinality, bytes, 1.0,
                                       mode)});
      const double out_rows =
          sort->limit != 0
              ? std::min(child.estimated_rows, static_cast<double>(sort->limit))
              : child.estimated_rows;
      out->push_back({OuType::kSortIterate,
                      MakeExecFeatures(out_rows,
                                       child.output_schema.NumColumns(), bytes,
                                       0.0, 0.0, 1.0, mode)});
      break;
    }
    case PlanNodeType::kProjection: {
      const auto *proj = node.As<ProjectionPlan>();
      uint32_t complexity = 0;
      for (const auto &e : proj->exprs) complexity += e->Complexity();
      out->push_back({OuType::kArithmetic,
                      {node.children[0]->estimated_rows,
                       static_cast<double>(complexity), mode}});
      break;
    }
    case PlanNodeType::kLimit:
      break;  // no measurable work of its own
    case PlanNodeType::kInsert: {
      const auto *insert = node.As<InsertPlan>();
      const Table *table = catalog_->GetTable(insert->table);
      const double bytes =
          table != nullptr ? SchemaTupleBytes(table->schema()) : 64.0;
      const double cols =
          table != nullptr ? table->schema().NumColumns() : 8.0;
      out->push_back({OuType::kInsert,
                      MakeExecFeatures(node.estimated_rows, cols, bytes, 0.0,
                                       0.0, 1.0, mode)});
      break;
    }
    case PlanNodeType::kUpdate: {
      const auto *update = node.As<UpdatePlan>();
      out->push_back({OuType::kUpdate,
                      MakeExecFeatures(
                          node.estimated_rows,
                          static_cast<double>(update->sets.size()),
                          SchemaTupleBytes(node.children[0]->output_schema),
                          0.0, 0.0, 1.0, mode)});
      break;
    }
    case PlanNodeType::kDelete: {
      out->push_back({OuType::kDelete,
                      MakeExecFeatures(
                          node.estimated_rows,
                          node.children[0]->output_schema.NumColumns(),
                          SchemaTupleBytes(node.children[0]->output_schema),
                          0.0, 0.0, 1.0, mode)});
      break;
    }
    case PlanNodeType::kOutput: {
      out->push_back({OuType::kOutput,
                      MakeExecFeatures(node.estimated_rows,
                                       node.output_schema.NumColumns(),
                                       SchemaTupleBytes(node.output_schema),
                                       0.0, 0.0, 1.0, mode)});
      break;
    }
  }
}

std::vector<TranslatedOu> OuTranslator::TranslateAction(const Action &action) const {
  std::vector<TranslatedOu> out;
  if (action.type != ActionType::kCreateIndex) return out;

  Table *table = catalog_->GetTable(action.index.table_name);
  if (table == nullptr) return out;
  const double rows = estimator_->TableRows(action.index.table_name);
  double key_size = 0.0;
  double cardinality = 1.0;
  for (uint32_t c : action.index.key_columns) {
    const Column &col = table->schema().GetColumn(c);
    key_size += col.type == TypeId::kVarchar ? col.varchar_len : 8;
    cardinality = std::max(
        cardinality, estimator_->ColumnDistinct(action.index.table_name, c));
  }
  out.push_back({OuType::kIndexBuild,
                 {rows, static_cast<double>(action.index.key_columns.size()),
                  key_size, cardinality,
                  static_cast<double>(action.build_threads)}});
  return out;
}

double OuTranslator::EstimateWriteBytes(const PlanNode &node) const {
  double bytes = 0.0;
  for (const auto &child : node.children) bytes += EstimateWriteBytes(*child);
  switch (node.type) {
    case PlanNodeType::kInsert: {
      const auto *insert = node.As<InsertPlan>();
      const Table *table = catalog_->GetTable(insert->table);
      const double row_bytes =
          table != nullptr ? SchemaTupleBytes(table->schema()) : 64.0;
      bytes += node.estimated_rows * (row_bytes + 25.0);
      break;
    }
    case PlanNodeType::kUpdate: {
      const auto *update = node.As<UpdatePlan>();
      const Table *table = catalog_->GetTable(update->table);
      const double row_bytes =
          table != nullptr ? SchemaTupleBytes(table->schema()) : 64.0;
      bytes += node.estimated_rows * (row_bytes + 25.0);
      break;
    }
    case PlanNodeType::kDelete:
      bytes += node.estimated_rows * 25.0;
      break;
    default:
      break;
  }
  return bytes;
}

std::vector<TranslatedOu> OuTranslator::TranslateIntervalMaintenance(
    const WorkloadForecast &forecast) const {
  std::vector<TranslatedOu> out;
  double total_bytes = 0.0;
  double total_records = 0.0;
  for (const auto &entry : forecast.entries) {
    if (entry.plan == nullptr) continue;
    const double execs = entry.arrival_rate * forecast.interval_s;
    const double bytes = EstimateWriteBytes(*entry.plan);
    total_bytes += execs * bytes;
    if (bytes > 0.0) total_records += execs;
  }
  const double flush_interval = settings_->GetDouble("log_flush_interval_us");
  const double gc_interval = settings_->GetDouble("gc_interval_us");
  if (total_bytes > 0.0) {
    const double buffers = std::max(1.0, total_bytes / LogBuffer::kCapacity);
    out.push_back({OuType::kLogSerialize,
                   {total_records, total_bytes, buffers, flush_interval}});
    out.push_back({OuType::kLogFlush, {total_bytes, buffers, flush_interval}});
  }
  // GC reclaims roughly the interval's superseded versions.
  const double interval_us = forecast.interval_s * 1e6;
  const double gc_runs = std::max(1.0, interval_us / std::max(1.0, gc_interval));
  if (total_records > 0.0) {
    out.push_back({OuType::kGarbageCollection,
                   {total_records / gc_runs, total_bytes / gc_runs, gc_interval}});
  }
  return out;
}

std::vector<TranslatedOu> OuTranslator::TranslateTransactions(
    const WorkloadForecast &forecast) const {
  std::vector<TranslatedOu> out;
  double rate = 0.0;
  for (const auto &entry : forecast.entries) rate += entry.arrival_rate;
  if (rate <= 0.0) return out;
  const double running = rate / std::max(1u, forecast.num_threads) * 0.001;
  out.push_back({OuType::kTxnBegin, {rate, running}});
  out.push_back({OuType::kTxnCommit, {rate, running}});
  return out;
}

}  // namespace mb2
