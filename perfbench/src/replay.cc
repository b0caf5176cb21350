// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The traced replay of ExtractionContext::ExtractDocumentImpl. Each step
// is the public call the library makes, in the library's order, wrapped in
// a span. The replay reproduces the library's work as it is today,
// including the second ExtractCandidateTags pass inside discovery; the
// records digest gate checks that it produces exactly the library's
// records.

#include <memory>
#include <optional>
#include <utility>

#include "bench.h"
#include "core/boundary_artifact.h"
#include "core/candidate_tags.h"
#include "core/compound.h"
#include "core/ht_heuristic.h"
#include "core/it_heuristic.h"
#include "core/om_heuristic.h"
#include "core/rp_heuristic.h"
#include "core/sd_heuristic.h"
#include "extract/db_instance_generator.h"
#include "html/text_index.h"
#include "html/tree_builder.h"

namespace perfbench {

using webrbd::Result;
using webrbd::Status;

namespace {

// ExtractionContext's O(d) record-count estimate from the Data-Record
// Table (the library keeps it file-local).
std::optional<double> EstimateFromTable(const webrbd::Ontology& ontology,
                                        const webrbd::DataRecordTable& table) {
  const std::vector<const webrbd::ObjectSet*> fields =
      ontology.RecordIdentifyingFields();
  if (fields.size() < 3) return std::nullopt;
  double total = 0.0;
  for (const webrbd::ObjectSet* field : fields) {
    total += static_cast<double>(
        field->frame.HasKeywords()
            ? table.CountFor(field->name, webrbd::MatchKind::kKeyword)
            : table.CountFor(field->name, webrbd::MatchKind::kConstant));
  }
  return total / static_cast<double>(fields.size());
}

const char* HeuristicSpanName(const std::string& name) {
  if (name == "OM") return "core.heuristic.om";
  if (name == "RP") return "core.heuristic.rp";
  if (name == "SD") return "core.heuristic.sd";
  if (name == "IT") return "core.heuristic.it";
  return "core.heuristic.ht";
}

// RecordBoundaryDiscoverer's constructor and Discover, step by step.
Result<webrbd::DiscoveryResult> TracedDiscover(
    webrbd::StandaloneDiscoveryOptions options, const webrbd::TagTree& tree,
    Tracer& tracer, int64_t id) {
  ScopedSpan discover(tracer, "core.discover", id);
  auto names =
      webrbd::RecordBoundaryDiscoverer::ParseHeuristicLetters(options.heuristics);
  if (!names.ok()) return names.status();
  std::vector<std::unique_ptr<webrbd::SeparatorHeuristic>> heuristics;
  for (const std::string& name : *names) {
    if (name == "OM") {
      heuristics.push_back(
          std::make_unique<webrbd::OmHeuristic>(options.estimator));
    } else if (name == "RP") {
      heuristics.push_back(
          std::make_unique<webrbd::RpHeuristic>(options.rp_pair_floor));
    } else if (name == "SD") {
      heuristics.push_back(
          std::make_unique<webrbd::SdHeuristic>(options.sd_normalize));
    } else if (name == "IT") {
      heuristics.push_back(
          std::make_unique<webrbd::ItHeuristic>(options.it_separator_list));
    } else if (name == "HT") {
      heuristics.push_back(std::make_unique<webrbd::HtHeuristic>());
    }
  }
  webrbd::DiscoveryResult result;
  {
    // The duplicate candidate pass the library runs inside Discover.
    ScopedSpan span(tracer, "core.candidates", id);
    auto analysis = webrbd::ExtractCandidateTags(tree, options.candidate_options);
    if (!analysis.ok()) return analysis.status();
    result.analysis = std::move(analysis).value();
  }
  for (const auto& heuristic : heuristics) {
    ScopedSpan span(tracer, HeuristicSpanName(heuristic->name()), id);
    result.heuristic_results.push_back(heuristic->Rank(tree, result.analysis));
  }
  result.compound_ranking = webrbd::CombineHeuristicResults(
      result.heuristic_results, options.certainty, result.analysis);
  if (result.compound_ranking.empty()) {
    return Status::Internal("compound ranking empty despite candidates");
  }
  result.separator = result.compound_ranking.front().tag;
  result.tied_best = webrbd::TiedBestTags(result.compound_ranking);
  return result;
}

// The library's `finish`: partition at the cuts, assemble one record per
// partition, stage it.
Status Finish(const webrbd::ExtractionContext& context,
              const webrbd::DataRecordTable& table,
              const std::string& separator, const std::vector<size_t>& cuts,
              uint32_t document_index, webrbd::BufferSink& staging,
              Tracer& tracer, int64_t id, ReplayCounts& counts) {
  ScopedSpan span(tracer, "extract.dbgen", id);
  if (cuts.empty()) {
    return Status::Internal("separator <" + separator +
                            "> has no occurrences in its own region");
  }
  std::vector<webrbd::DataRecordTable> partitions = table.PartitionAt(cuts);
  partitions.erase(partitions.begin());
  while (!partitions.empty() && partitions.back().empty()) {
    partitions.pop_back();
  }
  const webrbd::DatabaseInstanceGenerator* generator =
      context.instance_generator().get();
  if (generator == nullptr) {
    return Status::Internal("instance generator failed to compile");
  }
  PopulatedRecord record;
  record.document_index = document_index;
  record.entity = generator->scheme().entity_table.table_name();
  for (size_t i = 0; i < partitions.size(); ++i) {
    record.record_index = static_cast<uint32_t>(i);
    record.fields = generator->FieldsFromTable(partitions[i]);
    Status written = staging.Write(record);
    if (!written.ok()) return written;
  }
  counts.records += partitions.size();
  return Status::OK();
}

// Replays ExtractDocumentImpl's order for one document, one span per
// call, staging its records into `staging`. Returns the separator, or the
// error the library would report.
Result<std::string> ReplayDocument(const ReplayTarget& target,
                                   std::string_view html,
                                   webrbd::DocumentArena& arena,
                                   uint32_t document_index,
                                   webrbd::BufferSink& staging, Tracer& tracer,
                                   int64_t id, ReplayCounts& counts) {
  ScopedSpan document(tracer, "document", id);
  counts.input_bytes += html.size();
  const webrbd::ExtractionContext& context = *target.context;
  const webrbd::DiscoveryOptions& base = context.options().discovery;
  const bool has_rules = !context.recognizer().rules().rules().empty();
  webrbd::TemplateCache* cache = target.cache;

  Result<webrbd::BalancedDocument> balanced = Status::Internal("unreached");
  {
    ScopedSpan span(tracer, "html.lex_balance", id);
    balanced = webrbd::LexAndBalance(html, base.limits, arena);
  }
  if (!balanced.ok()) return balanced.status();
  counts.tokens += balanced->tokens.size();

  uint64_t fingerprint = 0;
  std::shared_ptr<const webrbd::BoundaryArtifact> memoized;
  std::shared_ptr<const webrbd::BoundaryArtifact> captured;
  if (cache != nullptr) {
    {
      ScopedSpan span(tracer, "template_cache.fingerprint", id);
      fingerprint = webrbd::PageFingerprint(balanced->tokens,
                                            balanced->symbols, arena.interner(),
                                            context.template_salt());
    }
    ScopedSpan span(tracer, "template_cache.lookup", id);
    memoized = cache->Lookup(fingerprint);
    ++counts.lookups;
    if (memoized != nullptr) ++counts.hits;
  }

  if (memoized != nullptr && !has_rules) {
    std::optional<webrbd::StreamBoundary> boundary;
    {
      ScopedSpan span(tracer, "template_cache.reapply", id);
      boundary = webrbd::ReapplyBoundaryArtifact(
          *memoized, balanced->tokens, balanced->symbols, arena.interner());
    }
    if (boundary.has_value()) {
      // The library copies the populating page's diagnostics into the
      // outcome here.
      webrbd::DiscoveryResult diagnostics = memoized->discovery;
      (void)diagnostics;
      Status finished =
          Finish(context, webrbd::DataRecordTable(), memoized->separator,
                 boundary->separator_positions, document_index, staging,
                 tracer, id, counts);
      if (!finished.ok()) return finished;
      return memoized->separator;
    }
    ScopedSpan span(tracer, "template_cache.lookup", id);
    cache->RecordFallback();
    cache->Erase(fingerprint);
    ++counts.fallbacks;
    memoized = nullptr;
  }

  Result<webrbd::TagTree> tree = Status::Internal("unreached");
  {
    ScopedSpan span(tracer, "html.tree_build", id);
    tree = webrbd::BuildTagTreeFromBalanced(std::move(balanced).value(),
                                            base.limits, &arena);
  }
  if (!tree.ok()) return tree.status();

  std::optional<webrbd::ReappliedBoundary> reapplied;
  if (memoized != nullptr) {
    {
      ScopedSpan span(tracer, "template_cache.reapply", id);
      reapplied = webrbd::ReapplyBoundaryArtifact(*memoized, *tree);
    }
    if (!reapplied.has_value()) {
      ScopedSpan span(tracer, "template_cache.lookup", id);
      cache->RecordFallback();
      cache->Erase(fingerprint);
      ++counts.fallbacks;
      memoized = nullptr;
    }
  }

  const webrbd::TagNode* region = nullptr;
  if (reapplied.has_value()) {
    region = reapplied->subtree;
  } else {
    ScopedSpan span(tracer, "core.candidates", id);
    auto analysis = webrbd::ExtractCandidateTags(*tree, base.candidate_options);
    if (!analysis.ok()) return analysis.status();
    region = analysis->subtree;
  }

  std::optional<webrbd::TextIndex> index;
  webrbd::DataRecordTable table;
  if (has_rules) {
    {
      ScopedSpan span(tracer, "extract.text_index", id);
      index.emplace(*tree, *region);
    }
    webrbd::DataRecordTable text_table;
    {
      ScopedSpan span(tracer, "extract.recognize", id);
      text_table = context.recognizer().Recognize(index->text());
    }
    counts.recognized_bytes += index->text().size();
    ScopedSpan span(tracer, "extract.drt", id);
    std::vector<webrbd::DataRecordEntry> repositioned;
    repositioned.reserve(text_table.size());
    for (webrbd::DataRecordEntry entry : text_table.entries()) {
      entry.begin = index->ToDocumentOffset(entry.begin);
      entry.end = index->ToDocumentOffset(entry.end);
      repositioned.push_back(std::move(entry));
    }
    table = webrbd::DataRecordTable(std::move(repositioned));
    counts.drt_entries += table.size();
  }

  std::string separator;
  if (reapplied.has_value()) {
    webrbd::DiscoveryResult diagnostics = memoized->discovery;
    (void)diagnostics;
    separator = memoized->separator;
  } else {
    webrbd::StandaloneDiscoveryOptions discovery_options(base);
    discovery_options.estimator =
        std::make_shared<webrbd::FixedRecordCountEstimator>(
            EstimateFromTable(context.ontology(), table));
    ++counts.discover_calls;
    auto discovery =
        TracedDiscover(std::move(discovery_options), *tree, tracer, id);
    if (!discovery.ok()) return discovery.status();
    if (cache != nullptr) {
      ScopedSpan span(tracer, "template_cache.capture", id);
      captured = std::make_shared<const webrbd::BoundaryArtifact>(
          webrbd::CaptureBoundaryArtifact(*tree, *region, discovery.value()));
    }
    separator = discovery->separator;
  }

  std::vector<size_t> cuts;
  {
    ScopedSpan span(tracer, "extract.cuts", id);
    cuts = index.has_value() ? index->SeparatorPositions(separator)
                             : webrbd::TextIndex::SeparatorPositionsInRegion(
                                   *tree, *region, separator);
  }
  Status finished = Finish(context, table, separator, cuts, document_index,
                           staging, tracer, id, counts);
  if (!finished.ok()) return finished;
  if (captured != nullptr) {
    ScopedSpan span(tracer, "template_cache.capture", id);
    cache->Put(fingerprint, std::move(captured));
  }
  return separator;
}

}  // namespace

Status TimedSink::Write(const PopulatedRecord& record) {
  ScopedSpan span(*tracer_, "sink.write", record.document_index);
  return inner_->Write(record);
}

Status TimedSink::Flush() {
  ScopedSpan span(*tracer_, "sink.flush", 0);
  return inner_->Flush();
}

CorpusReplay ReplayCorpus(const ReplayTarget& target,
                          const std::vector<std::string_view>& pages,
                          webrbd::RecordSink& sink, Tracer& tracer,
                          int64_t first_id, ReplayCounts& counts) {
  CorpusReplay replay;
  replay.separators.resize(pages.size());
  replay.records.resize(pages.size());
  webrbd::DocumentArena arena;
  for (size_t i = 0; i < pages.size(); ++i) {
    arena.Reset();
    webrbd::BufferSink staging;
    auto separator =
        ReplayDocument(target, pages[i], arena, static_cast<uint32_t>(i),
                       staging, tracer, first_id + static_cast<int64_t>(i),
                       counts);
    if (!separator.ok()) continue;
    replay.separators[i] = std::move(separator).value();
    replay.records[i] = staging.TakeRecords();
  }
  TimedSink timed(&sink, &tracer);
  {
    ScopedSpan tail(tracer, "sink.delivery_tail", first_id);
    for (size_t i = 0; i < pages.size() && replay.sink_ok; ++i) {
      if (replay.separators[i].empty()) continue;
      for (const PopulatedRecord& record : replay.records[i]) {
        if (!timed.Write(record).ok()) {
          replay.sink_ok = false;
          break;
        }
      }
    }
  }
  if (replay.sink_ok && !timed.Flush().ok()) replay.sink_ok = false;
  return replay;
}

}  // namespace perfbench
