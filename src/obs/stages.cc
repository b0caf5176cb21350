// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "obs/stages.h"

namespace webrbd {
namespace obs {

namespace mn = metric_names;

Histogram* StageMetrics::ForHeuristic(std::string_view heuristic_name) const {
  if (heuristic_name == "OM") return heuristic_om;
  if (heuristic_name == "RP") return heuristic_rp;
  if (heuristic_name == "SD") return heuristic_sd;
  if (heuristic_name == "IT") return heuristic_it;
  if (heuristic_name == "HT") return heuristic_ht;
  return nullptr;
}

const StageMetrics& Stages() {
  static const StageMetrics stages = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    StageMetrics s;
    s.lex = registry.GetHistogram(mn::kStageLex);
    s.tree_build = registry.GetHistogram(mn::kStageTreeBuild);
    s.candidates = registry.GetHistogram(mn::kStageCandidates);
    s.heuristic_om = registry.GetHistogram(mn::kStageHeuristicOm);
    s.heuristic_rp = registry.GetHistogram(mn::kStageHeuristicRp);
    s.heuristic_sd = registry.GetHistogram(mn::kStageHeuristicSd);
    s.heuristic_it = registry.GetHistogram(mn::kStageHeuristicIt);
    s.heuristic_ht = registry.GetHistogram(mn::kStageHeuristicHt);
    s.combine = registry.GetHistogram(mn::kStageCombine);
    s.recognize = registry.GetHistogram(mn::kStageRecognize);
    s.drt = registry.GetHistogram(mn::kStageDrt);
    s.dbgen = registry.GetHistogram(mn::kStageDbGen);
    s.document = registry.GetHistogram(mn::kStageDocument);
    s.documents = registry.GetCounter(mn::kPipelineDocuments);
    return s;
  }();
  return stages;
}

const PoolMetrics& Pool() {
  static const PoolMetrics pool = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    PoolMetrics p;
    p.queue_depth = registry.GetGauge(mn::kPoolQueueDepth);
    p.workers = registry.GetGauge(mn::kPoolWorkers);
    p.utilization = registry.GetGauge(mn::kPoolUtilization);
    p.tasks = registry.GetCounter(mn::kPoolTasks);
    p.inline_runs = registry.GetCounter(mn::kPoolInlineRuns);
    p.busy_nanos = registry.GetCounter(mn::kPoolBusyNanos);
    p.submit_block = registry.GetHistogram(mn::kPoolSubmitBlock);
    return p;
  }();
  return pool;
}

const CacheMetrics& Cache() {
  static const CacheMetrics cache = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    CacheMetrics c;
    c.hits = registry.GetCounter(mn::kRcacheHits);
    c.misses = registry.GetCounter(mn::kRcacheMisses);
    c.compile = registry.GetHistogram(mn::kRcacheCompile);
    return c;
  }();
  return cache;
}

const TemplateCacheMetrics& Templates() {
  static const TemplateCacheMetrics templates = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    TemplateCacheMetrics t;
    t.hits = registry.GetCounter(mn::kTemplateCacheHits);
    t.misses = registry.GetCounter(mn::kTemplateCacheMisses);
    t.fallbacks = registry.GetCounter(mn::kTemplateCacheFallbacks);
    t.evictions = registry.GetCounter(mn::kTemplateCacheEvictions);
    t.size = registry.GetGauge(mn::kTemplateCacheSize);
    return t;
  }();
  return templates;
}

uint64_t RobustMetrics::FatalTripTotal() const {
  return trip_doc_bytes->count() + trip_tokens->count() +
         trip_depth->count() + trip_arena_bytes->count();
}

const RobustMetrics& Robust() {
  static const RobustMetrics robust = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    RobustMetrics r;
    r.trip_doc_bytes = registry.GetCounter(mn::kRobustTripDocBytes);
    r.trip_tokens = registry.GetCounter(mn::kRobustTripTokens);
    r.trip_depth = registry.GetCounter(mn::kRobustTripDepth);
    r.trip_attrs = registry.GetCounter(mn::kRobustTripAttrs);
    r.trip_attr_value = registry.GetCounter(mn::kRobustTripAttrValue);
    r.trip_regex_closure = registry.GetCounter(mn::kRobustTripRegexClosure);
    r.trip_arena_bytes = registry.GetCounter(mn::kRobustTripArenaBytes);
    r.lexer_recoveries = registry.GetCounter(mn::kRobustLexerRecoveries);
    return r;
  }();
  return robust;
}

const HtmlMetrics& Html() {
  static const HtmlMetrics html = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    HtmlMetrics h;
    h.arena_bytes = registry.GetGauge(mn::kHtmlArenaBytes);
    h.intern_table_size = registry.GetGauge(mn::kHtmlInternTableSize);
    h.lexer_bytes = registry.GetCounter(mn::kHtmlLexerBytes);
    h.lexer_tokens = registry.GetCounter(mn::kHtmlLexerTokens);
    h.lexer_name_spills = registry.GetCounter(mn::kHtmlLexerNameSpills);
    return h;
  }();
  return html;
}

const ServeMetrics& Serve() {
  static const ServeMetrics serve = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    ServeMetrics s;
    s.requests = registry.GetCounter(mn::kServeRequests);
    s.inflight = registry.GetGauge(mn::kServeInflight);
    s.rejected = registry.GetCounter(mn::kServeRejected);
    s.request_latency = registry.GetHistogram(mn::kServeRequestLatency);
    s.drain = registry.GetHistogram(mn::kServeDrain);
    s.reloads = registry.GetCounter(mn::kServeReloads);
    return s;
  }();
  return serve;
}

const StoreMetrics& Store() {
  static const StoreMetrics store = []() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    StoreMetrics s;
    s.pages_written = registry.GetCounter(mn::kStorePagesWritten);
    s.pages_read = registry.GetCounter(mn::kStorePagesRead);
    s.flushes = registry.GetCounter(mn::kStoreFlushes);
    s.records = registry.GetCounter(mn::kStoreRecords);
    s.torn_pages = registry.GetCounter(mn::kStoreTornPages);
    s.query_latency = registry.GetHistogram(mn::kStoreQueryLatency);
    return s;
  }();
  return store;
}

const std::vector<StageName>& PipelineStageNames() {
  static const std::vector<StageName> names = {
      {"lex", mn::kStageLex},
      {"tree", mn::kStageTreeBuild},
      {"candidates", mn::kStageCandidates},
      {"heuristic:OM", mn::kStageHeuristicOm},
      {"heuristic:RP", mn::kStageHeuristicRp},
      {"heuristic:SD", mn::kStageHeuristicSd},
      {"heuristic:IT", mn::kStageHeuristicIt},
      {"heuristic:HT", mn::kStageHeuristicHt},
      {"combine", mn::kStageCombine},
      {"recognize", mn::kStageRecognize},
      {"drt", mn::kStageDrt},
      {"dbgen", mn::kStageDbGen},
      {"document", mn::kStageDocument},
  };
  return names;
}

const std::vector<std::string>& AllDocumentedMetricNames() {
  static const std::vector<std::string> names = []() {
    std::vector<std::string> all;
    for (const StageName& stage : PipelineStageNames()) {
      all.emplace_back(stage.metric);
    }
    for (std::string_view name :
         {mn::kPipelineDocuments, mn::kPoolQueueDepth, mn::kPoolWorkers,
          mn::kPoolUtilization, mn::kPoolTasks, mn::kPoolInlineRuns,
          mn::kPoolBusyNanos, mn::kPoolSubmitBlock, mn::kRcacheHits,
          mn::kRcacheMisses, mn::kRcacheCompile, mn::kTemplateCacheHits,
          mn::kTemplateCacheMisses, mn::kTemplateCacheFallbacks,
          mn::kTemplateCacheEvictions, mn::kTemplateCacheSize,
          mn::kRobustTripDocBytes,
          mn::kRobustTripTokens, mn::kRobustTripDepth, mn::kRobustTripAttrs,
          mn::kRobustTripAttrValue, mn::kRobustTripRegexClosure,
          mn::kRobustTripArenaBytes, mn::kRobustLexerRecoveries,
          mn::kHtmlArenaBytes, mn::kHtmlInternTableSize, mn::kHtmlLexerBytes,
          mn::kHtmlLexerTokens, mn::kHtmlLexerNameSpills, mn::kServeRequests,
          mn::kServeInflight, mn::kServeRejected, mn::kServeRequestLatency,
          mn::kServeDrain, mn::kServeReloads, mn::kStorePagesWritten,
          mn::kStorePagesRead, mn::kStoreFlushes, mn::kStoreRecords,
          mn::kStoreTornPages, mn::kStoreQueryLatency}) {
      all.emplace_back(name);
    }
    return all;
  }();
  return names;
}

void EnsureDocumentedMetricsRegistered() {
  Stages();
  Pool();
  Cache();
  Templates();
  Robust();
  Html();
  Serve();
  Store();
}

}  // namespace obs
}  // namespace webrbd
