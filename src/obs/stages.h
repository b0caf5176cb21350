// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The documented metric catalog for the Figure-1 pipeline, the thread
// pool, and the recognizer cache — names plus pre-resolved pointer
// bundles so hot paths never do a by-name registry lookup. Every name
// here is part of the public observability contract (docs/observability.md)
// and is asserted present by CI's metrics-snapshot check.

#ifndef WEBRBD_OBS_STAGES_H_
#define WEBRBD_OBS_STAGES_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace webrbd {
namespace obs {

namespace metric_names {

// Per-stage latency histograms (seconds). "stage" = one step of the
// integrated per-document pipeline (extract/extraction_context.h).
inline constexpr std::string_view kStageLex = "webrbd_stage_lex_seconds";
inline constexpr std::string_view kStageTreeBuild =
    "webrbd_stage_tree_build_seconds";
inline constexpr std::string_view kStageCandidates =
    "webrbd_stage_candidates_seconds";
inline constexpr std::string_view kStageHeuristicOm =
    "webrbd_stage_heuristic_om_seconds";
inline constexpr std::string_view kStageHeuristicRp =
    "webrbd_stage_heuristic_rp_seconds";
inline constexpr std::string_view kStageHeuristicSd =
    "webrbd_stage_heuristic_sd_seconds";
inline constexpr std::string_view kStageHeuristicIt =
    "webrbd_stage_heuristic_it_seconds";
inline constexpr std::string_view kStageHeuristicHt =
    "webrbd_stage_heuristic_ht_seconds";
inline constexpr std::string_view kStageCombine =
    "webrbd_stage_combine_seconds";
inline constexpr std::string_view kStageRecognize =
    "webrbd_stage_recognize_seconds";
inline constexpr std::string_view kStageDrt = "webrbd_stage_drt_seconds";
inline constexpr std::string_view kStageDbGen = "webrbd_stage_dbgen_seconds";
inline constexpr std::string_view kStageDocument =
    "webrbd_stage_document_seconds";

// Pipeline volume.
inline constexpr std::string_view kPipelineDocuments =
    "webrbd_pipeline_documents_total";

// Thread pool (util/thread_pool.h). Aggregated across all pool instances.
inline constexpr std::string_view kPoolQueueDepth = "webrbd_pool_queue_depth";
inline constexpr std::string_view kPoolWorkers = "webrbd_pool_workers";
inline constexpr std::string_view kPoolUtilization =
    "webrbd_pool_utilization";
inline constexpr std::string_view kPoolTasks = "webrbd_pool_tasks_total";
inline constexpr std::string_view kPoolInlineRuns =
    "webrbd_pool_inline_runs_total";
inline constexpr std::string_view kPoolBusyNanos =
    "webrbd_pool_busy_nanos_total";
inline constexpr std::string_view kPoolSubmitBlock =
    "webrbd_pool_submit_block_seconds";

// Recognizer cache (extract/recognizer_cache.h). Process-wide totals
// across every cache instance.
inline constexpr std::string_view kRcacheHits = "webrbd_rcache_hits_total";
inline constexpr std::string_view kRcacheMisses =
    "webrbd_rcache_misses_total";
inline constexpr std::string_view kRcacheCompile =
    "webrbd_rcache_compile_seconds";

// Robustness layer (robust/limits.h). Limit-trip counters record fatal
// per-document kResourceExhausted rejections by tripped cap; recovery
// counters record documents degraded-but-continued.
inline constexpr std::string_view kRobustTripDocBytes =
    "webrbd_robust_limit_trips_doc_bytes_total";
inline constexpr std::string_view kRobustTripTokens =
    "webrbd_robust_limit_trips_tokens_total";
inline constexpr std::string_view kRobustTripDepth =
    "webrbd_robust_limit_trips_depth_total";
inline constexpr std::string_view kRobustTripAttrs =
    "webrbd_robust_limit_trips_attrs_total";
inline constexpr std::string_view kRobustTripAttrValue =
    "webrbd_robust_limit_trips_attr_value_total";
inline constexpr std::string_view kRobustTripRegexClosure =
    "webrbd_robust_limit_trips_regex_closure_total";
inline constexpr std::string_view kRobustLexerRecoveries =
    "webrbd_robust_lexer_recoveries_total";
inline constexpr std::string_view kRobustTripArenaBytes =
    "webrbd_robust_limit_trips_arena_bytes_total";

// HTML layer (html/arena.h): the tag-tree arena. arena_bytes is the bytes
// the most recent tree build left in use in its arena; intern_table_size
// is the distinct tag names in that arena's intern table.
inline constexpr std::string_view kHtmlArenaBytes = "webrbd_html_arena_bytes";
inline constexpr std::string_view kHtmlInternTableSize =
    "webrbd_html_intern_table_size";

// HTML layer (html/lexer.h): SWAR lexer volume. lexer_bytes/lexer_tokens
// count the bytes and tokens of every successfully lexed document (bytes /
// seconds-in-kStageLex gives live lexer throughput); lexer_name_spills
// counts mixed-case tag/attribute names that forced an arena-side
// lowercase copy instead of a zero-copy view of the source.
inline constexpr std::string_view kHtmlLexerBytes =
    "webrbd_html_lexer_bytes_total";
inline constexpr std::string_view kHtmlLexerTokens =
    "webrbd_html_lexer_tokens_total";
inline constexpr std::string_view kHtmlLexerNameSpills =
    "webrbd_html_lexer_name_spills_total";

// Template cache (extract/template_cache.h). Process-wide totals across
// every cache instance. hits = documents whose boundary was served from a
// memoized template; fallbacks = hits whose re-validation failed (the full
// rank ran anyway and refreshed the entry); evictions = entries dropped by
// LRU capacity pressure. size is the entry count of the most recently
// touched cache instance.
inline constexpr std::string_view kTemplateCacheHits =
    "webrbd_template_cache_hits_total";
inline constexpr std::string_view kTemplateCacheMisses =
    "webrbd_template_cache_misses_total";
inline constexpr std::string_view kTemplateCacheFallbacks =
    "webrbd_template_cache_fallbacks_total";
inline constexpr std::string_view kTemplateCacheEvictions =
    "webrbd_template_cache_evictions_total";
inline constexpr std::string_view kTemplateCacheSize =
    "webrbd_template_cache_size";

// Serving layer (serve/service.h, tools/webrbd_serve.cc). requests counts
// every HTTP request the daemon answered (all endpoints); inflight is the
// number of extractions currently holding an admission slot; rejected
// counts requests turned away with 503 by the admission gate; the request
// histogram spans request handling end to end (parse excluded, response
// serialization included); drain_seconds records each graceful drain's
// duration (stop-accepting to last in-flight request answered).
inline constexpr std::string_view kServeRequests =
    "webrbd_serve_requests_total";
inline constexpr std::string_view kServeInflight = "webrbd_serve_inflight";
inline constexpr std::string_view kServeRejected =
    "webrbd_serve_rejected_total";
inline constexpr std::string_view kServeRequestLatency =
    "webrbd_serve_request_seconds";
inline constexpr std::string_view kServeDrain = "webrbd_serve_drain_seconds";
inline constexpr std::string_view kServeReloads =
    "webrbd_serve_reloads_total";

// Persistent record store (store/record_store.h). Process-wide totals
// across every open store. pages_written/read count data-page I/O through
// the FileInterface (the superblock is excluded); flushes counts Flush()
// durability points (tail seal + sync); records counts appended records;
// torn_pages counts invalid tail pages dropped during open-time recovery.
// The query histogram spans Scan-iterator lifetimes (creation to
// exhaustion/destruction).
inline constexpr std::string_view kStorePagesWritten =
    "webrbd_store_pages_written_total";
inline constexpr std::string_view kStorePagesRead =
    "webrbd_store_pages_read_total";
inline constexpr std::string_view kStoreFlushes =
    "webrbd_store_flushes_total";
inline constexpr std::string_view kStoreRecords =
    "webrbd_store_records_written_total";
inline constexpr std::string_view kStoreTornPages =
    "webrbd_store_torn_pages_total";
inline constexpr std::string_view kStoreQueryLatency =
    "webrbd_store_query_seconds";

}  // namespace metric_names

/// Pre-resolved stage histograms for the integrated pipeline. All pointers
/// live in MetricsRegistry::Global() and are valid forever.
struct StageMetrics {
  Histogram* lex;
  Histogram* tree_build;
  Histogram* candidates;
  Histogram* heuristic_om;
  Histogram* heuristic_rp;
  Histogram* heuristic_sd;
  Histogram* heuristic_it;
  Histogram* heuristic_ht;
  Histogram* combine;
  Histogram* recognize;
  Histogram* drt;
  Histogram* dbgen;
  Histogram* document;
  Counter* documents;

  /// Histogram for a heuristic's two-letter paper name ("OM", "RP", "SD",
  /// "IT", "HT"); nullptr (an inert ScopedTimer) for unknown names.
  Histogram* ForHeuristic(std::string_view heuristic_name) const;
};

/// The global pipeline-stage bundle, resolved once.
const StageMetrics& Stages();

/// Pre-resolved thread-pool metrics.
struct PoolMetrics {
  Gauge* queue_depth;
  Gauge* workers;
  Gauge* utilization;
  Counter* tasks;
  Counter* inline_runs;
  Counter* busy_nanos;
  Histogram* submit_block;
};

const PoolMetrics& Pool();

/// Pre-resolved recognizer-cache metrics.
struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Histogram* compile;
};

const CacheMetrics& Cache();

/// Pre-resolved template-cache metrics (extract/template_cache.h).
struct TemplateCacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* fallbacks;
  Counter* evictions;
  Gauge* size;
};

const TemplateCacheMetrics& Templates();

/// Pre-resolved robustness-layer counters (robust/limits.h). The trip
/// counters map 1:1 to DocumentLimits caps; lexer_recoveries counts
/// unterminated-quote fallbacks that degraded a document without failing
/// it.
struct RobustMetrics {
  Counter* trip_doc_bytes;
  Counter* trip_tokens;
  Counter* trip_depth;
  Counter* trip_attrs;
  Counter* trip_attr_value;
  Counter* trip_regex_closure;
  Counter* trip_arena_bytes;
  Counter* lexer_recoveries;

  /// Sum of the fatal limit-trip counters (doc bytes, tokens, depth,
  /// arena bytes).
  uint64_t FatalTripTotal() const;
};

const RobustMetrics& Robust();

/// Pre-resolved HTML-layer metrics: tag-tree arena accounting gauges plus
/// the SWAR lexer volume counters.
struct HtmlMetrics {
  Gauge* arena_bytes;
  Gauge* intern_table_size;
  Counter* lexer_bytes;
  Counter* lexer_tokens;
  Counter* lexer_name_spills;
};

const HtmlMetrics& Html();

/// Pre-resolved serving-layer metrics (serve/service.h). Process-wide: a
/// process runs at most one daemon, but the totals also aggregate any
/// in-process ExtractionService instances tests construct.
struct ServeMetrics {
  Counter* requests;
  Gauge* inflight;
  Counter* rejected;
  Histogram* request_latency;
  Histogram* drain;
  Counter* reloads;
};

const ServeMetrics& Serve();

/// Pre-resolved record-store metrics (store/record_store.h).
struct StoreMetrics {
  Counter* pages_written;
  Counter* pages_read;
  Counter* flushes;
  Counter* records;
  Counter* torn_pages;
  Histogram* query_latency;
};

const StoreMetrics& Store();

/// Short display names for the per-stage latency table, paired with the
/// registry histogram names, in pipeline order.
struct StageName {
  std::string_view short_name;  ///< e.g. "lex"
  std::string_view metric;      ///< e.g. "webrbd_stage_lex_seconds"
};
const std::vector<StageName>& PipelineStageNames();

/// Every documented metric name (the observability contract): CI fails if
/// a snapshot after a batch run is missing any of these.
const std::vector<std::string>& AllDocumentedMetricNames();

/// Registers every documented metric in the global registry (idempotent),
/// so a Snapshot() carries the full catalog even when a run never touched
/// a subsystem (e.g. a 1-thread batch never exercises the pool).
void EnsureDocumentedMetricsRegistered();

}  // namespace obs
}  // namespace webrbd

#endif  // WEBRBD_OBS_STAGES_H_
