# Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
#
# ctest script: runs `webrbd_cli batch --metrics-out` and fails unless the
# snapshot carries every documented metric (the observability contract —
# keep the list in sync with src/obs/stages.h and docs/observability.md).
#
# Expects: -DWEBRBD_CLI=<path to webrbd_cli> -DOUT_DIR=<writable dir>

set(DOCUMENTED_METRICS
    webrbd_stage_lex_seconds
    webrbd_stage_tree_build_seconds
    webrbd_stage_candidates_seconds
    webrbd_stage_heuristic_om_seconds
    webrbd_stage_heuristic_rp_seconds
    webrbd_stage_heuristic_sd_seconds
    webrbd_stage_heuristic_it_seconds
    webrbd_stage_heuristic_ht_seconds
    webrbd_stage_combine_seconds
    webrbd_stage_recognize_seconds
    webrbd_stage_drt_seconds
    webrbd_stage_dbgen_seconds
    webrbd_stage_document_seconds
    webrbd_pipeline_documents_total
    webrbd_pool_queue_depth
    webrbd_pool_workers
    webrbd_pool_utilization
    webrbd_pool_tasks_total
    webrbd_pool_inline_runs_total
    webrbd_pool_busy_nanos_total
    webrbd_pool_submit_block_seconds
    webrbd_rcache_hits_total
    webrbd_rcache_misses_total
    webrbd_rcache_compile_seconds
    webrbd_template_cache_hits_total
    webrbd_template_cache_misses_total
    webrbd_template_cache_fallbacks_total
    webrbd_template_cache_evictions_total
    webrbd_template_cache_size
    webrbd_robust_limit_trips_doc_bytes_total
    webrbd_robust_limit_trips_tokens_total
    webrbd_robust_limit_trips_depth_total
    webrbd_robust_limit_trips_attrs_total
    webrbd_robust_limit_trips_attr_value_total
    webrbd_robust_limit_trips_regex_closure_total
    webrbd_robust_lexer_recoveries_total
    webrbd_html_lexer_bytes_total
    webrbd_html_lexer_tokens_total
    webrbd_html_lexer_name_spills_total
    webrbd_serve_requests_total
    webrbd_serve_inflight
    webrbd_serve_rejected_total
    webrbd_serve_request_seconds
    webrbd_serve_drain_seconds
    webrbd_serve_reloads_total
    webrbd_store_pages_written_total
    webrbd_store_pages_read_total
    webrbd_store_flushes_total
    webrbd_store_records_written_total
    webrbd_store_torn_pages_total
    webrbd_store_query_seconds)

set(json_file ${OUT_DIR}/metrics_out.json)
execute_process(
    COMMAND ${WEBRBD_CLI} batch --generate 24 --threads 2
            --metrics-out ${json_file}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "webrbd_cli batch --metrics-out exited with ${rc}")
endif()
file(READ ${json_file} json)
foreach(metric IN LISTS DOCUMENTED_METRICS)
  string(FIND "${json}" "\"${metric}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "metrics JSON is missing documented metric ${metric}")
  endif()
endforeach()
# The per-document stage histograms must have actually recorded spans: a
# 24-document batch leaves "count": 0 nowhere near the lex histogram.
string(FIND "${json}" "webrbd_stage_lex_seconds\": {\n      \"count\": 0" zero)
if(NOT zero EQUAL -1)
  message(FATAL_ERROR "lex stage recorded no spans")
endif()

# And the Prometheus rendering round-trips through the same flag.
set(prom_file ${OUT_DIR}/metrics_out.prom)
execute_process(
    COMMAND ${WEBRBD_CLI} batch --generate 6 --threads 2
            --metrics-out ${prom_file}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "webrbd_cli batch --metrics-out .prom exited with ${rc}")
endif()
file(READ ${prom_file} prom)
foreach(needle
        "# TYPE webrbd_stage_document_seconds histogram"
        "webrbd_stage_document_seconds_bucket{le=\"+Inf\"}"
        "webrbd_stage_document_seconds_count"
        "# TYPE webrbd_pipeline_documents_total counter")
  string(FIND "${prom}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "Prometheus output is missing: ${needle}")
  endif()
endforeach()
