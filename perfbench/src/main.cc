// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// webrbd_bench: the in-process half of the benchmark (perfbench/run.py is
// the entry point and drives the serving daemon).
//
//   webrbd_bench corpus --workload corpus_full|template_skew --seed N
//                       --seconds S --trace 0|1 --out DIR
//   webrbd_bench serve-prep --seed N --out DIR
//   webrbd_bench serve-throughput --seed N --passes N
//   webrbd_bench serve-check --store FILE --expected FILE --seed N
//                            --trace 0|1
//   webrbd_bench serve-replay --requests FILE --acks FILE --pages FILE
//                             --doc-requests N --out DIR
//   webrbd_bench selftest
//
// Every mode prints one JSON object as its last stdout line and exits 0
// only when every correctness gate it owns passed.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gen/template_skew.h"
#include "obs/metrics.h"
#include "ontology/parser.h"
#include "serve/http.h"
#include "serve/json_util.h"
#include "serve/service.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace gen = webrbd::gen;
using webrbd::BatchRunOptions;
using webrbd::ContextOptions;
using webrbd::ExtractionContext;
using webrbd::Result;
using webrbd::Status;

// ---- Output ----------------------------------------------------------------

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Gate failures collected over a run; any one makes the run incorrect.
struct Gates {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return failures.empty(); }
};

int PrintResult(const Gates& gates, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              gates.ok() ? "true" : "false", attempted, failed,
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return gates.ok() ? 0 : 1;
}

// ---- Arguments -------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

bool ParseArgs(int argc, char** argv, int first, Args* args) {
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return false;
    }
    args->values[argv[i] + 2] = argv[i + 1];
  }
  return true;
}

// ---- Corpus workloads ------------------------------------------------------

/// The inputs and contexts of corpus_full or template_skew. Contexts
/// borrow the ontologies in `domains`, so the vector is never resized after
/// they are created.
struct CorpusWorkload {
  std::string name;
  std::vector<DomainCorpus> domains;
  gen::TemplateSkewCorpus skew;  // template_skew only
  int threads = 1;
  size_t bytes = 0;
  size_t documents = 0;
  webrbd::TemplateCache cache;
  std::vector<ExtractionContext> contexts;
};

void MakeInputs(const std::string& name, uint64_t seed, CorpusWorkload* w) {
  w->name = name;
  if (name == "corpus_full") {
    w->domains = MakeFullCorpus(seed);
    w->threads = 1;
  } else {
    gen::TemplateSkewOptions options;
    options.num_templates = 100;
    options.num_pages = 3700;
    options.seed = seed;
    w->skew = gen::GenerateTemplateSkewCorpus(options);
    DomainCorpus corpus;
    corpus.ontology = StructureOnlyOntology();
    for (const std::string& page : w->skew.pages) {
      corpus.pages.emplace_back(page);
      corpus.bytes += page.size();
    }
    w->domains.push_back(std::move(corpus));
    w->threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  for (const DomainCorpus& d : w->domains) {
    w->bytes += d.bytes;
    w->documents += d.pages.size();
  }
}

/// Set-up as a user pays it: compile every context from a cold recognizer
/// cache and create the output store (into `*store`). Returns the seconds
/// taken.
double SetUp(CorpusWorkload* w, const std::string& store_path,
             std::unique_ptr<webrbd::store::RecordStore>* store, Gates* gates) {
  webrbd::RecognizerCache cold;
  const double start = NowSeconds();
  w->contexts.clear();
  for (const DomainCorpus& d : w->domains) {
    ContextOptions options;
    options.cache = &cold;
    options.template_cache = &w->cache;
    auto context = ExtractionContext::Create(d.ontology, options);
    if (!context.ok()) {
      gates->Check(false, "context: " + context.status().ToString());
      return 0;
    }
    w->contexts.push_back(std::move(context).value());
  }
  auto created = CreateStore(store_path);
  const double stop = NowSeconds();
  gates->Check(created.ok(), "store create");
  if (created.ok()) *store = std::move(created).value();
  return stop - start;
}

/// One untraced pass: every domain through ExtractCorpusInto into one
/// StoreSink over the fresh POSIX store `SetUp` created.
struct Pass {
  double seconds = 0;
  uint64_t digest = 0;
  uint64_t records = 0;
  uint64_t failed = 0;
  uint64_t misses = 0;
  std::vector<std::vector<std::string>> separators;  // [domain][doc]
  std::vector<uint64_t> records_per_domain;
  std::vector<double> doc_latencies_s;
  double first_start_s = 0;
  double docs_max_over_mean = 0;
  double pool_utilization = 0;
  bool ok = true;
};

Pass RunPass(CorpusWorkload* w, webrbd::store::RecordStore* store) {
  Pass pass;
  w->cache.Clear();
  webrbd::StoreSink store_sink(store);
  DigestSink sink(&store_sink);
  std::map<std::thread::id, int> thread_docs;
  for (size_t d = 0; d < w->domains.size(); ++d) {
    const std::vector<std::string_view>& pages = w->domains[d].pages;
    std::vector<int64_t> stamps(pages.size(), 0);
    std::vector<std::thread::id> owners(pages.size());
    BatchRunOptions run;
    run.num_threads = w->threads;
    run.document_hook = [&stamps, &owners](size_t i) {
      stamps[i] = NowNs();
      owners[i] = std::this_thread::get_id();
    };
    const uint64_t before = sink.count();
    const int64_t start = NowNs();
    auto outcome = w->contexts[d].ExtractCorpusInto(pages, sink, run);
    const int64_t stop = NowNs();
    pass.seconds += static_cast<double>(stop - start) * 1e-9;
    if (!outcome.ok()) {
      pass.ok = false;
      return pass;
    }
    pass.failed += outcome->stats.failed;
    pass.pool_utilization = outcome->stats.pool_utilization;
    pass.records_per_domain.push_back(sink.count() - before);
    std::vector<std::string> separators;
    for (const auto& doc : outcome->documents) {
      separators.push_back(doc.ok() ? doc->separator : "");
    }
    pass.separators.push_back(std::move(separators));
    int64_t first = stop;
    for (size_t i = 0; i < pages.size(); ++i) {
      first = std::min(first, stamps[i]);
      ++thread_docs[owners[i]];
      if (i + 1 < pages.size() && owners[i + 1] == owners[i] &&
          stamps[i + 1] > stamps[i]) {
        pass.doc_latencies_s.push_back(
            static_cast<double>(stamps[i + 1] - stamps[i]) * 1e-9);
      }
    }
    pass.first_start_s += static_cast<double>(first - start) * 1e-9;
  }
  pass.misses = w->cache.misses();
  pass.digest = sink.digest();
  pass.records = sink.count();
  double max_docs = 0;
  double total_docs = 0;
  for (const auto& [owner, docs] : thread_docs) {
    max_docs = std::max(max_docs, static_cast<double>(docs));
    total_docs += docs;
  }
  pass.docs_max_over_mean =
      thread_docs.empty()
          ? 0
          : max_docs / (total_docs / static_cast<double>(thread_docs.size()));
  return pass;
}

/// Reference outcome for template_skew's quality metrics: the same pages
/// with memoization off, so every boundary comes from the full rank.
struct Reference {
  std::vector<std::string> separators;
  std::vector<std::vector<PopulatedRecord>> records;
};

Reference SkewReference(const CorpusWorkload& w, Gates* gates) {
  Reference ref;
  ContextOptions options;
  options.template_memoization = webrbd::TemplateMemoization::kNever;
  auto context = ExtractionContext::Create(w.domains[0].ontology, options);
  if (!context.ok()) {
    gates->Check(false, "reference context");
    return ref;
  }
  webrbd::BufferSink buffer;
  BatchRunOptions run;
  run.num_threads = w.threads;
  auto outcome = context->ExtractCorpusInto(w.domains[0].pages, buffer, run);
  gates->Check(outcome.ok(), "reference extraction");
  if (!outcome.ok()) return ref;
  ref.records.resize(w.domains[0].pages.size());
  for (const auto& doc : outcome->documents) {
    ref.separators.push_back(doc.ok() ? doc->separator : "");
  }
  for (const PopulatedRecord& record : buffer.records()) {
    ref.records[record.document_index].push_back(record);
  }
  return ref;
}

/// Scores the stored records of the last pass: against the generator's
/// ground truth (corpus_full) or the memoization-off reference
/// (template_skew).
Quality ScoreStored(const CorpusWorkload& w, const Pass& pass,
                    const std::vector<PopulatedRecord>& stored,
                    const Reference* reference) {
  Quality quality;
  size_t offset = 0;
  for (size_t d = 0; d < w.domains.size(); ++d) {
    const DomainCorpus& domain = w.domains[d];
    std::vector<std::vector<PopulatedRecord>> per_doc(domain.pages.size());
    for (uint64_t k = 0; k < pass.records_per_domain[d]; ++k) {
      const PopulatedRecord& record = stored[offset + k];
      if (record.document_index < per_doc.size()) {
        per_doc[record.document_index].push_back(record);
      }
    }
    offset += pass.records_per_domain[d];
    for (size_t i = 0; i < domain.pages.size(); ++i) {
      if (reference != nullptr) {
        quality.ScoreAgainst(reference->records[i], reference->separators[i],
                             pass.separators[d][i], per_doc[i]);
      } else {
        quality.ScoreDocument(domain.docs[i], pass.separators[d][i],
                              per_doc[i]);
      }
    }
  }
  return quality;
}

// Ground-truth floors for corpus_full. HEAD scores well above them on
// every seed tried; a change that breaks boundaries or fields falls below.
constexpr double kMinSeparatorAccuracy = 0.85;
constexpr double kMinFieldF1 = 0.75;

constexpr size_t kQueries = 12000;

/// The traced per-layer numbers of one replay pass.
struct TracedPass {
  double wall_s = 0;
  double document_s = 0;
  double document_self_s = 0;
  std::map<std::string, double> self;
  ReplayCounts counts;
  uint64_t digest = 0;
  uint64_t misses = 0;
  uint64_t bytes_written = 0;
  uint64_t pages_written = 0;
  bool ok = true;
};

/// Adds the self time of every span to its name, and the document spans'
/// wall and self time to the pass totals.
void Accumulate(const std::vector<Span>& spans, TracedPass* pass) {
  const std::vector<double> self = SelfSeconds(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    pass->self[spans[i].name] += self[i];
    if (std::strcmp(spans[i].name, "document") == 0) {
      pass->document_s +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
      pass->document_self_s += self[i];
    }
  }
}

TracedPass RunTracedPass(CorpusWorkload* w, const std::string& store_path,
                         Tracer* tracer) {
  TracedPass pass;
  tracer->Clear();
  w->cache.Clear();
  CountingFile* counter = nullptr;
  auto store = CreateStore(store_path, &counter);
  if (!store.ok()) {
    pass.ok = false;
    return pass;
  }
  webrbd::StoreSink store_sink(store->get());
  DigestSink sink(&store_sink);
  const int64_t start = NowNs();
  int64_t next_id = 0;
  for (size_t d = 0; d < w->domains.size(); ++d) {
    ReplayTarget target{&w->contexts[d], &w->cache};
    CorpusReplay replay = ReplayCorpus(target, w->domains[d].pages, sink,
                                       *tracer, next_id, pass.counts);
    next_id += static_cast<int64_t>(w->domains[d].pages.size());
    if (!replay.sink_ok) pass.ok = false;
  }
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  pass.misses = w->cache.misses();
  pass.digest = sink.digest();
  pass.bytes_written = counter->bytes_written();
  pass.pages_written = counter->pages_written();
  Accumulate(tracer->spans(), &pass);
  return pass;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-layer metric set shared by every workload's traced run, filled
/// from one traced pass summary (medians are taken by the caller).
std::vector<Metric> LayerMetrics(const std::vector<TracedPass>& passes) {
  auto median_of = [&](auto getter) {
    std::vector<double> values;
    for (const TracedPass& pass : passes) values.push_back(getter(pass));
    return Median(values);
  };
  auto self = [&](const char* name) {
    return median_of([name](const TracedPass& p) {
      auto it = p.self.find(name);
      return it == p.self.end() ? 0.0 : it->second;
    });
  };
  std::vector<Metric> m;
  m.push_back({"html.lex_balance_s", self("html.lex_balance"), "s"});
  m.push_back({"html.lex_balance_mb_s", median_of([](const TracedPass& p) {
                 auto it = p.self.find("html.lex_balance");
                 return it == p.self.end()
                            ? 0.0
                            : Ratio(p.counts.input_bytes / 1e6, it->second);
               }),
               "MB/s"});
  m.push_back({"html.tree_build_s", self("html.tree_build"), "s"});
  m.push_back({"html.tokens", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.tokens);
               }),
               "count"});
  m.push_back({"template_cache.fingerprint_s",
               self("template_cache.fingerprint"), "s"});
  m.push_back({"template_cache.reapply_s", self("template_cache.reapply"),
               "s"});
  m.push_back({"template_cache.lookup_s", self("template_cache.lookup"), "s"});
  m.push_back({"template_cache.capture_s", self("template_cache.capture"),
               "s"});
  m.push_back({"template_cache.lookups", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.lookups);
               }),
               "count"});
  m.push_back({"template_cache.hit_ratio", median_of([](const TracedPass& p) {
                 return Ratio(static_cast<double>(p.counts.hits),
                              static_cast<double>(p.counts.lookups));
               }),
               "ratio"});
  m.push_back({"template_cache.fallbacks", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.fallbacks);
               }),
               "count"});
  m.push_back({"core.candidates_s", self("core.candidates"), "s"});
  m.push_back({"core.discover_s", self("core.discover"), "s"});
  m.push_back({"core.heuristic_om_s", self("core.heuristic.om"), "s"});
  m.push_back({"core.heuristic_sd_s", self("core.heuristic.sd"), "s"});
  m.push_back({"core.heuristic_it_s", self("core.heuristic.it"), "s"});
  m.push_back({"core.heuristic_ht_s", self("core.heuristic.ht"), "s"});
  m.push_back({"core.heuristic_rp_s", self("core.heuristic.rp"), "s"});
  m.push_back({"core.discover_calls", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.discover_calls);
               }),
               "count"});
  m.push_back({"extract.text_index_s", self("extract.text_index"), "s"});
  m.push_back({"extract.recognize_s", self("extract.recognize"), "s"});
  m.push_back({"extract.recognize_mb_s", median_of([](const TracedPass& p) {
                 auto it = p.self.find("extract.recognize");
                 return it == p.self.end()
                            ? 0.0
                            : Ratio(p.counts.recognized_bytes / 1e6, it->second);
               }),
               "MB/s"});
  m.push_back({"extract.recognize_share", median_of([](const TracedPass& p) {
                 auto it = p.self.find("extract.recognize");
                 return it == p.self.end() ? 0.0
                                           : Ratio(it->second, p.document_s);
               }),
               "ratio"});
  m.push_back({"extract.drt_s", self("extract.drt"), "s"});
  m.push_back({"extract.drt_entries", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.drt_entries);
               }),
               "count"});
  m.push_back({"extract.cuts_s", self("extract.cuts"), "s"});
  m.push_back({"extract.dbgen_s", self("extract.dbgen"), "s"});
  m.push_back({"extract.records", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.counts.records);
               }),
               "count"});
  m.push_back({"sink.write_s", self("sink.write"), "s"});
  m.push_back({"sink.flush_s", self("sink.flush"), "s"});
  m.push_back({"sink.delivery_tail_s", self("sink.delivery_tail"), "s"});
  m.push_back({"store.bytes_written", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.bytes_written);
               }),
               "bytes"});
  m.push_back({"store.pages_written", median_of([](const TracedPass& p) {
                 return static_cast<double>(p.pages_written);
               }),
               "count"});
  m.push_back({"trace.unattributed_ratio", median_of([](const TracedPass& p) {
                 return Ratio(p.document_self_s, p.document_s);
               }),
               "ratio"});
  return m;
}

void AppendServeZeros(std::vector<Metric>* m) {
  m->push_back({"serve.http_parse_s", 0, "s"});
  m->push_back({"serve.handle_p50_ms", 0, "ms"});
  m->push_back({"serve.handle_p99_ms", 0, "ms"});
  m->push_back({"serve.serialize_s", 0, "s"});
  m->push_back({"serve.outside_handle_p50_ms", 0, "ms"});
  m->push_back({"serve.rejected_503", 0, "count"});
  m->push_back({"loadgen.late_p99_ms", 0, "ms"});
}

/// Store queries per pass; samples pool across the passes of a run.
constexpr size_t kQueriesPerPass = 500;

int RunCorpus(const Args& args) {
  const std::string name = args.Get("workload");
  const uint64_t seed = args.GetU64("seed", 1);
  const double seconds = static_cast<double>(args.GetU64("seconds", 10));
  const bool trace = args.Get("trace", "0") == "1";
  const fs::path out = args.Get("out", ".");
  if (name != "corpus_full" && name != "template_skew") {
    std::fprintf(stderr, "unknown corpus workload %s\n", name.c_str());
    return 2;
  }
  const double run_start = NowSeconds();
  Gates gates;
  CorpusWorkload w;
  MakeInputs(name, seed, &w);
  const std::string store_path = (out / (name + ".store")).string();
  const int distinct = name == "template_skew" ? w.skew.distinct_templates_used : -1;

  // Untraced passes. Each repeats the set-up (cold recognizer cache, new
  // store), extracts the corpus, checks the reopened store and runs a
  // slice of the query phase, so set-up, extraction and query samples all
  // spread over the whole run. Traced runs spend a quarter of the time
  // here, on one thread like the replay: the overhead baseline and the
  // digest reference (delivery is thread-count independent).
  const int batch_threads = w.threads;
  if (trace) w.threads = 1;
  const double untraced_end = run_start + seconds * (trace ? 0.25 : 0.9);
  std::vector<double> setups;
  std::vector<Pass> passes;
  std::vector<double> query_us;
  std::vector<PopulatedRecord> stored;
  uint64_t returned = 0;
  uint64_t decoded = 0;
  while (passes.size() < 3 || NowSeconds() < untraced_end) {
    std::unique_ptr<webrbd::store::RecordStore> store;
    setups.push_back(SetUp(&w, store_path, &store, &gates));
    if (!gates.ok()) return PrintResult(gates, 1, 1, {});
    passes.push_back(RunPass(&w, store.get()));
    store.reset();
    const Pass& pass = passes.back();
    gates.Check(pass.ok, "pass: extraction or sink failed");
    if (!pass.ok) return PrintResult(gates, 1, 1, {});
    gates.Check(pass.digest == passes.front().digest &&
                    pass.records == passes.front().records,
                "every pass delivers the same records");
    if (distinct >= 0) {
      gates.Check(pass.misses >= static_cast<uint64_t>(distinct),
                  "template_skew misses >= distinct_templates_used");
    }
    // The reopened store must hold exactly the acknowledged records.
    auto reopened = ReopenStore(store_path);
    gates.Check(reopened.ok(), "store reopen");
    if (!reopened.ok()) return PrintResult(gates, 1, 1, {});
    auto records = ReadAll(**reopened);
    gates.Check(records.ok(), "store scan");
    if (!records.ok()) return PrintResult(gates, 1, 1, {});
    uint64_t digest = 14695981039346656037ull;
    for (const PopulatedRecord& record : *records) {
      digest = FoldRecord(digest, record);
    }
    gates.Check(records->size() == pass.records && digest == pass.digest,
                "reopened store returns exactly the acknowledged records");
    stored = std::move(records).value();
    QueryPhase queries =
        RunQueries(**reopened, seed * 1000003 + passes.size(), kQueriesPerPass,
                   trace);
    gates.Check(queries.ok, "query phase");
    query_us.insert(query_us.end(), queries.latencies_us.begin(),
                    queries.latencies_us.end());
    returned += queries.returned;
    decoded += queries.decoded;
    if (!gates.ok() || passes.size() >= 400) break;
  }
  const Pass& last = passes.back();

  Reference reference;
  if (name == "template_skew") reference = SkewReference(w, &gates);
  const Quality quality = ScoreStored(
      w, last, stored, name == "template_skew" ? &reference : nullptr);
  if (name == "corpus_full") {
    gates.Check(quality.SeparatorAccuracy() >= kMinSeparatorAccuracy,
                "corpus_full separator accuracy vs ground truth");
    gates.Check(quality.F1() >= kMinFieldF1,
                "corpus_full field F1 vs ground truth");
  } else {
    gates.Check(quality.SeparatorAccuracy() == 1.0 && quality.F1() == 1.0,
                "template_skew matches the memoization-off extraction");
  }

  // Throughput over the run: all input over all ExtractCorpusInto time.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double extract_seconds = 0;
  std::vector<double> latencies;
  for (const Pass& pass : passes) {
    attempted += w.documents;
    failed += pass.failed;
    extract_seconds += pass.seconds;
    latencies.insert(latencies.end(), pass.doc_latencies_s.begin(),
                     pass.doc_latencies_s.end());
  }
  const double runs = static_cast<double>(passes.size());

  if (!trace) {
    std::vector<Metric> m;
    m.push_back({"setup_s", Median(setups), "s"});
    m.push_back({"corpus_mb_s",
                 runs * static_cast<double>(w.bytes) / 1e6 / extract_seconds,
                 "MB/s"});
    m.push_back({"field_f1", quality.F1(), "ratio"});
    m.push_back({"separator_accuracy", quality.SeparatorAccuracy(), "ratio"});
    m.push_back({"query_p50_us", Percentile(query_us, 0.5), "us"});
    m.push_back({"query_p99_us", Percentile(query_us, 0.99), "us"});
    m.push_back({"latency_p50_ms", Percentile(latencies, 0.5) * 1e3, "ms"});
    m.push_back({"latency_p99_ms", Percentile(latencies, 0.99) * 1e3, "ms"});
    m.push_back({"max_rate_per_s",
                 runs * static_cast<double>(w.documents) / extract_seconds,
                 "1/s"});
    m.push_back({"success_ratio",
                 static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted),
                 "ratio"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    std::error_code ignored;
    fs::remove(store_path, ignored);
    return PrintResult(gates, attempted, failed, m);
  }

  // Pool metrics: one more untraced pass, on the workload's threads, with
  // the library's own stage timing switched on, which
  // CorpusStats::pool_utilization needs.
  w.threads = batch_threads;
  std::unique_ptr<webrbd::store::RecordStore> pool_store;
  (void)SetUp(&w, store_path, &pool_store, &gates);
  webrbd::obs::SetMetricsEnabled(true);
  Pass pool_pass = RunPass(&w, pool_store.get());
  webrbd::obs::SetMetricsEnabled(false);
  pool_store.reset();
  gates.Check(pool_pass.ok, "pool pass");

  // Traced replay passes on one thread.
  Tracer tracer;
  std::vector<TracedPass> traced;
  std::vector<double> opens;
  const double traced_end = run_start + seconds - 0.5;
  while (traced.size() < 2 || NowSeconds() < traced_end) {
    traced.push_back(RunTracedPass(&w, store_path, &tracer));
    const TracedPass& pass = traced.back();
    gates.Check(pass.ok, "traced pass sink");
    gates.Check(pass.digest == last.digest,
                "traced replay records digest equals the untraced digest");
    if (distinct >= 0) {
      gates.Check(pass.misses == static_cast<uint64_t>(distinct),
                  "1-thread traced run misses == distinct_templates_used");
    }
    const double open_start = NowSeconds();
    auto reopened = ReopenStore(store_path);
    opens.push_back(NowSeconds() - open_start);
    gates.Check(reopened.ok(), "traced store reopen");
    if (!gates.ok() || traced.size() >= 100) break;
  }
  const std::string span_path =
      (out / ("spans-" + name + "-" + std::to_string(seed) + ".ndjson")).string();
  gates.Check(WriteSpansNdjson(span_path, tracer.spans()), "write spans");

  std::vector<double> traced_wall;
  for (const TracedPass& pass : traced) traced_wall.push_back(pass.wall_s);
  std::vector<double> untraced_wall;
  for (const Pass& pass : passes) untraced_wall.push_back(pass.seconds);

  std::vector<Metric> m = LayerMetrics(traced);
  m.push_back({"store.open_s", Median(opens), "s"});
  m.push_back({"store.query_useful_ratio",
               Ratio(static_cast<double>(returned), static_cast<double>(decoded)),
               "ratio"});
  m.push_back({"pool.utilization", pool_pass.pool_utilization, "ratio"});
  m.push_back({"pool.first_start_s", pool_pass.first_start_s, "s"});
  m.push_back({"pool.docs_max_over_mean", pool_pass.docs_max_over_mean,
               "ratio"});
  AppendServeZeros(&m);
  m.push_back({"trace.overhead_ratio",
               Median(traced_wall) / Median(untraced_wall) - 1.0, "ratio"});
  std::error_code ignored;
  fs::remove(store_path, ignored);
  return PrintResult(gates, attempted, failed, m);
}

// ---- serve_mixed helpers ---------------------------------------------------

constexpr size_t kServePoolPages = 160;

bool WriteBlobs(const std::string& path, const std::vector<std::string>& blobs) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& blob : blobs) {
    const uint64_t size = blob.size();
    char prefix[8];
    for (int i = 0; i < 8; ++i) prefix[i] = static_cast<char>((size >> (8 * i)) & 0xff);
    out.write(prefix, 8);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  return static_cast<bool>(out);
}

std::vector<std::string> ReadBlobs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> blobs;
  unsigned char prefix[8];
  while (in.read(reinterpret_cast<char*>(prefix), 8)) {
    uint64_t size = 0;
    for (int i = 0; i < 8; ++i) size |= static_cast<uint64_t>(prefix[i]) << (8 * i);
    std::string blob(size, '\0');
    if (!in.read(blob.data(), static_cast<std::streamsize>(size))) break;
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

/// Lines of whitespace-separated fields.
std::vector<std::vector<std::string>> ReadFieldLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::vector<std::string>> lines;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> values;
    std::string token;
    while (fields >> token) values.push_back(token);
    lines.push_back(std::move(values));
  }
  return lines;
}

/// Lines of whitespace-separated decimal integers.
std::vector<std::vector<uint64_t>> ReadNumberLines(const std::string& path) {
  std::vector<std::vector<uint64_t>> lines;
  for (const std::vector<std::string>& fields : ReadFieldLines(path)) {
    std::vector<uint64_t> values;
    for (const std::string& field : fields) {
      values.push_back(std::strtoull(field.c_str(), nullptr, 10));
    }
    lines.push_back(std::move(values));
  }
  return lines;
}

/// The serving context exactly as the daemon builds it: the bundled
/// obituaries DSL, parsed, with default context options.
struct ServeReference {
  webrbd::Ontology ontology;
  std::optional<ExtractionContext> context;
};

bool MakeServeReference(ServeReference* ref) {
  auto ontology =
      webrbd::ParseOntology(webrbd::BundledOntologyDsl(Domain::kObituaries));
  if (!ontology.ok()) return false;
  ref->ontology = std::move(ontology).value();
  auto context = ExtractionContext::Create(ref->ontology);
  if (!context.ok()) return false;
  ref->context.emplace(std::move(context).value());
  return true;
}

/// One answer the daemon may legitimately give for a page: the page's own
/// extraction (what /extract returns), or — on /extract-batch, whose
/// template cache is shared across requests — the extraction under the
/// boundary a template-mate memoized first.
struct Alternative {
  std::string render;
  std::string separator;
  std::vector<PopulatedRecord> records;
};

/// Extracts document `index` of `pages` through ExtractCorpusInto (one
/// thread, so earlier pages populate the cache first) or, when `pages`
/// has one page and `single` is set, through ExtractDocumentInto.
Result<Alternative> ExtractAlternative(const ExtractionContext& context,
                                       const std::vector<std::string_view>& pages,
                                       uint32_t index, bool single) {
  webrbd::CatalogSink catalog_sink(context.instance_generator());
  webrbd::BufferSink buffer;
  webrbd::TeeSink tee({&catalog_sink, &buffer});
  Result<webrbd::ExtractionOutcome> outcome = Status::Internal("unreached");
  if (single) {
    outcome = context.ExtractDocumentInto(pages[index], tee);
  } else {
    BatchRunOptions run;
    run.num_threads = 1;
    auto batch = context.ExtractCorpusInto(pages, tee, run);
    if (!batch.ok()) return batch.status();
    outcome = std::move(batch->documents[index]);
  }
  if (!outcome.ok()) return outcome.status();
  auto catalog = catalog_sink.TakeCatalog(single ? 0 : index);
  if (!catalog.ok()) return catalog.status();
  Alternative alt;
  alt.render = webrbd::serve::RenderExtractionJson(*outcome, *catalog);
  alt.separator = outcome->separator;
  for (const PopulatedRecord& record : buffer.records()) {
    if (record.document_index == (single ? 0 : index)) alt.records.push_back(record);
  }
  return alt;
}

std::string HexDigests(const std::vector<PopulatedRecord>& records) {
  std::string out;
  for (const PopulatedRecord& record : records) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, RecordContentDigest(record));
    if (!out.empty()) out += " ";
    out += hex;
  }
  return out;
}

int RunServePrep(const Args& args) {
  const uint64_t seed = args.GetU64("seed", 1);
  const fs::path out = args.Get("out", ".");
  Gates gates;
  const std::vector<gen::GeneratedDocument> pool =
      MakeServePool(seed, kServePoolPages);
  ServeReference ref;
  gates.Check(MakeServeReference(&ref), "serve reference context");
  if (!gates.ok()) return PrintResult(gates, 1, 1, {});
  webrbd::TemplateCache cache;
  ContextOptions batch_options;
  batch_options.template_cache = &cache;
  auto batch_context = ExtractionContext::Create(ref.ontology, batch_options);
  gates.Check(batch_context.ok(), "batch context");
  if (!gates.ok()) return PrintResult(gates, 1, 1, {});

  std::vector<std::string> pages;
  std::vector<std::string_view> views;
  for (const gen::GeneratedDocument& doc : pool) pages.push_back(doc.html);
  for (const std::string& page : pages) views.emplace_back(page);

  // Every page's own answer, and its template group (the fingerprint the
  // daemon's cache keys it by).
  std::vector<std::vector<Alternative>> alternatives(pages.size());
  std::map<uint64_t, std::vector<size_t>> groups;
  uint64_t failed = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    auto own = ExtractAlternative(*ref.context, {views[i]}, 0, true);
    if (!own.ok()) {
      ++failed;
      continue;
    }
    alternatives[i].push_back(std::move(own).value());
    webrbd::DocumentArena arena;
    auto balanced = webrbd::LexAndBalance(
        views[i], ref.context->options().discovery.limits, arena);
    if (!balanced.ok()) continue;
    groups[webrbd::PageFingerprint(balanced->tokens, balanced->symbols,
                                   arena.interner(),
                                   ref.context->template_salt())]
        .push_back(i);
  }
  gates.Check(failed == 0, "every pool page extracts in process");
  if (!gates.ok()) return PrintResult(gates, pool.size(), failed, {});

  // A template-mate q that discovered another separator memoizes it; a
  // later page p of the template is then served q's boundary.
  for (const auto& [fingerprint, members] : groups) {
    for (size_t p : members) {
      std::vector<std::string> seen = {alternatives[p][0].separator};
      for (size_t q : members) {
        const std::string& separator = alternatives[q][0].separator;
        if (std::find(seen.begin(), seen.end(), separator) != seen.end()) continue;
        seen.push_back(separator);
        cache.Clear();
        auto served = ExtractAlternative(*batch_context, {views[q], views[p]}, 1,
                                         false);
        gates.Check(served.ok(), "template-mate extraction");
        if (served.ok()) alternatives[p].push_back(std::move(served).value());
      }
    }
  }

  // alternatives.json for the load generator, alternatives.txt (record
  // digests only) for the store and replay gates.
  std::string json = "[";
  std::string text;
  for (size_t i = 0; i < pages.size(); ++i) {
    json += i == 0 ? "[" : ",[";
    for (size_t a = 0; a < alternatives[i].size(); ++a) {
      const Alternative& alt = alternatives[i][a];
      Quality quality;
      quality.ScoreDocument(pool[i], alt.separator, alt.records);
      json += (a == 0 ? "" : ",");
      json += "{\"render\":" + webrbd::serve::JsonString(alt.render) +
              ",\"separator_correct\":" +
              std::to_string(quality.separators_correct) +
              ",\"truth\":" + std::to_string(quality.truth) +
              ",\"extracted\":" + std::to_string(quality.extracted) +
              ",\"correct\":" + std::to_string(quality.correct) +
              ",\"digests\":\"" + HexDigests(alt.records) + "\"}";
      text += (a == 0 ? "" : " | ") + HexDigests(alt.records);
    }
    json += "]";
    text += "\n";
  }
  json += "]\n";
  std::ofstream((out / "alternatives.json").string()) << json;
  std::ofstream((out / "alternatives.txt").string()) << text;
  gates.Check(WriteBlobs((out / "pages.bin").string(), pages), "write pages");
  return PrintResult(gates, pool.size(), failed, {});
}

/// serve_mixed's corpus_mb_s samples: the page pool through
/// ExtractCorpusInto on one thread, memoization as the daemon's batch path
/// has it, a cold template cache per pass. Prints the input bytes and the
/// seconds taken over all passes.
int RunServeThroughput(const Args& args) {
  const uint64_t seed = args.GetU64("seed", 1);
  const uint64_t passes = args.GetU64("passes", 2);
  Gates gates;
  const std::vector<gen::GeneratedDocument> pool =
      MakeServePool(seed, kServePoolPages);
  ServeReference ref;
  gates.Check(MakeServeReference(&ref), "serve reference context");
  webrbd::TemplateCache cache;
  ContextOptions options;
  options.template_cache = &cache;
  auto context = ExtractionContext::Create(ref.ontology, options);
  gates.Check(context.ok(), "batch context");
  if (!gates.ok()) return PrintResult(gates, 1, 1, {});
  std::vector<std::string_view> views;
  double bytes = 0;
  for (const gen::GeneratedDocument& doc : pool) {
    views.emplace_back(doc.html);
    bytes += static_cast<double>(doc.html.size());
  }
  double seconds = 0;
  uint64_t failed = 0;
  for (uint64_t pass = 0; pass < passes; ++pass) {
    cache.Clear();
    webrbd::BufferSink sink;
    BatchRunOptions run;
    run.num_threads = 1;
    const double start = NowSeconds();
    auto outcome = context->ExtractCorpusInto(views, sink, run);
    seconds += NowSeconds() - start;
    gates.Check(outcome.ok(), "serve pool batch extraction");
    if (outcome.ok()) failed += outcome->stats.failed;
  }
  gates.Check(failed == 0, "every pool page extracts");
  return PrintResult(gates, passes * pool.size(), failed,
                     {{"pool_bytes", bytes * static_cast<double>(passes), "bytes"},
                      {"pool_seconds", seconds, "s"}});
}

/// Lines of "document_index hex_digest": the expected store content.
std::vector<std::pair<uint64_t, uint64_t>> ReadExpected(const std::string& path) {
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (const std::vector<std::string>& fields : ReadFieldLines(path)) {
    if (fields.size() != 2) continue;
    expected.emplace_back(std::strtoull(fields[0].c_str(), nullptr, 10),
                          std::strtoull(fields[1].c_str(), nullptr, 16));
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

int RunServeCheck(const Args& args) {
  const uint64_t seed = args.GetU64("seed", 1);
  const bool trace = args.Get("trace", "0") == "1";
  Gates gates;
  const double open_start = NowSeconds();
  auto store = ReopenStore(args.Get("store"));
  const double open_s = NowSeconds() - open_start;
  gates.Check(store.ok(), "serve store reopen");
  if (!store.ok()) return PrintResult(gates, 1, 1, {});
  auto stored = ReadAll(**store);
  gates.Check(stored.ok(), "serve store scan");
  if (!stored.ok()) return PrintResult(gates, 1, 1, {});
  std::vector<std::pair<uint64_t, uint64_t>> actual;
  for (const PopulatedRecord& record : *stored) {
    actual.emplace_back(record.document_index, RecordContentDigest(record));
  }
  std::sort(actual.begin(), actual.end());
  gates.Check(actual == ReadExpected(args.Get("expected")),
              "daemon store holds exactly the acknowledged records");
  QueryPhase queries = RunQueries(**store, seed, kQueries, trace);
  gates.Check(queries.ok, "serve query phase");
  std::vector<Metric> m;
  m.push_back({"query_p50_us", Percentile(queries.latencies_us, 0.5), "us"});
  m.push_back({"query_p99_us", Percentile(queries.latencies_us, 0.99), "us"});
  m.push_back({"store.open_s", open_s, "s"});
  m.push_back({"store.query_useful_ratio",
               Ratio(static_cast<double>(queries.returned),
                     static_cast<double>(queries.decoded)),
               "ratio"});
  return PrintResult(gates, queries.latencies_us.size(), 0, m);
}

int RunServeReplay(const Args& args) {
  const fs::path out = args.Get("out", ".");
  Gates gates;
  const std::vector<std::string> requests = ReadBlobs(args.Get("requests"));
  const std::vector<std::string> pages = ReadBlobs(args.Get("pages"));
  const auto acks = ReadNumberLines(args.Get("acks"));
  gates.Check(!requests.empty() && requests.size() == acks.size(),
              "replay inputs");
  if (!gates.ok()) return PrintResult(gates, 1, 1, {});

  // The daemon's metrics setting, so Handle does the same work it does
  // behind the socket.
  webrbd::obs::SetMetricsEnabled(true);
  Tracer tracer;
  const std::string store_path = (out / "replay.store").string();
  CountingFile* counter = nullptr;
  auto store = CreateStore(store_path, &counter);
  gates.Check(store.ok(), "replay store");
  if (!store.ok()) return PrintResult(gates, 1, 1, {});
  webrbd::StoreSink store_sink(store->get());
  TimedSink timed_sink(&store_sink, &tracer);
  webrbd::serve::ServiceOptions service_options;
  service_options.ingest_sink = &timed_sink;
  auto service = webrbd::serve::ExtractionService::Create(
      webrbd::BundledOntologyDsl(Domain::kObituaries), service_options);
  gates.Check(service.ok(), "in-process service");
  if (!service.ok()) return PrintResult(gates, 1, 1, {});

  // Request path: parse, handle, serialize, one request at a time.
  std::vector<double> handle_ms;
  std::ofstream handle_out((out / "handle_ms.txt").string());
  uint64_t failed = 0;
  const webrbd::serve::HttpParseLimits limits;
  for (size_t k = 0; k < requests.size(); ++k) {
    const int64_t id = static_cast<int64_t>(k);
    ScopedSpan request_span(tracer, "serve.request", id);
    webrbd::serve::HttpParseOutcome parsed;
    {
      ScopedSpan span(tracer, "serve.http_parse", id);
      parsed = webrbd::serve::ParseHttpRequest(requests[k], limits);
    }
    if (parsed.state != webrbd::serve::HttpParseState::kComplete) {
      ++failed;
      continue;
    }
    webrbd::serve::HttpResponse response;
    const int handle_index = tracer.Begin("serve.handle", id);
    response = (*service)->Handle(parsed.request);
    tracer.End(handle_index);
    const Span& handle = tracer.spans()[static_cast<size_t>(handle_index)];
    handle_ms.push_back(static_cast<double>(handle.end_ns - handle.start_ns) * 1e-6);
    handle_out << k << " " << FormatNumber(handle_ms.back()) << "\n";
    if (response.status != 200) ++failed;
    ScopedSpan span(tracer, "serve.serialize", id);
    std::string wire =
        webrbd::serve::SerializeHttpResponse(response, parsed.request.keep_alive);
    if (wire.empty()) ++failed;
  }
  handle_out.close();
  gates.Check(failed == 0, "every replayed request answers 200");

  // Document path: the same requests' pages through the traced document
  // replay — single pages without memoization (kAuto on /extract), batch
  // pages through one shared cache, as the daemon's service does.
  ServeReference ref;
  gates.Check(MakeServeReference(&ref), "serve reference context");
  if (!gates.ok()) return PrintResult(gates, requests.size(), failed, {});
  webrbd::TemplateCache cache;
  ContextOptions batch_options;
  batch_options.template_cache = &cache;
  auto batch_context = ExtractionContext::Create(ref.ontology, batch_options);
  gates.Check(batch_context.ok(), "batch context");
  if (!batch_context.ok()) return PrintResult(gates, requests.size(), failed, {});

  TracedPass pass;
  webrbd::BufferSink discard;
  DigestSink replay_sink(&discard);
  const int64_t doc_start = NowNs();
  int64_t next_id = static_cast<int64_t>(requests.size());
  const size_t doc_requests =
      std::min<size_t>(acks.size(), args.GetU64("doc-requests", acks.size()));
  const std::vector<std::vector<uint64_t>> doc_acks(acks.begin(),
                                                    acks.begin() + doc_requests);
  for (const std::vector<uint64_t>& request : doc_acks) {
    std::vector<std::string_view> request_pages;
    for (uint64_t page : request) {
      if (page < pages.size()) request_pages.emplace_back(pages[page]);
    }
    const bool batch = request.size() > 1;
    ReplayTarget target{batch ? &*batch_context : &*ref.context,
                        batch ? &cache : nullptr};
    (void)ReplayCorpus(target, request_pages, replay_sink, tracer, next_id,
                       pass.counts);
    next_id += static_cast<int64_t>(request_pages.size());
  }
  const double doc_wall = static_cast<double>(NowNs() - doc_start) * 1e-9;

  // Untraced baseline of the same document path, for the overhead ratio.
  cache.Clear();
  DigestSink base_sink(&discard);
  const int64_t base_start = NowNs();
  for (const std::vector<uint64_t>& request : doc_acks) {
    std::vector<std::string_view> request_pages;
    for (uint64_t page : request) {
      if (page < pages.size()) request_pages.emplace_back(pages[page]);
    }
    if (request_pages.size() > 1) {
      BatchRunOptions run;
      run.num_threads = 1;
      (void)batch_context->ExtractCorpusInto(request_pages, base_sink, run);
    } else if (!request_pages.empty()) {
      (void)ref.context->ExtractDocumentInto(request_pages[0], base_sink);
    }
  }
  const double base_wall = static_cast<double>(NowNs() - base_start) * 1e-9;
  gates.Check(replay_sink.digest() == base_sink.digest() &&
                  replay_sink.count() == base_sink.count(),
              "traced replay records digest equals the untraced digest");

  Accumulate(tracer.spans(), &pass);
  pass.wall_s = doc_wall;
  pass.bytes_written = counter->bytes_written();
  pass.pages_written = counter->pages_written();
  gates.Check(WriteSpansNdjson((out / "spans-serve_mixed.ndjson").string(),
                               tracer.spans()),
              "write spans");

  std::vector<Metric> m = LayerMetrics({pass});
  m.push_back({"pool.utilization", 0, "ratio"});
  m.push_back({"pool.first_start_s", 0, "s"});
  m.push_back({"pool.docs_max_over_mean", 0, "ratio"});
  m.push_back({"serve.http_parse_s", pass.self["serve.http_parse"], "s"});
  m.push_back({"serve.handle_p50_ms", Percentile(handle_ms, 0.5), "ms"});
  m.push_back({"serve.handle_p99_ms", Percentile(handle_ms, 0.99), "ms"});
  m.push_back({"serve.serialize_s", pass.self["serve.serialize"], "s"});
  m.push_back({"trace.overhead_ratio", Ratio(doc_wall, base_wall) - 1.0, "ratio"});
  std::error_code ignored;
  fs::remove(store_path, ignored);
  return PrintResult(gates, requests.size(), failed, m);
}

// ---- Self test -------------------------------------------------------------

int RunSelfTest() {
  Gates gates;
  // Synthetic span tree: root [0,100] with children [10,40] and [30,60]
  // (overlapping) and [90,120] (overhanging); grandchild [15,25].
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 40, 0, 1};
  spans[2] = {"b", 30, 60, 0, 1};
  spans[3] = {"c", 90, 120, 0, 1};
  spans[4] = {"a.child", 15, 25, 1, 1};
  const std::vector<double> self = SelfSeconds(spans);
  auto near = [](double got, double want_ns) {
    return std::abs(got - want_ns * 1e-9) < 1e-15;
  };
  // root: covered = [10,60] + [90,100] = 60 -> self 40.
  gates.Check(near(self[0], 40), "root self time");
  gates.Check(near(self[1], 20), "child self time minus grandchild");
  gates.Check(near(self[2], 30) && near(self[3], 30) && near(self[4], 10),
              "leaf self times");
  double total = 0;
  for (double seconds : self) total += seconds;
  // Self times of a tree whose children stay inside their parents add up
  // to the root's duration; the overhang of c and the a/b overlap are the
  // only excess.
  gates.Check(near(total, 40 + 20 + 30 + 30 + 10), "self time sum");

  // Replay digest on a small corpus equals ExtractCorpusInto's.
  for (const std::string workload : {"corpus_full", "template_skew"}) {
    CorpusWorkload w;
    MakeInputs(workload, 7, &w);
    for (DomainCorpus& d : w.domains) {
      if (d.pages.size() > 40) d.pages.resize(40);
      if (!d.docs.empty() && d.docs.size() > 40) d.docs.resize(40);
    }
    fs::create_directories(".bench_out");
    const std::string store_path = ".bench_out/selftest.store";
    std::unique_ptr<webrbd::store::RecordStore> store;
    (void)SetUp(&w, store_path, &store, &gates);
    Pass pass = RunPass(&w, store.get());
    store.reset();
    Tracer tracer;
    TracedPass traced = RunTracedPass(&w, store_path, &tracer);
    gates.Check(pass.ok && traced.ok, workload + ": selftest passes ran");
    gates.Check(pass.digest == traced.digest,
                workload + ": replay digest equals ExtractCorpusInto digest");
    gates.Check(traced.document_self_s < 0.2 * traced.document_s,
                workload + ": stage self times cover the document time");
    std::error_code ignored;
    fs::remove(store_path, ignored);
  }
  return PrintResult(gates, 1, gates.ok() ? 0 : 1, {});
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: webrbd_bench corpus|serve-prep|serve-throughput|"
                 "serve-check|serve-replay|selftest [--key value ...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  Args args;
  if (!ParseArgs(argc, argv, 2, &args)) return 2;
  if (mode == "corpus") return RunCorpus(args);
  if (mode == "serve-prep") return RunServePrep(args);
  if (mode == "serve-throughput") return RunServeThroughput(args);
  if (mode == "serve-check") return RunServeCheck(args);
  if (mode == "serve-replay") return RunServeReplay(args);
  if (mode == "selftest") return RunSelfTest();
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
