// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The corpus engine, ExtractionContext::ExtractCorpusInto: agreement with
// single-document extraction, thread-count determinism, per-document
// failure isolation, stats accounting, and hook/exception containment.
//
// Suite name "BatchPipeline" is what CI's TSan job selects.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "extract/extract_test_util.h"
#include "obs/metrics.h"
#include "obs/stages.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

using testing_util::ExtractCorpusToCatalogs;
using testing_util::ExtractToCatalog;
using testing_util::SmallCorpus;

// ExtractCorpusInto over a throwaway BufferSink, for tests that look only
// at the per-document outcomes and stats.
Result<BatchOutcome> RunCorpus(const ExtractionContext& context,
                               const std::vector<std::string>& corpus,
                               const BatchRunOptions& run = {}) {
  BufferSink sink;
  return context.ExtractCorpusInto(corpus, sink, run);
}

TEST(BatchPipelineTest, MatchesSingleDocumentPipeline) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 4);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto batch = ExtractCorpusToCatalogs(*context, corpus);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->batch.documents.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto single = ExtractToCatalog(*context, corpus[i]);
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch->batch.documents[i].ok());
    ASSERT_TRUE(batch->catalogs[i].ok());
    EXPECT_EQ(batch->batch.documents[i]->separator, single->outcome.separator);
    EXPECT_EQ(batch->batch.documents[i]->partitions.size(),
              single->outcome.partitions.size());
    EXPECT_EQ(batch->catalogs[i]->ToString(), single->catalog.ToString());
  }
}

TEST(BatchPipelineTest, DeterministicAcrossThreadCounts) {
  Ontology ontology = BundledOntology(Domain::kCarAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kCarAds, 20);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  BatchRunOptions serial;
  serial.num_threads = 1;
  auto one = ExtractCorpusToCatalogs(*context, corpus, serial);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  BatchRunOptions parallel;
  parallel.num_threads = 8;
  parallel.chunk_size = 1;  // maximize interleaving
  auto eight = ExtractCorpusToCatalogs(*context, corpus, parallel);
  ASSERT_TRUE(eight.ok()) << eight.status().ToString();

  const BatchOutcome& a = one->batch;
  const BatchOutcome& b = eight->batch;
  EXPECT_EQ(a.stats.threads_used, 1);
  EXPECT_EQ(b.stats.threads_used, 8);
  ASSERT_EQ(a.documents.size(), b.documents.size());
  for (size_t i = 0; i < a.documents.size(); ++i) {
    ASSERT_EQ(a.documents[i].ok(), b.documents[i].ok()) << "doc " << i;
    if (!a.documents[i].ok()) continue;
    EXPECT_EQ(a.documents[i]->separator, b.documents[i]->separator);
    EXPECT_EQ(a.documents[i]->table.size(), b.documents[i]->table.size());
    ASSERT_TRUE(one->catalogs[i].ok());
    ASSERT_TRUE(eight->catalogs[i].ok());
    EXPECT_EQ(one->catalogs[i]->ToString(), eight->catalogs[i]->ToString());
  }
  EXPECT_EQ(a.stats.succeeded, b.stats.succeeded);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.total_bytes, b.stats.total_bytes);
}

TEST(BatchPipelineTest, PerDocumentErrorsAreAggregatedNotDropped) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  corpus.insert(corpus.begin() + 1, "no markup at all");  // doomed document
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  BatchRunOptions run;
  run.num_threads = 4;
  auto batch = RunCorpus(*context, corpus, run);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->documents.size(), 4u);
  EXPECT_TRUE(batch->documents[0].ok());
  EXPECT_FALSE(batch->documents[1].ok());
  EXPECT_TRUE(batch->documents[2].ok());
  EXPECT_TRUE(batch->documents[3].ok());
  EXPECT_EQ(batch->stats.succeeded, 3u);
  EXPECT_EQ(batch->stats.failed, 1u);
  size_t counted = 0;
  for (const auto& [code, count] : batch->stats.failures_by_code) {
    counted += count;
  }
  EXPECT_EQ(counted, 1u);
  // The stats render a human-readable summary.
  EXPECT_NE(batch->stats.ToString().find("1 failed"), std::string::npos);
}

TEST(BatchPipelineTest, EmptyCorpus) {
  Ontology ontology = BundledOntology(Domain::kCourses).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto batch = RunCorpus(*context, {});
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->documents.empty());
  EXPECT_EQ(batch->stats.documents, 0u);
  EXPECT_EQ(batch->stats.failed, 0u);
}

TEST(BatchPipelineTest, BadOntologyFailsTheWholeBatch) {
  ObjectSet broken;
  broken.name = "Broken";
  broken.frame.value_patterns = {"(a"};
  Ontology ontology("broken", "Entity", {broken});
  // The ontology's rules do not compile, so no context — and no batch —
  // can be built over it.
  auto context = ExtractionContext::Create(ontology);
  EXPECT_FALSE(context.ok());
}

TEST(BatchPipelineTest, ReportsThroughputStats) {
  Ontology ontology = BundledOntology(Domain::kJobAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kJobAds, 6);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BatchRunOptions run;
  run.num_threads = 2;
  auto batch = RunCorpus(*context, corpus, run);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stats.documents, 6u);
  size_t bytes = 0;
  for (const std::string& document : corpus) bytes += document.size();
  EXPECT_EQ(batch->stats.total_bytes, bytes);
  EXPECT_GT(batch->stats.wall_seconds, 0.0);
  EXPECT_GT(batch->stats.docs_per_second, 0.0);
  EXPECT_GT(batch->stats.bytes_per_second, 0.0);
}

TEST(BatchPipelineTest, UsesTheProvidedCache) {
  RecognizerCache cache;
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  ContextOptions options;
  options.cache = &cache;
  // One context per batch, as a per-batch caller builds them.
  auto first = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(RunCorpus(*first, corpus).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A second batch over the same ontology recompiles nothing.
  auto second = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(RunCorpus(*second, corpus).ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(BatchPipelineTest, ThrowingTaskBecomesPerDocumentInternalErrors) {
  // Regression: an exception escaping one chunk task used to abandon the
  // remaining futures and then dereference the chunk's unengaged result
  // slots (UB). The throw is injected through document_hook; every
  // document must still get a result and the affected ones must carry
  // Status::Internal.
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 12);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BatchRunOptions options;
  options.num_threads = 4;
  options.chunk_size = 3;
  options.document_hook = [](size_t index) {
    if (index == 4) throw std::runtime_error("injected fault");
  };
  auto batch = RunCorpus(*context, corpus, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->documents.size(), corpus.size());
  size_t internal = 0;
  for (size_t i = 0; i < batch->documents.size(); ++i) {
    if (batch->documents[i].ok()) continue;
    EXPECT_EQ(batch->documents[i].status().code(), Status::Code::kInternal);
    EXPECT_NE(batch->documents[i].status().message().find("injected fault"),
              std::string::npos);
    ++internal;
  }
  // The throw hits document 4; its chunk's not-yet-processed documents
  // (4 and 5 of chunk [3,6)) fail, everything else completes.
  EXPECT_GE(internal, 1u);
  EXPECT_LE(internal, options.chunk_size);
  EXPECT_EQ(batch->stats.failed, internal);
  EXPECT_EQ(batch->stats.succeeded, corpus.size() - internal);
  EXPECT_EQ(batch->stats.failures_by_code.at("Internal"), internal);
}

TEST(BatchPipelineTest, ThrowingHookOnInlinePathIsAlsoContained) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kObituaries, 3);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BatchRunOptions options;
  options.num_threads = 1;  // inline path, no pool
  options.document_hook = [](size_t index) {
    if (index == 1) throw std::runtime_error("inline fault");
  };
  auto batch = RunCorpus(*context, corpus, options);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->documents.size(), 3u);
  EXPECT_TRUE(batch->documents[0].ok());
  EXPECT_FALSE(batch->documents[1].ok());
  EXPECT_FALSE(batch->documents[2].ok());  // inline run stops at the throw
  EXPECT_EQ(batch->documents[1].status().code(), Status::Code::kInternal);
}

TEST(BatchPipelineTest, StageLatenciesFilledWhenMetricsEnabled) {
  obs::SetMetricsEnabled(true);
  Ontology ontology = BundledOntology(Domain::kCarAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kCarAds, 6);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BatchRunOptions run;
  run.num_threads = 2;
  auto batch = RunCorpus(*context, corpus, run);
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  const auto& stages = batch->stats.stage_latencies;
  ASSERT_EQ(stages.size(), obs::PipelineStageNames().size());
  for (size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].metric,
              std::string(obs::PipelineStageNames()[i].metric));
  }
  // Every successful document records one span per core stage...
  for (const char* name : {"lex", "tree", "document", "recognize", "drt"}) {
    bool found = false;
    for (const StageLatencySummary& stage : stages) {
      if (stage.name != name) continue;
      found = true;
      EXPECT_GE(stage.count, corpus.size()) << name;
      EXPECT_GE(stage.total_seconds, 0.0);
      EXPECT_LE(stage.p50_seconds, stage.p99_seconds);
    }
    EXPECT_TRUE(found) << name;
  }
  // ...and the pool was actually utilized.
  EXPECT_GT(batch->stats.pool_utilization, 0.0);
  EXPECT_LE(batch->stats.pool_utilization, 1.0);

  // Both renderings carry the stage table.
  EXPECT_NE(batch->stats.ToString().find("stage latency"), std::string::npos);
  EXPECT_NE(batch->stats.ToJson().find("\"stage_latencies\""),
            std::string::npos);
  EXPECT_NE(batch->stats.ToJson().find("webrbd_stage_lex_seconds"),
            std::string::npos);
}

TEST(BatchPipelineTest, StageLatenciesEmptyWhenMetricsDisabled) {
  ASSERT_FALSE(obs::MetricsEnabled());
  Ontology ontology = BundledOntology(Domain::kJobAds).value();
  std::vector<std::string> corpus = SmallCorpus(Domain::kJobAds, 2);
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto batch = RunCorpus(*context, corpus);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->stats.stage_latencies.empty());
  EXPECT_EQ(batch->stats.pool_utilization, 0.0);
}

TEST(BatchPipelineTest, LongFailureCodeRowsSurviveToString) {
  // Regression: ToString used fixed 160-byte snprintf lines, silently
  // truncating long failure-code rows.
  CorpusStats stats;
  stats.documents = 1;
  stats.failed = 1;
  const std::string long_code(300, 'x');
  stats.failures_by_code[long_code] = 1;
  EXPECT_NE(stats.ToString().find(long_code), std::string::npos);
}

}  // namespace
}  // namespace webrbd
