// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Golden equivalence suite for the ExtractionContext API: every way to
// build a context — Create through the process-wide recognizer cache (a
// second, independent context), FromCompiledRecognizer over an existing
// recognizer — with and without a reused arena, and the batch engine at 1
// and 8 threads must all produce byte-identical extractions — same
// separator, same partitions, same catalog dump — on the generator
// corpora.

#include "extract/extraction_context.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "extract/extract_test_util.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

using testing_util::ExtractCorpusToCatalogs;
using testing_util::ExtractToCatalog;
using testing_util::Golden;
using testing_util::SmallCorpus;

class ExtractionContextGoldenTest : public ::testing::TestWithParam<Domain> {};

// The "shim" legs are the construction paths the removed per-call entry
// points forwarded to (a second Create, FromCompiledRecognizer).
TEST_P(ExtractionContextGoldenTest, ShimAndContextPathsAreByteIdentical) {
  const Ontology ontology = BundledOntology(GetParam()).value();
  const std::vector<std::string> corpus = SmallCorpus(GetParam(), 6);

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  // A fresh context through the global recognizer cache, and one wrapping
  // the already-compiled recognizer.
  auto via_global_cache = ExtractionContext::Create(ontology);
  ASSERT_TRUE(via_global_cache.ok()) << via_global_cache.status().ToString();
  const ExtractionContext via_recognizer =
      ExtractionContext::FromCompiledRecognizer(ontology,
                                                context->recognizer());

  DocumentArena arena;
  for (const std::string& html : corpus) {
    auto via_context = ExtractToCatalog(*context, html);
    ASSERT_TRUE(via_context.ok()) << via_context.status().ToString();
    const std::string golden = Golden(*via_context);
    // One record delivered per partition.
    EXPECT_EQ(via_context->outcome.records_written,
              via_context->outcome.partitions.size());

    // Arena-reuse path: same bytes out of a warm arena.
    arena.Reset();
    auto via_arena = ExtractToCatalog(*context, html, &arena);
    ASSERT_TRUE(via_arena.ok());
    EXPECT_EQ(Golden(*via_arena), golden);

    auto via_cache = ExtractToCatalog(*via_global_cache, html);
    ASSERT_TRUE(via_cache.ok());
    EXPECT_EQ(Golden(*via_cache), golden);

    auto via_compiled = ExtractToCatalog(via_recognizer, html);
    ASSERT_TRUE(via_compiled.ok());
    EXPECT_EQ(Golden(*via_compiled), golden);
  }
}

TEST_P(ExtractionContextGoldenTest, BatchMatchesSingleAcrossThreadCounts) {
  const Ontology ontology = BundledOntology(GetParam()).value();
  const std::vector<std::string> corpus = SmallCorpus(GetParam(), 8);

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();

  std::vector<std::string> singles;
  for (const std::string& html : corpus) {
    auto single = ExtractToCatalog(*context, html);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    singles.push_back(Golden(*single));
  }

  for (int threads : {1, 8}) {
    BatchRunOptions run;
    run.num_threads = threads;
    run.chunk_size = 2;  // several chunks, arena reused within each
    auto corpus_run = ExtractCorpusToCatalogs(*context, corpus, run);
    ASSERT_TRUE(corpus_run.ok()) << corpus_run.status().ToString();
    const BatchOutcome& batch = corpus_run->batch;
    ASSERT_EQ(batch.documents.size(), corpus.size());
    EXPECT_EQ(batch.stats.succeeded, corpus.size());
    size_t records = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
      ASSERT_TRUE(batch.documents[i].ok());
      ASSERT_TRUE(corpus_run->catalogs[i].ok());
      EXPECT_EQ(Golden(*batch.documents[i], *corpus_run->catalogs[i]),
                singles[i])
          << "threads=" << threads << " doc=" << i;
      EXPECT_EQ(batch.documents[i]->records_written,
                batch.documents[i]->partitions.size());
      records += batch.documents[i]->records_written;
    }
    EXPECT_EQ(batch.records_delivered, records);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, ExtractionContextGoldenTest,
                         ::testing::Values(Domain::kObituaries,
                                           Domain::kCarAds),
                         [](const ::testing::TestParamInfo<Domain>& info) {
                           std::string name = DomainName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ExtractionContextTest, CreateFailsOnUncompilableOntology) {
  ObjectSet broken;
  broken.name = "Broken";
  broken.frame.value_patterns = {"(unclosed"};
  Ontology ontology("broken", "Entity", {broken});
  auto context = ExtractionContext::Create(ontology);
  EXPECT_FALSE(context.ok());
}

TEST(ExtractionContextTest, UsesTheProvidedCache) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  RecognizerCache cache;
  ContextOptions options;
  options.cache = &cache;
  auto context = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A second context over the same cache hits.
  auto second = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ExtractionContextTest, InstanceGeneratorSharesTheContextRecognizer) {
  // One ontology compile per context: the generator wraps the context's
  // recognizer rather than compiling its own.
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  ASSERT_NE(context->instance_generator(), nullptr);
  EXPECT_EQ(&context->instance_generator()->recognizer(),
            &context->recognizer());

  const ExtractionContext borrowed =
      ExtractionContext::FromCompiledRecognizer(ontology,
                                                context->recognizer());
  ASSERT_NE(borrowed.instance_generator(), nullptr);
  EXPECT_EQ(&borrowed.instance_generator()->recognizer(),
            &borrowed.recognizer());
}

TEST(ExtractionContextTest, ExtractDocumentFailsOnTaglessInput) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  BufferSink sink;
  auto result = context->ExtractDocumentInto("no markup at all", sink);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace webrbd
