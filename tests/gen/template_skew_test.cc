// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Template-skew corpus mode: determinism, Zipf shape, and the structural
// contract the template cache's benchmark arithmetic rests on (pages of
// one template extract cleanly and agree on their record structure).

#include "gen/template_skew.h"

#include <gtest/gtest.h>

#include <numeric>

#include "extract/extract_test_util.h"
#include "extract/extraction_context.h"
#include "ontology/model.h"

namespace webrbd {
namespace {

TEST(TemplateSkewTest, DeterministicAcrossCalls) {
  gen::TemplateSkewOptions options;
  options.num_templates = 8;
  options.num_pages = 40;
  const auto a = gen::GenerateTemplateSkewCorpus(options);
  const auto b = gen::GenerateTemplateSkewCorpus(options);
  ASSERT_EQ(a.pages.size(), b.pages.size());
  EXPECT_EQ(a.pages, b.pages);
  EXPECT_EQ(a.template_of_page, b.template_of_page);

  // A different seed produces different content.
  options.seed ^= 1;
  const auto c = gen::GenerateTemplateSkewCorpus(options);
  EXPECT_NE(a.pages, c.pages);
}

TEST(TemplateSkewTest, ZipfAssignmentIsSkewedAndComplete) {
  gen::TemplateSkewOptions options;
  options.num_templates = 20;
  options.num_pages = 2000;
  options.zipf_exponent = 1.0;
  const auto corpus = gen::GenerateTemplateSkewCorpus(options);

  ASSERT_EQ(corpus.pages_per_template.size(), 20u);
  EXPECT_EQ(std::accumulate(corpus.pages_per_template.begin(),
                            corpus.pages_per_template.end(), 0),
            2000);
  // Rank 0 carries weight 1 / H_20 ≈ 28% of pages; the tail template
  // carries ~1.4%. Loose bounds that only a broken assignment misses.
  EXPECT_GT(corpus.pages_per_template[0], 2000 / 5);
  EXPECT_LT(corpus.pages_per_template[19], corpus.pages_per_template[0]);
  EXPECT_GT(corpus.distinct_templates_used, 10);
}

TEST(TemplateSkewTest, PagesExtractCleanlyWithoutAnOntology) {
  // The benchmark's structure-only configuration: no ontology, discovery
  // runs on the five structural heuristics with OM abstaining. Every page
  // must extract end to end.
  gen::TemplateSkewOptions options;
  options.num_templates = 10;  // covers every archetype twice
  options.num_pages = 30;
  options.zipf_exponent = 0.0;
  const auto corpus = gen::GenerateTemplateSkewCorpus(options);

  // A named entity with zero object sets: the recognizer has nothing to
  // match and OM abstains, but the catalog stage still has a table name.
  static const Ontology kEmpty("structure-only", "Record", {});
  ContextOptions context_options;
  context_options.template_memoization = TemplateMemoization::kNever;
  auto context = ExtractionContext::Create(kEmpty, context_options);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto run = testing_util::ExtractCorpusToCatalogs(*context, corpus.pages);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const BatchOutcome& batch = run->batch;
  EXPECT_EQ(batch.stats.failed, 0u);
  for (size_t i = 0; i < batch.documents.size(); ++i) {
    ASSERT_TRUE(batch.documents[i].ok())
        << "page " << i << " of template " << corpus.template_of_page[i]
        << ": " << batch.documents[i].status().ToString();
    // The catalog stage materializes the entity table's rows.
    ASSERT_TRUE(run->catalogs[i].ok())
        << "page " << i << ": " << run->catalogs[i].status().ToString();
    // With no object sets the Data-Record Table (and so the partition
    // list) is empty; the structural outcome is the separator.
    EXPECT_FALSE(batch.documents[i]->separator.empty());
  }
}

}  // namespace
}  // namespace webrbd
