// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The paper's integrated per-document flow (Section 4.5) end to end:
// recognize once, build the Data-Record Table, discover, partition,
// populate — through ExtractionContext::ExtractDocumentInto.

#include <gtest/gtest.h>

#include "core/record_extractor.h"
#include "eval/figure2.h"
#include "extract/db_instance_generator.h"
#include "extract/extract_test_util.h"
#include "gen/sites.h"
#include "html/tree_builder.h"
#include "ontology/bundled.h"
#include "ontology/estimator.h"

namespace webrbd {
namespace {

using testing_util::ExtractToCatalog;

TEST(IntegratedPipelineTest, Figure2EndToEnd) {
  auto ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto extraction = ExtractToCatalog(*context, Figure2Document());
  ASSERT_TRUE(extraction.ok()) << extraction.status().ToString();
  const ExtractionOutcome& result = extraction->outcome;

  EXPECT_EQ(result.separator, "hr");
  // Three records between the four <hr>s (the empty tail partition after
  // the trailing <hr> is dropped).
  ASSERT_EQ(result.partitions.size(), 3u);
  // Table entries carry DOCUMENT positions: each value slices the source.
  const std::string doc = Figure2Document();
  for (const DataRecordEntry& entry : result.table.entries()) {
    ASSERT_LE(entry.end, doc.size());
    // Values recognized across inline tags may span markup in document
    // space; check containment of the first word instead of equality.
    const std::string first_word =
        entry.value.substr(0, entry.value.find(' '));
    EXPECT_EQ(doc.compare(entry.begin, first_word.size(), first_word), 0)
        << entry.descriptor << " @" << entry.begin << " = " << entry.value;
  }

  const db::Table* deceased = extraction->catalog.GetTable("Deceased");
  ASSERT_NE(deceased, nullptr);
  ASSERT_EQ(deceased->row_count(), 3u);
  const db::Schema& schema = deceased->schema();
  EXPECT_EQ(deceased->rows()[0][*schema.ColumnIndex("DeceasedName")]
                .AsString(),
            "Lemar K. Adamson");
  EXPECT_EQ(deceased->rows()[0][*schema.ColumnIndex("DeathDate")].AsString(),
            "September 30, 1998");
}

TEST(IntegratedPipelineTest, AgreesWithPerRecordPipeline) {
  // The integrated flow (recognize once, partition) and the naive flow
  // (re-recognize per record) must populate equivalent entity tables.
  auto ontology = BundledOntology(Domain::kCarAds).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  for (int doc_index : {0, 1}) {
    gen::GeneratedDocument doc = gen::RenderDocument(
        gen::CalibrationSites()[0], Domain::kCarAds, doc_index);

    auto integrated = ExtractToCatalog(*context, doc.html);
    ASSERT_TRUE(integrated.ok()) << integrated.status().ToString();

    StandaloneDiscoveryOptions options;
    options.estimator = MakeEstimatorForOntology(ontology).value();
    auto records = ExtractRecordsFromDocument(doc.html, options);
    ASSERT_TRUE(records.ok());
    auto generator = DatabaseInstanceGenerator::Create(ontology).value();
    auto naive = generator.Populate(*records);
    ASSERT_TRUE(naive.ok());

    const db::Table* a = integrated->catalog.GetTable("Car");
    const db::Table* b = naive->GetTable("Car");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // The integrated flow keeps empty trailing partitions that the record
    // extractor drops; compare the overlapping prefix.
    const size_t rows = std::min(a->row_count(), b->row_count());
    ASSERT_GE(rows, 10u);
    size_t cells = 0;
    size_t equal = 0;
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 1; c < a->schema().column_count(); ++c) {  // skip id
        ++cells;
        if (a->rows()[r][c] == b->rows()[r][c]) ++equal;
      }
    }
    // Boundary effects (matches whose keyword window crosses a separator)
    // may differ in a handful of cells; demand near-perfect agreement.
    EXPECT_GE(equal * 100, cells * 98)
        << "doc " << doc_index << ": " << equal << "/" << cells;
  }
}

TEST(IntegratedPipelineTest, OmEstimateMatchesTextEstimator) {
  // The table-derived O(d) estimate must equal the text-scan estimate —
  // same regexes, same text.
  auto ontology = BundledOntology(Domain::kObituaries).value();
  gen::GeneratedDocument doc = gen::RenderDocument(
      gen::CalibrationSites()[0], Domain::kObituaries, 0);

  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BufferSink sink;
  auto integrated = context->ExtractDocumentInto(doc.html, sink);
  ASSERT_TRUE(integrated.ok());
  // Reconstruct what the text-based estimator sees.
  auto tree = BuildTagTree(doc.html).value();
  auto analysis = ExtractCandidateTags(tree).value();
  auto estimator = MakeEstimatorForOntology(ontology).value();
  auto text_estimate =
      estimator->EstimateRecordCount(tree.PlainText(*analysis.subtree));
  ASSERT_TRUE(text_estimate.has_value());

  // OM's ranking in the integrated run must match a run with the text
  // estimator (identical estimates produce identical rankings).
  StandaloneDiscoveryOptions options;
  options.estimator = estimator;
  RecordBoundaryDiscoverer discoverer(options);
  auto reference = discoverer.Discover(tree).value();
  ASSERT_EQ(integrated->discovery.heuristic_results[0].heuristic_name, "OM");
  EXPECT_EQ(integrated->discovery.heuristic_results[0].ranking.size(),
            reference.heuristic_results[0].ranking.size());
  for (size_t i = 0;
       i < integrated->discovery.heuristic_results[0].ranking.size(); ++i) {
    EXPECT_EQ(integrated->discovery.heuristic_results[0].ranking[i].tag,
              reference.heuristic_results[0].ranking[i].tag);
  }
}

TEST(IntegratedPipelineTest, FailsOnTaglessInput) {
  auto ontology = BundledOntology(Domain::kCarAds).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  BufferSink sink;
  auto result = context->ExtractDocumentInto("no markup at all", sink);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(sink.records().empty());
}

}  // namespace
}  // namespace webrbd
