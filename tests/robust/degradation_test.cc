// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The robustness layer's core contract, end to end: in a batch, a
// document that trips a DocumentLimits cap fails alone with
// kResourceExhausted while every other document completes normally, the
// outcome is byte-identical across thread counts, and a benign corpus
// under production defaults never trips anything.
//
// Suite name starts with "RobustBatch" so CI's TSan job picks it up.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/figure2.h"
#include "extract/extract_test_util.h"
#include "gen/adversarial.h"
#include "gen/sites.h"
#include "obs/stages.h"
#include "ontology/bundled.h"
#include "robust/limits.h"

namespace webrbd {
namespace {

constexpr size_t kCorpusSize = 1000;

bool IsAdversarialSlot(size_t index) { return index % 100 == 50; }

// 1000 documents: the paper's small Figure 2 page in the benign slots
// (kept tiny so the suite stays fast under the sanitizers), with a depth
// bomb planted every hundredth slot.
std::vector<std::string> MixedCorpus() {
  const std::string benign = Figure2Document();
  const std::string bomb = gen::RenderAdversarialDocument(
      gen::AdversarialShape::kDepthBomb, 200);
  std::vector<std::string> corpus;
  corpus.reserve(kCorpusSize);
  for (size_t i = 0; i < kCorpusSize; ++i) {
    corpus.push_back(IsAdversarialSlot(i) ? bomb : benign);
  }
  return corpus;
}

// One corpus run on `threads` workers into a CatalogSink, through a
// context carrying `limits`.
Result<testing_util::CorpusCatalogs> RunBatch(
    const Ontology& ontology, const std::vector<std::string>& corpus,
    int threads,
    robust::DocumentLimits limits = robust::DocumentLimits::Production()) {
  ContextOptions options;
  options.discovery.limits = limits;
  auto context = ExtractionContext::Create(ontology, options);
  if (!context.ok()) return context.status();
  BatchRunOptions run;
  run.num_threads = threads;
  return testing_util::ExtractCorpusToCatalogs(*context, corpus, run);
}

robust::DocumentLimits TightDepthLimits() {
  // Benign pages nest ~10 deep; the 200-deep bomb trips this cap.
  robust::DocumentLimits limits = robust::DocumentLimits::Production();
  limits.max_tree_depth = 64;
  return limits;
}

// One test, two runs of the same 1000-document corpus (1 and 8 threads):
// exactly the adversarial slots fail, with kResourceExhausted, in input
// order, identically at both thread counts. (Merged so the corpus runs
// twice, not four times — this is the suite's expensive part under the
// sanitizers.)
TEST(RobustBatchDegradationTest, AdversarialDocsFailAloneAtAnyThreadCount) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  const std::vector<std::string> corpus = MixedCorpus();
  const uint64_t depth_trips_before = obs::Robust().trip_depth->count();

  auto serial_run = RunBatch(ontology, corpus, 1, TightDepthLimits());
  auto parallel_run = RunBatch(ontology, corpus, 8, TightDepthLimits());
  ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
  ASSERT_TRUE(parallel_run.ok()) << parallel_run.status().ToString();
  const BatchOutcome* serial = &serial_run->batch;
  const BatchOutcome* parallel = &parallel_run->batch;
  ASSERT_EQ(serial->documents.size(), kCorpusSize);
  ASSERT_EQ(parallel->documents.size(), kCorpusSize);

  size_t adversarial = 0;
  for (size_t i = 0; i < kCorpusSize; ++i) {
    const auto& doc = serial->documents[i];
    if (IsAdversarialSlot(i)) {
      ++adversarial;
      ASSERT_FALSE(doc.ok()) << "doc " << i << " should have tripped";
      EXPECT_EQ(doc.status().code(), Status::Code::kResourceExhausted)
          << "doc " << i << ": " << doc.status().ToString();
    } else {
      EXPECT_TRUE(doc.ok()) << "doc " << i << ": " << doc.status().ToString();
      EXPECT_TRUE(serial_run->catalogs[i].ok()) << "doc " << i;
    }
  }

  EXPECT_EQ(serial->stats.documents, kCorpusSize);
  EXPECT_EQ(serial->stats.failed, adversarial);
  EXPECT_EQ(serial->stats.succeeded, kCorpusSize - adversarial);
  auto by_code = serial->stats.failures_by_code.find("ResourceExhausted");
  ASSERT_NE(by_code, serial->stats.failures_by_code.end());
  EXPECT_EQ(by_code->second, adversarial);
  EXPECT_GE(obs::Robust().trip_depth->count(),
            depth_trips_before + 2 * adversarial);

  for (size_t i = 0; i < kCorpusSize; ++i) {
    const auto& one = serial->documents[i];
    const auto& eight = parallel->documents[i];
    ASSERT_EQ(one.ok(), eight.ok()) << "doc " << i;
    if (one.ok()) {
      EXPECT_EQ(one->separator, eight->separator) << "doc " << i;
    } else {
      EXPECT_EQ(one.status().code(), eight.status().code()) << "doc " << i;
      EXPECT_EQ(one.status().message(), eight.status().message())
          << "doc " << i;
    }
  }
  EXPECT_EQ(serial->stats.failed, parallel->stats.failed);
  EXPECT_EQ(serial->stats.succeeded, parallel->stats.succeeded);
  EXPECT_EQ(serial->stats.failures_by_code, parallel->stats.failures_by_code);
}

TEST(RobustBatchDegradationTest, BenignCorpusTripsNothingUnderDefaults) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  const auto& sites = gen::CalibrationSites();
  std::vector<std::string> corpus;
  for (int i = 0; i < 40; ++i) {
    const auto& site = sites[static_cast<size_t>(i) % sites.size()];
    corpus.push_back(
        gen::RenderDocument(site, Domain::kObituaries,
                            i / static_cast<int>(sites.size()))
            .html);
  }

  const uint64_t fatal_before = obs::Robust().FatalTripTotal();
  const uint64_t recoveries_before = obs::Robust().lexer_recoveries->count();

  auto run = RunBatch(ontology, corpus, 4);  // production default limits
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->batch.stats.failed, 0u);
  EXPECT_EQ(run->batch.stats.succeeded, corpus.size());
  for (const Result<db::Catalog>& catalog : run->catalogs) {
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  }
  EXPECT_EQ(obs::Robust().FatalTripTotal(), fatal_before);
  EXPECT_EQ(obs::Robust().lexer_recoveries->count(), recoveries_before);
}

TEST(RobustBatchDegradationTest, EveryShapeSurvivesTheBatchPipeline) {
  Ontology ontology = BundledOntology(Domain::kObituaries).value();
  // Production-scale corpus: one document per adversarial shape, at the
  // scales chosen to trip (or stress) the production caps.
  const std::vector<std::string> corpus =
      gen::AdversarialCorpus(gen::AllAdversarialShapes().size());

  auto run = RunBatch(ontology, corpus, 2);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const BatchOutcome* batch = &run->batch;
  ASSERT_EQ(batch->documents.size(), corpus.size());

  // Index 0 is the depth bomb (2048 > the 512 default): the one shape
  // whose production-scale rendering must trip a fatal cap.
  ASSERT_FALSE(batch->documents[0].ok());
  EXPECT_EQ(batch->documents[0].status().code(),
            Status::Code::kResourceExhausted);

  // Every other shape must complete or fail cleanly — never crash, never
  // take the batch down with it.
  for (size_t i = 0; i < batch->documents.size(); ++i) {
    if (run->catalogs[i].ok()) continue;
    EXPECT_FALSE(run->catalogs[i].status().message().empty())
        << "doc " << i;
  }
  EXPECT_EQ(batch->stats.failed + batch->stats.succeeded,
            batch->stats.documents);
}

}  // namespace
}  // namespace webrbd
