// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Shared helpers for tests that inspect extracted catalogs. Extraction has
// one API — ExtractionContext::ExtractDocumentInto/ExtractCorpusInto
// delivering to a RecordSink — so a test that wants the populated
// db::Catalog runs it into a CatalogSink and takes the catalog back out.
// These helpers do exactly that and nothing more.

#ifndef WEBRBD_TESTS_EXTRACT_EXTRACT_TEST_UTIL_H_
#define WEBRBD_TESTS_EXTRACT_EXTRACT_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "db/catalog.h"
#include "db/export.h"
#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "gen/sites.h"
#include "util/result.h"

namespace webrbd {
namespace testing_util {

/// `documents` generated pages of `domain`, cycled across the calibration
/// sites so layouts vary.
inline std::vector<std::string> SmallCorpus(Domain domain, int documents) {
  const auto& sites = gen::CalibrationSites();
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<size_t>(documents));
  for (int i = 0; i < documents; ++i) {
    const auto& site = sites[static_cast<size_t>(i) % sites.size()];
    corpus.push_back(
        gen::RenderDocument(site, domain, i / static_cast<int>(sites.size()))
            .html);
  }
  return corpus;
}

/// One document's diagnostics plus the catalog its records populated.
struct CatalogExtraction {
  ExtractionOutcome outcome;
  db::Catalog catalog;
};

/// ExtractDocumentInto a fresh CatalogSink, then TakeCatalog(). A non-null
/// `arena` selects the arena-reusing overload.
inline Result<CatalogExtraction> ExtractToCatalog(
    const ExtractionContext& context, std::string_view html,
    DocumentArena* arena = nullptr) {
  CatalogSink sink(context.instance_generator());
  Result<ExtractionOutcome> outcome = Status::Internal("unreached");
  if (arena != nullptr) {
    outcome = context.ExtractDocumentInto(html, *arena, sink);
  } else {
    outcome = context.ExtractDocumentInto(html, sink);
  }
  if (!outcome.ok()) return outcome.status();
  auto catalog = sink.TakeCatalog();
  if (!catalog.ok()) return catalog.status();
  return CatalogExtraction{std::move(outcome).value(),
                           std::move(catalog).value()};
}

/// A corpus run into one CatalogSink: the batch outcome plus, for each
/// document, its catalog (or the document's failure status).
struct CorpusCatalogs {
  BatchOutcome batch;
  std::vector<Result<db::Catalog>> catalogs;
};

inline Result<CorpusCatalogs> ExtractCorpusToCatalogs(
    const ExtractionContext& context, const std::vector<std::string>& corpus,
    const BatchRunOptions& run = {}) {
  CatalogSink sink(context.instance_generator());
  auto batch = context.ExtractCorpusInto(corpus, sink, run);
  if (!batch.ok()) return batch.status();
  CorpusCatalogs out{std::move(batch).value(), {}};
  for (size_t i = 0; i < out.batch.documents.size(); ++i) {
    if (out.batch.documents[i].ok()) {
      out.catalogs.push_back(sink.TakeCatalog(static_cast<uint32_t>(i)));
    } else {
      out.catalogs.push_back(out.batch.documents[i].status());
    }
  }
  return out;
}

/// The byte-comparable projection of one extraction: separator, table
/// size, partition sizes, and the catalog's full SQL dump.
inline std::string Golden(const ExtractionOutcome& outcome,
                          const db::Catalog& catalog) {
  std::string out = "separator=" + outcome.separator + "\n";
  out += "table_entries=" + std::to_string(outcome.table.size()) + "\n";
  for (const DataRecordTable& partition : outcome.partitions) {
    out += "partition=" + std::to_string(partition.size()) + "\n";
  }
  out += db::ToSqlDump(catalog);
  return out;
}

inline std::string Golden(const CatalogExtraction& extraction) {
  return Golden(extraction.outcome, extraction.catalog);
}

}  // namespace testing_util
}  // namespace webrbd

#endif  // WEBRBD_TESTS_EXTRACT_EXTRACT_TEST_UTIL_H_
