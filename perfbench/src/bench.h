// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Shared pieces of the benchmark driver: seeded workload inputs, the
// record digest and ground-truth scoring behind the correctness gates,
// store helpers, and the traced replay of the extraction path.

#ifndef WEBRBD_PERFBENCH_BENCH_H_
#define WEBRBD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extract/extraction_context.h"
#include "extract/record_sink.h"
#include "extract/template_cache.h"
#include "gen/site_template.h"
#include "ontology/bundled.h"
#include "ontology/model.h"
#include "store/file_interface.h"
#include "store/record_store.h"
#include "trace.h"

namespace perfbench {

using webrbd::Domain;
using webrbd::PopulatedRecord;

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);
/// Peak resident set size of this process, in MB.
double PeakRssMb();

// ---- Inputs ---------------------------------------------------------------

/// The listing pages of one domain plus its bundled ontology.
struct DomainCorpus {
  Domain domain = Domain::kObituaries;
  webrbd::Ontology ontology;
  std::vector<webrbd::gen::GeneratedDocument> docs;
  std::vector<std::string_view> pages;  // views into docs[i].html
  size_t bytes = 0;
};

/// corpus_full: the calibration and test sites of all four domains, with
/// the document index offset by the seed.
std::vector<DomainCorpus> MakeFullCorpus(uint64_t seed);

/// serve_mixed's page pool: obituary listing pages from the calibration
/// sites with short record lists, so one request costs a few milliseconds.
std::vector<webrbd::gen::GeneratedDocument> MakeServePool(uint64_t seed,
                                                          size_t pages);

/// The structure-only ontology of template_skew: an entity with no object
/// sets, so no matching rule exists and the recognizer never runs.
const webrbd::Ontology& StructureOnlyOntology();

// ---- Digests and scoring ---------------------------------------------------

/// Digest of one record's content (fields in order), document index
/// excluded.
uint64_t RecordContentDigest(const PopulatedRecord& record);

/// Forwards every record to `inner` and folds each acknowledged one into an
/// order-sensitive digest.
class DigestSink final : public webrbd::RecordSink {
 public:
  explicit DigestSink(webrbd::RecordSink* inner) : inner_(inner) {}
  [[nodiscard]] webrbd::Status Write(const PopulatedRecord& record) override;
  [[nodiscard]] webrbd::Status Flush() override { return inner_->Flush(); }
  uint64_t digest() const { return digest_; }
  uint64_t count() const { return count_; }

 private:
  webrbd::RecordSink* inner_;
  uint64_t digest_ = 14695981039346656037ull;
  uint64_t count_ = 0;
};

/// Folds `record` into an order-sensitive running digest.
uint64_t FoldRecord(uint64_t digest, const PopulatedRecord& record);

/// Field-level scoring the way eval::MeasureExtractionQuality scores:
/// documents whose record count differs from the truth are skipped, every
/// other record's (field, value) pairs are matched against the truth.
struct Quality {
  size_t truth = 0;
  size_t extracted = 0;
  size_t correct = 0;
  size_t documents = 0;
  size_t separators_correct = 0;

  void ScoreDocument(const webrbd::gen::GeneratedDocument& truth,
                     const std::string& separator,
                     const std::vector<PopulatedRecord>& records);
  /// Scores `records` against `reference` record by record (same count
  /// required), for corpora whose generator keeps no field truth.
  void ScoreAgainst(const std::vector<PopulatedRecord>& reference,
                    const std::string& reference_separator,
                    const std::string& separator,
                    const std::vector<PopulatedRecord>& records);
  double Precision() const;
  double Recall() const;
  double F1() const;
  double SeparatorAccuracy() const;
};

// ---- Store -----------------------------------------------------------------

/// FileInterface decorator counting the bytes and pages written through it.
class CountingFile final : public webrbd::store::FileInterface {
 public:
  explicit CountingFile(std::unique_ptr<FileInterface> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] webrbd::Status ReadPage(uint64_t page_index, size_t page_size,
                                        char* out) override {
    return inner_->ReadPage(page_index, page_size, out);
  }
  [[nodiscard]] webrbd::Status WritePage(uint64_t page_index,
                                         size_t page_size,
                                         const char* data) override {
    bytes_written_ += page_size;
    ++pages_written_;
    return inner_->WritePage(page_index, page_size, data);
  }
  [[nodiscard]] webrbd::Status Sync() override { return inner_->Sync(); }
  [[nodiscard]] webrbd::Result<uint64_t> SizeBytes() override {
    return inner_->SizeBytes();
  }
  [[nodiscard]] webrbd::Status Truncate(uint64_t bytes) override {
    return inner_->Truncate(bytes);
  }
  std::string DebugName() const override { return inner_->DebugName(); }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t pages_written() const { return pages_written_; }

 private:
  std::unique_ptr<FileInterface> inner_;
  uint64_t bytes_written_ = 0;
  uint64_t pages_written_ = 0;
};

/// Creates (truncating) a POSIX-backed store at `path`. `counter`, when
/// non-null, receives the counting decorator the store writes through.
webrbd::Result<std::unique_ptr<webrbd::store::RecordStore>> CreateStore(
    const std::string& path, CountingFile** counter = nullptr);

/// Opens an existing POSIX-backed store (recovery included).
webrbd::Result<std::unique_ptr<webrbd::store::RecordStore>> ReopenStore(
    const std::string& path);

/// Reads every record of `store` in key order.
webrbd::Result<std::vector<PopulatedRecord>> ReadAll(
    webrbd::store::RecordStore& store);

/// The seeded query phase: point lookups, short range scans and filtered
/// range scans over the whole key space.
struct QueryPhase {
  std::vector<double> latencies_us;
  uint64_t returned = 0;
  uint64_t decoded = 0;  // counted through ScanOptions.filter
  bool ok = true;
};
QueryPhase RunQueries(webrbd::store::RecordStore& store, uint64_t seed,
                      size_t queries, bool count_decoded);

// ---- Traced replay ---------------------------------------------------------

/// Everything the replay of one document needs from its context.
struct ReplayTarget {
  const webrbd::ExtractionContext* context = nullptr;
  webrbd::TemplateCache* cache = nullptr;  // null: memoization off
};

/// Per-replay counters that are not times.
struct ReplayCounts {
  uint64_t tokens = 0;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t fallbacks = 0;
  uint64_t discover_calls = 0;
  uint64_t drt_entries = 0;
  uint64_t records = 0;
  uint64_t recognized_bytes = 0;
  uint64_t input_bytes = 0;
};

/// Sink decorator timing each Write and the Flush as spans.
class TimedSink final : public webrbd::RecordSink {
 public:
  TimedSink(webrbd::RecordSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] webrbd::Status Write(const PopulatedRecord& record) override;
  [[nodiscard]] webrbd::Status Flush() override;

 private:
  webrbd::RecordSink* inner_;
  Tracer* tracer_;
};

/// Replays a whole corpus on one thread the way ExtractCorpusInto runs it:
/// per-document replay into staging buffers, then the serial delivery tail
/// into `sink` and one Flush. Document ids start at `first_id`.
struct CorpusReplay {
  std::vector<std::string> separators;  // "" for failed documents
  std::vector<std::vector<PopulatedRecord>> records;
  bool sink_ok = true;
};
CorpusReplay ReplayCorpus(const ReplayTarget& target,
                          const std::vector<std::string_view>& pages,
                          webrbd::RecordSink& sink, Tracer& tracer,
                          int64_t first_id, ReplayCounts& counts);

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_BENCH_H_
