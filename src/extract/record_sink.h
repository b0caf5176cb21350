// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// The RecordSink output abstraction: where extracted records GO.
//
// The extraction pipeline historically returned an in-memory db::Catalog
// per document and nothing else — output and extraction were welded
// together. The sink API inverts that: ExtractDocumentInto /
// ExtractCorpusInto (extract/extraction_context.h) deliver each populated
// record (store/record_codec.h's StoredRecord, aliased PopulatedRecord
// here) through a RecordSink, and the destination — an in-memory catalog,
// a persistent page store, a test buffer, several at once — is the
// caller's choice; CatalogSink recovers the per-document db::Catalog.
//
// Delivery contract (what ExtractCorpusInto guarantees a sink):
//   - Write is called from ONE thread at a time per extraction call, in
//     deterministic order: records arrive grouped by document, documents
//     in corpus input order, records in partition order within each
//     document — independent of worker-thread count.
//   - Failed documents deliver no records.
//   - Flush is called once, after the last Write of the batch.
// A sink shared across CONCURRENT extraction calls (the serving daemon)
// must synchronize internally; StoreSink does.

#ifndef WEBRBD_EXTRACT_RECORD_SINK_H_
#define WEBRBD_EXTRACT_RECORD_SINK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "db/catalog.h"
#include "store/record_codec.h"
#include "util/result.h"
#include "util/status.h"

namespace webrbd {

class DatabaseInstanceGenerator;

namespace store {
class RecordStore;
}  // namespace store

/// The pipeline's output unit (see store/record_codec.h).
using PopulatedRecord = store::StoredRecord;

/// Destination for populated records.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Delivers one record. A non-OK return fails the producing document
  /// (single-document extraction) or the whole delivery (corpus
  /// extraction) — sinks that prefer per-document error isolation record
  /// the error internally and return OK (CatalogSink does).
  [[nodiscard]] virtual Status Write(const PopulatedRecord& record) = 0;

  /// Durability point: called once after the last Write of a corpus
  /// extraction. Default no-op.
  [[nodiscard]] virtual Status Flush() { return Status::OK(); }
};

/// Collects records in memory, in delivery order. Never fails. Used by
/// tests and by the corpus engine's per-document staging.
class BufferSink final : public RecordSink {
 public:
  [[nodiscard]] Status Write(const PopulatedRecord& record) override {
    records_.push_back(record);
    return Status::OK();
  }

  const std::vector<PopulatedRecord>& records() const { return records_; }
  std::vector<PopulatedRecord> TakeRecords() { return std::move(records_); }

 private:
  std::vector<PopulatedRecord> records_;
};

/// Materializes records as in-memory relational catalogs — the paper's
/// "populated database".
///
/// Catalogs are grouped by the records' document_index; entity-row ids
/// restart at 1 per document (id = record_index + 1). Insert errors are
/// isolated per document: Write returns OK and the error surfaces from
/// that document's TakeCatalog, so one bad document never fails a batch.
class CatalogSink final : public RecordSink {
 public:
  /// `generator` supplies the database scheme and row assembly; the
  /// producing ExtractionContext's instance_generator() is the right
  /// value. A null generator fails every Write.
  explicit CatalogSink(
      std::shared_ptr<const DatabaseInstanceGenerator> generator);
  ~CatalogSink() override;

  [[nodiscard]] Status Write(const PopulatedRecord& record) override;

  /// Yields (and forgets) the catalog of `document_index`: an empty
  /// scheme-shaped catalog when the document delivered no records, or the
  /// document's first insert error.
  Result<db::Catalog> TakeCatalog(uint32_t document_index = 0);

 private:
  std::shared_ptr<const DatabaseInstanceGenerator> generator_;
  std::map<uint32_t, Result<db::Catalog>> catalogs_;
};

/// Appends records to a persistent store (store/record_store.h).
/// Internally synchronized: concurrent extractions (the daemon's request
/// threads) may share one StoreSink. Write and Flush errors propagate —
/// a failing backend fails the extraction that hit it.
class StoreSink final : public RecordSink {
 public:
  /// The store is borrowed and must outlive the sink.
  explicit StoreSink(store::RecordStore* store) : store_(store) {}

  [[nodiscard]] Status Write(const PopulatedRecord& record) override;
  [[nodiscard]] Status Flush() override;

  uint64_t records_written() const;

 private:
  mutable std::mutex mutex_;
  store::RecordStore* store_;
  uint64_t records_written_ = 0;
};

/// Fans every record out to several sinks (e.g. render from a catalog AND
/// ingest into a store). Writes stop at the first failing sink.
class TeeSink final : public RecordSink {
 public:
  explicit TeeSink(std::vector<RecordSink*> sinks)
      : sinks_(std::move(sinks)) {}

  [[nodiscard]] Status Write(const PopulatedRecord& record) override {
    for (RecordSink* sink : sinks_) {
      Status written = sink->Write(record);
      if (!written.ok()) return written;
    }
    return Status::OK();
  }

  [[nodiscard]] Status Flush() override {
    for (RecordSink* sink : sinks_) {
      Status flushed = sink->Flush();
      if (!flushed.ok()) return flushed;
    }
    return Status::OK();
  }

 private:
  std::vector<RecordSink*> sinks_;
};

}  // namespace webrbd

#endif  // WEBRBD_EXTRACT_RECORD_SINK_H_
