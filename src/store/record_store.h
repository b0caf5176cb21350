// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// RecordStore: the page-based persistent record store (docs/storage.md).
//
// A store is an append-only sequence of populated records keyed by a
// dense, monotonic ingest sequence (key 0 is the first record ever
// appended). Records buffer in memory and are sealed to fixed-size pages
// (page.h) through a pluggable FileInterface backend. An exact in-memory
// table of page min-keys (8 bytes per sealed page) names a range's first
// and last pages with no I/O, so a scan reads only the pages it covers.
//
// Durability: Flush() seals the buffered tail page and syncs the backend;
// everything appended before a returned-OK Flush survives a crash. On
// Open, data pages are scanned in order — a page that fails its checksum
// (torn final write) or breaks the dense key sequence ends the scan, and
// the file is truncated back to the last valid page: the store always
// reopens to a consistent prefix of what was appended.
//
// Thread safety: none. Callers serialize access (the serving layer wraps
// a store in a mutex-holding StoreSink).

#ifndef WEBRBD_STORE_RECORD_STORE_H_
#define WEBRBD_STORE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "store/file_interface.h"
#include "store/page.h"
#include "store/record_codec.h"
#include "util/result.h"
#include "util/status.h"

namespace webrbd::store {

struct StoreOptions {
  /// Page size for a NEWLY created store file. Reopening an existing
  /// store always uses the size recorded in its superblock. Must lie in
  /// [kMinPageSize, kMaxPageSize].
  size_t page_size = 4096;
};

inline constexpr size_t kMinPageSize = 128;
inline constexpr size_t kMaxPageSize = 1 << 20;

/// Key-range plus optional decoded-record predicate for Scan.
struct ScanOptions {
  uint64_t min_key = 0;
  uint64_t max_key = std::numeric_limits<uint64_t>::max();  // inclusive
  /// Applied to each decoded in-range record; nullptr keeps everything.
  std::function<bool(const StoredRecord&)> filter;
};

class RecordStore {
 public:
  /// Opens a store over `file`. An empty backend is initialized fresh
  /// (superblock written); a non-empty one is recovered as described
  /// above. Fails with kParseError when the backend holds something that
  /// is not a store file, kInvalidArgument on a bad options.page_size.
  static Result<std::unique_ptr<RecordStore>> Open(
      std::unique_ptr<FileInterface> file, const StoreOptions& options = {});

  /// Appends one record and returns its assigned key. The record buffers
  /// in the tail page; a full tail is sealed to the backend
  /// automatically (without a sync — call Flush for durability). Fails
  /// with kInvalidArgument when the encoded record cannot fit any page.
  Result<uint64_t> Append(const StoredRecord& record);

  /// Seals the buffered tail page (if any) and syncs the backend. After
  /// an OK Flush every appended record is durable and visible to a fresh
  /// Open.
  [[nodiscard]] Status Flush();

  /// Streaming cursor over one Scan. Move-only; records the query
  /// latency histogram over its lifetime.
  class Iterator {
   public:
    /// Advances to the next matching record. Returns true and fills
    /// `*record` (and `*key` when non-null); returns false at the end
    /// OR on error — check status() to distinguish.
    bool Next(StoredRecord* record, uint64_t* key = nullptr);

    /// OK while iterating and at a clean end; the first I/O or parse
    /// error stops the iterator and is held here.
    const Status& status() const;

    Iterator(Iterator&&) noexcept;
    Iterator& operator=(Iterator&&) noexcept;
    ~Iterator();

   private:
    friend class RecordStore;
    struct State;
    explicit Iterator(std::unique_ptr<State> state);
    std::unique_ptr<State> state_;
  };

  /// Starts a key-range scan. The iterator sees every record appended
  /// before this call (including the unsealed tail, which is snapshotted)
  /// and must not outlive the store. It reads only the sealed pages whose
  /// key span overlaps [min_key, max_key].
  Iterator Scan(const ScanOptions& options = {});

  /// Total records appended (== the next key to be assigned).
  uint64_t record_count() const { return next_key_; }
  /// Data pages sealed to the backend (excludes the buffered tail).
  uint64_t page_count() const { return page_min_keys_.size(); }
  /// Records buffered in the unsealed tail page.
  size_t pending_records() const { return pending_.size(); }
  /// Invalid tail pages dropped by recovery during Open.
  uint64_t torn_pages_recovered() const { return torn_pages_; }
  size_t page_size() const { return page_size_; }
  std::string DebugName() const { return file_->DebugName(); }

  /// Passkey: only Open can mint one, so construction stays effectively
  /// private while make_unique keeps working.
  class Private {
   private:
    friend class RecordStore;
    Private() = default;
  };
  RecordStore(Private, std::unique_ptr<FileInterface> file, size_t page_size);

 private:

  /// Seals the buffered tail into the next data page (no sync).
  [[nodiscard]] Status SealTailPage();

  std::unique_ptr<FileInterface> file_;
  size_t page_size_;
  // Min key of every sealed data page: entry p-1 holds file page p's
  // (page 0 is the superblock). Strictly increasing (keys are dense), so
  // std::upper_bound locates.
  std::vector<uint64_t> page_min_keys_;

  uint64_t next_key_ = 0;
  uint64_t torn_pages_ = 0;

  // Unsealed tail: encoded payloads and their running page footprint.
  std::vector<std::string> pending_;
  size_t pending_bytes_ = 0;
  std::string scratch_;     // encode buffer, reused across Appends
  std::string page_buffer_;  // page serialization buffer, reused
};

}  // namespace webrbd::store

#endif  // WEBRBD_STORE_RECORD_STORE_H_
