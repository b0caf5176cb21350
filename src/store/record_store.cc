// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "store/record_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/stages.h"

namespace webrbd::store {

namespace {

constexpr size_t kSuperblockProbeBytes = 24;

}  // namespace

RecordStore::RecordStore(Private, std::unique_ptr<FileInterface> file,
                         size_t page_size)
    : file_(std::move(file)), page_size_(page_size) {
  page_buffer_.resize(page_size_);
}

Result<std::unique_ptr<RecordStore>> RecordStore::Open(
    std::unique_ptr<FileInterface> file, const StoreOptions& options) {
  if (options.page_size < kMinPageSize ||
      options.page_size > kMaxPageSize) {
    return Status::InvalidArgument("store page size out of range");
  }
  uint64_t size = 0;
  WEBRBD_ASSIGN_OR_RETURN(size, file->SizeBytes());

  size_t page_size = options.page_size;
  if (size == 0) {
    // Fresh store: lay down the superblock.
    std::string superblock(page_size, '\0');
    EncodeSuperblock(page_size, superblock.data());
    Status written = file->WritePage(0, page_size, superblock.data());
    if (!written.ok()) return written;
    Status synced = file->Sync();
    if (!synced.ok()) return synced;
  } else {
    char probe[kSuperblockProbeBytes];
    Status read = file->ReadPage(0, kSuperblockProbeBytes, probe);
    if (!read.ok()) {
      return Status::ParseError("not a store file: " + read.message());
    }
    WEBRBD_ASSIGN_OR_RETURN(page_size,
                            ParseSuperblock(probe, kSuperblockProbeBytes));
  }

  auto store =
      std::make_unique<RecordStore>(Private{}, std::move(file), page_size);

  // Recovery scan: walk data pages in order, rebuild the page min-key
  // table, and stop at the first page that is torn (checksum), missing
  // (beyond EOF), or out of key sequence. Everything from that page on is
  // dropped so the store reopens to a consistent prefix.
  const obs::StoreMetrics& metrics = obs::Store();
  for (uint64_t page = 1;; ++page) {
    Status read = store->file_->ReadPage(page, page_size,
                                         store->page_buffer_.data());
    if (!read.ok()) break;  // beyond EOF: clean end or torn partial page
    metrics.pages_read->Increment();
    Result<PageReader> parsed =
        PageReader::Parse(store->page_buffer_.data(), page_size);
    if (!parsed.ok()) break;  // torn or corrupt page
    if (parsed->min_key() != store->next_key_) break;  // sequence break
    store->page_min_keys_.push_back(parsed->min_key());
    store->next_key_ = parsed->max_key() + 1;
  }
  const uint64_t valid_bytes = (store->page_count() + 1) * page_size;
  if (size > valid_bytes) {
    store->torn_pages_ = (size - valid_bytes + page_size - 1) / page_size;
    metrics.torn_pages->Increment(store->torn_pages_);
    Status truncated = store->file_->Truncate(valid_bytes);
    if (!truncated.ok()) return truncated;
    Status synced = store->file_->Sync();
    if (!synced.ok()) return synced;
  }
  return store;
}

Result<uint64_t> RecordStore::Append(const StoredRecord& record) {
  scratch_.clear();
  Status encoded = EncodeRecord(record, &scratch_);
  if (!encoded.ok()) return encoded;
  if (scratch_.size() > MaxRecordPayload(page_size_)) {
    return Status::InvalidArgument(
        "record payload (" + std::to_string(scratch_.size()) +
        " bytes) exceeds page capacity of " + DebugName());
  }
  const size_t footprint = kRecordLengthBytes + scratch_.size();
  if (kPageHeaderBytes + pending_bytes_ + footprint > page_size_) {
    Status sealed = SealTailPage();
    if (!sealed.ok()) return sealed;
  }
  pending_.push_back(scratch_);
  pending_bytes_ += footprint;
  const uint64_t key = next_key_++;
  obs::Store().records->Increment();
  return key;
}

Status RecordStore::SealTailPage() {
  if (pending_.empty()) return Status::OK();
  PageBuilder builder(page_size_);
  const uint64_t base_key = next_key_ - pending_.size();
  for (size_t i = 0; i < pending_.size(); ++i) {
    Status appended = builder.Append(base_key + i, pending_[i]);
    if (!appended.ok()) return appended;
  }
  builder.Finish(page_buffer_.data());
  const uint64_t page = page_count() + 1;
  Status written = file_->WritePage(page, page_size_, page_buffer_.data());
  if (!written.ok()) return written;
  page_min_keys_.push_back(base_key);
  pending_.clear();
  pending_bytes_ = 0;
  obs::Store().pages_written->Increment();
  return Status::OK();
}

Status RecordStore::Flush() {
  Status sealed = SealTailPage();
  if (!sealed.ok()) return sealed;
  Status synced = file_->Sync();
  if (!synced.ok()) return synced;
  obs::Store().flushes->Increment();
  return Status::OK();
}

// -------------------------------------------------------------- Iterator

struct RecordStore::Iterator::State {
  RecordStore* store = nullptr;
  ScanOptions options;
  Status status = Status::OK();

  // Sealed-page cursor over [page, last_page], fixed at Scan time.
  uint64_t page = 0;       // next file page to read; 0 = done with pages
  uint64_t last_page = 0;  // last page holding a key <= max_key
  std::string page_buffer;
  Result<PageReader> reader = Status::NotFound("unset");
  uint32_t record_in_page = 0;
  bool page_loaded = false;

  // Snapshot of the unsealed tail at Scan time.
  std::vector<std::string> tail;
  uint64_t tail_base_key = 0;
  size_t tail_index = 0;

  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  bool observed = false;

  void ObserveLatency() {
    if (observed) return;
    observed = true;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    obs::Store().query_latency->ObserveNanos(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
};

RecordStore::Iterator::Iterator(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

RecordStore::Iterator::Iterator(Iterator&&) noexcept = default;
RecordStore::Iterator& RecordStore::Iterator::operator=(Iterator&&) noexcept =
    default;

RecordStore::Iterator::~Iterator() {
  if (state_ != nullptr) state_->ObserveLatency();
}

const Status& RecordStore::Iterator::status() const {
  return state_->status;
}

bool RecordStore::Iterator::Next(StoredRecord* record, uint64_t* key) {
  State& s = *state_;
  if (!s.status.ok()) return false;
  const obs::StoreMetrics& metrics = obs::Store();
  for (;;) {
    // Drain the current page.
    if (s.page_loaded) {
      const PageReader& reader = *s.reader;
      while (s.record_in_page < reader.record_count()) {
        const uint32_t i = s.record_in_page++;
        const uint64_t record_key = reader.key(i);
        if (record_key < s.options.min_key) continue;
        if (record_key > s.options.max_key) {
          s.ObserveLatency();
          return false;  // keys are sorted: nothing further can match
        }
        Result<StoredRecord> decoded = DecodeRecord(reader.payload(i));
        if (!decoded.ok()) {
          s.status = decoded.status();
          s.ObserveLatency();
          return false;
        }
        if (s.options.filter && !s.options.filter(*decoded)) continue;
        *record = std::move(decoded).value();
        if (key != nullptr) *key = record_key;
        return true;
      }
      s.page_loaded = false;
      ++s.page;
    }
    // Load the next sealed page, if any remain in range.
    if (s.page != 0 && s.page <= s.last_page) {
      Status read = s.store->file_->ReadPage(s.page, s.store->page_size_,
                                             s.page_buffer.data());
      if (!read.ok()) {
        s.status = read;
        s.ObserveLatency();
        return false;
      }
      metrics.pages_read->Increment();
      s.reader = PageReader::Parse(s.page_buffer.data(),
                                   s.store->page_size_);
      if (!s.reader.ok()) {
        s.status = s.reader.status();
        s.ObserveLatency();
        return false;
      }
      s.record_in_page = 0;
      s.page_loaded = true;
      continue;
    }
    s.page = 0;
    // Drain the tail snapshot.
    while (s.tail_index < s.tail.size()) {
      const size_t i = s.tail_index++;
      const uint64_t record_key = s.tail_base_key + i;
      if (record_key < s.options.min_key) continue;
      if (record_key > s.options.max_key) break;
      Result<StoredRecord> decoded = DecodeRecord(s.tail[i]);
      if (!decoded.ok()) {
        s.status = decoded.status();
        s.ObserveLatency();
        return false;
      }
      if (s.options.filter && !s.options.filter(*decoded)) continue;
      *record = std::move(decoded).value();
      if (key != nullptr) *key = record_key;
      return true;
    }
    s.ObserveLatency();
    return false;
  }
}

RecordStore::Iterator RecordStore::Scan(const ScanOptions& options) {
  auto state = std::make_unique<Iterator::State>();
  state->store = this;
  state->options = options;
  state->page_buffer.resize(page_size_);
  state->tail = pending_;
  state->tail_base_key = next_key_ - pending_.size();

  // Page bounds from the min-key table: the first page is the last one
  // whose min_key <= min_key, the last page the last one whose min_key <=
  // max_key. Both are 1-based file pages (upper_bound counts the pages at
  // or below a key), kept as numbers because a later Append may
  // reallocate the table. A range starting in the tail reads no page.
  if (options.min_key < state->tail_base_key &&
      options.min_key <= options.max_key) {
    const auto begin = page_min_keys_.begin();
    const auto end = page_min_keys_.end();
    state->page = static_cast<uint64_t>(
        std::upper_bound(begin, end, options.min_key) - begin);
    state->last_page = static_cast<uint64_t>(
        std::upper_bound(begin, end, options.max_key) - begin);
  }
  return Iterator(std::move(state));
}

}  // namespace webrbd::store
