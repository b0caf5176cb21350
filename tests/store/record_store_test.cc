// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// RecordStore suite: append/scan semantics, durability (clean reopen and
// torn-tail recovery), backend-swap golden equivalence (memory and POSIX
// backends must produce byte-identical files), page-index exactness (a
// scan reads only the pages it returns records from), and the
// million-record POSIX ingest.

#include "store/record_store.h"

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "store/file_interface.h"
#include "store/page.h"

namespace webrbd::store {
namespace {

StoredRecord MakeRecord(uint32_t doc, uint32_t index) {
  StoredRecord record;
  record.document_index = doc;
  record.record_index = index;
  record.entity = "Entity";
  record.fields = {{"name", "value-" + std::to_string(doc) + "-" +
                               std::to_string(index)},
                   {"tag", index % 2 == 0 ? "even" : "odd"}};
  return record;
}

// Reads the whole backend through the page interface (the file is always
// a whole number of pages once flushed).
std::string DumpBytes(FileInterface* file, size_t page_size) {
  auto size = file->SizeBytes();
  EXPECT_TRUE(size.ok());
  EXPECT_EQ(*size % page_size, 0u);
  std::string bytes;
  std::string page(page_size, '\0');
  for (uint64_t i = 0; i < *size / page_size; ++i) {
    EXPECT_TRUE(file->ReadPage(i, page_size, page.data()).ok());
    bytes += page;
  }
  return bytes;
}

// Forwards to a wrapped backend, counting page reads.
class CountingFile : public FileInterface {
 public:
  explicit CountingFile(std::unique_ptr<FileInterface> inner)
      : inner_(std::move(inner)) {}

  Status ReadPage(uint64_t page_index, size_t page_size,
                  char* out) override {
    ++reads;
    return inner_->ReadPage(page_index, page_size, out);
  }
  Status WritePage(uint64_t page_index, size_t page_size,
                   const char* data) override {
    return inner_->WritePage(page_index, page_size, data);
  }
  Status Sync() override { return inner_->Sync(); }
  Result<uint64_t> SizeBytes() override { return inner_->SizeBytes(); }
  Status Truncate(uint64_t bytes) override {
    return inner_->Truncate(bytes);
  }
  std::string DebugName() const override { return inner_->DebugName(); }

  uint64_t reads = 0;

 private:
  std::unique_ptr<FileInterface> inner_;
};

std::vector<StoredRecord> Drain(RecordStore::Iterator it,
                                std::vector<uint64_t>* keys = nullptr) {
  std::vector<StoredRecord> records;
  StoredRecord record;
  uint64_t key = 0;
  while (it.Next(&record, &key)) {
    records.push_back(record);
    if (keys != nullptr) keys->push_back(key);
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return records;
}

TEST(RecordStoreTest, FreshStoreIsEmpty) {
  auto opened = RecordStore::Open(MakeMemoryFile());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->record_count(), 0u);
  EXPECT_EQ((*opened)->page_count(), 0u);
  EXPECT_EQ((*opened)->torn_pages_recovered(), 0u);
  EXPECT_TRUE(Drain((*opened)->Scan()).empty());
}

TEST(RecordStoreTest, AppendAssignsDenseKeys) {
  auto opened = RecordStore::Open(MakeMemoryFile());
  ASSERT_TRUE(opened.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    auto key = (*opened)->Append(MakeRecord(0, i));
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(*key, i);
  }
  EXPECT_EQ((*opened)->record_count(), 10u);
}

TEST(RecordStoreTest, ScanSeesUnflushedTail) {
  StoreOptions options;
  options.page_size = 256;
  auto opened = RecordStore::Open(MakeMemoryFile(), options);
  ASSERT_TRUE(opened.ok());
  RecordStore& store = **opened;
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(1, i)).ok());
  }
  EXPECT_GT(store.page_count(), 0u);       // some pages auto-sealed
  EXPECT_GT(store.pending_records(), 0u);  // and a buffered tail remains

  std::vector<uint64_t> keys;
  const auto records = Drain(store.Scan(), &keys);
  ASSERT_EQ(records.size(), 40u);
  for (uint32_t i = 0; i < 40; ++i) {
    EXPECT_EQ(keys[i], i);
    EXPECT_TRUE(records[i] == MakeRecord(1, i)) << "key " << i;
  }
}

TEST(RecordStoreTest, RangeAndFilterScan) {
  StoreOptions options;
  options.page_size = 256;
  auto opened = RecordStore::Open(MakeMemoryFile(), options);
  ASSERT_TRUE(opened.ok());
  RecordStore& store = **opened;
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Append(MakeRecord(2, i)).ok());
  }

  ScanOptions scan;
  scan.min_key = 25;
  scan.max_key = 60;
  std::vector<uint64_t> keys;
  auto records = Drain(store.Scan(scan), &keys);
  ASSERT_EQ(records.size(), 36u);
  EXPECT_EQ(keys.front(), 25u);
  EXPECT_EQ(keys.back(), 60u);

  scan.filter = [](const StoredRecord& record) {
    return record.fields[1].second == "even";
  };
  records = Drain(store.Scan(scan));
  ASSERT_EQ(records.size(), 18u);
  for (const StoredRecord& record : records) {
    EXPECT_EQ(record.record_index % 2, 0u);
  }
}

TEST(RecordStoreTest, FlushReopenRecoversEverything) {
  StoreOptions options;
  options.page_size = 256;
  auto file = MakeMemoryFile();
  FileInterface* raw = file.get();
  auto opened = RecordStore::Open(std::move(file), options);
  ASSERT_TRUE(opened.ok());
  for (uint32_t i = 0; i < 75; ++i) {
    ASSERT_TRUE((*opened)->Append(MakeRecord(3, i)).ok());
  }
  ASSERT_TRUE((*opened)->Flush().ok());
  const std::string bytes = DumpBytes(raw, options.page_size);
  opened->reset();  // "close the process"

  // Reopen over the same bytes with DEFAULT options: the page size must
  // come from the superblock, not the caller.
  auto reopened = RecordStore::Open(MakeMemoryFile(bytes));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_size(), 256u);
  EXPECT_EQ((*reopened)->record_count(), 75u);
  EXPECT_EQ((*reopened)->torn_pages_recovered(), 0u);
  const auto records = Drain((*reopened)->Scan());
  ASSERT_EQ(records.size(), 75u);
  for (uint32_t i = 0; i < 75; ++i) {
    EXPECT_TRUE(records[i] == MakeRecord(3, i)) << "key " << i;
  }

  // And appends continue the dense key sequence.
  auto key = (*reopened)->Append(MakeRecord(3, 75));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, 75u);
}

TEST(RecordStoreTest, UnflushedTailIsLostButPrefixSurvives) {
  StoreOptions options;
  options.page_size = 256;
  auto file = MakeMemoryFile();
  FileInterface* raw = file.get();
  auto opened = RecordStore::Open(std::move(file), options);
  ASSERT_TRUE(opened.ok());
  for (uint32_t i = 0; i < 30; ++i) {
    ASSERT_TRUE((*opened)->Append(MakeRecord(4, i)).ok());
  }
  const uint64_t sealed_pages = (*opened)->page_count();
  const uint64_t durable =
      30 - static_cast<uint64_t>((*opened)->pending_records());
  // No Flush: only auto-sealed pages are in the backend.
  const std::string bytes = DumpBytes(raw, options.page_size);
  opened->reset();

  auto reopened = RecordStore::Open(MakeMemoryFile(bytes));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->record_count(), durable);
  EXPECT_EQ((*reopened)->page_count(), sealed_pages);
}

TEST(RecordStoreTest, TornTailPageIsDroppedOnReopen) {
  StoreOptions options;
  options.page_size = 256;
  auto file = MakeMemoryFile();
  FileInterface* raw = file.get();
  auto opened = RecordStore::Open(std::move(file), options);
  ASSERT_TRUE(opened.ok());
  for (uint32_t i = 0; i < 60; ++i) {
    ASSERT_TRUE((*opened)->Append(MakeRecord(5, i)).ok());
  }
  ASSERT_TRUE((*opened)->Flush().ok());
  const std::string bytes = DumpBytes(raw, options.page_size);
  opened->reset();
  ASSERT_GE(bytes.size() / options.page_size, 3u);

  // A torn final write: only half of the last page made it to disk.
  for (const size_t cut : {options.page_size / 2, size_t{1}}) {
    auto torn = MakeMemoryFile(bytes.substr(0, bytes.size() - cut));
    auto reopened = RecordStore::Open(std::move(torn));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->torn_pages_recovered(), 1u);
    const auto records = Drain((*reopened)->Scan());
    EXPECT_LT(records.size(), 60u);
    for (size_t i = 0; i < records.size(); ++i) {  // intact dense prefix
      EXPECT_TRUE(records[i] == MakeRecord(5, static_cast<uint32_t>(i)));
    }
    // The store stays writable after recovery, keys still dense.
    auto key = (*reopened)->Append(MakeRecord(5, 60));
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(*key, records.size());
  }
}

TEST(RecordStoreTest, CorruptTailPageIsDroppedOnReopen) {
  StoreOptions options;
  options.page_size = 256;
  auto file = MakeMemoryFile();
  FileInterface* raw = file.get();
  auto opened = RecordStore::Open(std::move(file), options);
  ASSERT_TRUE(opened.ok());
  for (uint32_t i = 0; i < 60; ++i) {
    ASSERT_TRUE((*opened)->Append(MakeRecord(6, i)).ok());
  }
  ASSERT_TRUE((*opened)->Flush().ok());
  std::string bytes = DumpBytes(raw, options.page_size);
  opened->reset();

  // Flip one byte inside the final page's payload (full-size file, bad
  // checksum — the other torn-write shape).
  bytes[bytes.size() - options.page_size + kPageHeaderBytes + 1] ^= 0x20;
  auto reopened = RecordStore::Open(MakeMemoryFile(bytes));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->torn_pages_recovered(), 1u);
  EXPECT_LT((*reopened)->record_count(), 60u);
}

TEST(RecordStoreTest, RejectsNonStoreFileAndBadOptions) {
  EXPECT_FALSE(RecordStore::Open(MakeMemoryFile("this is not a store file "
                                                "but it is long enough"))
                   .ok());
  StoreOptions tiny;
  tiny.page_size = 16;  // below kMinPageSize
  EXPECT_FALSE(RecordStore::Open(MakeMemoryFile(), tiny).ok());
  StoreOptions unaligned;
  unaligned.page_size = 1000;
  // Any size in [kMinPageSize, kMaxPageSize] is legal (no power-of-two
  // requirement) — document that by asserting it works.
  EXPECT_TRUE(RecordStore::Open(MakeMemoryFile(), unaligned).ok());
}

TEST(RecordStoreTest, RejectsOversizeRecord) {
  StoreOptions options;
  options.page_size = 256;
  auto opened = RecordStore::Open(MakeMemoryFile(), options);
  ASSERT_TRUE(opened.ok());
  StoredRecord record;
  record.entity = "E";
  record.fields = {{"f", std::string(4096, 'x')}};
  EXPECT_EQ((*opened)->Append(record).status().code(),
            Status::Code::kInvalidArgument);
  // The store remains usable.
  EXPECT_TRUE((*opened)->Append(MakeRecord(0, 0)).ok());
}

TEST(RecordStoreTest, BackendSwapGoldenEquivalence) {
  // The same append sequence through the memory backend and the POSIX
  // backend must produce byte-identical files — the backend contract is
  // pages in, pages out, nothing backend-specific in the format.
  StoreOptions options;
  options.page_size = 512;

  auto memory_file = MakeMemoryFile();
  FileInterface* memory_raw = memory_file.get();
  auto memory_store = RecordStore::Open(std::move(memory_file), options);
  ASSERT_TRUE(memory_store.ok());

  const std::string path =
      testing::TempDir() + "/webrbd_backend_swap.store";
  std::remove(path.c_str());
  auto posix_file = OpenPosixFile(path, /*create=*/true);
  ASSERT_TRUE(posix_file.ok());
  FileInterface* posix_raw = posix_file->get();
  auto posix_store =
      RecordStore::Open(std::move(posix_file).value(), options);
  ASSERT_TRUE(posix_store.ok()) << posix_store.status().ToString();

  for (uint32_t doc = 0; doc < 7; ++doc) {
    for (uint32_t i = 0; i < 33; ++i) {
      ASSERT_TRUE((*memory_store)->Append(MakeRecord(doc, i)).ok());
      ASSERT_TRUE((*posix_store)->Append(MakeRecord(doc, i)).ok());
    }
  }
  ASSERT_TRUE((*memory_store)->Flush().ok());
  ASSERT_TRUE((*posix_store)->Flush().ok());

  const std::string memory_bytes = DumpBytes(memory_raw, options.page_size);
  const std::string posix_bytes = DumpBytes(posix_raw, options.page_size);
  ASSERT_FALSE(memory_bytes.empty());
  EXPECT_EQ(memory_bytes, posix_bytes);

  // Cross-open: bytes written by one backend open through the other.
  posix_store->reset();
  auto crossed = RecordStore::Open(MakeMemoryFile(posix_bytes));
  ASSERT_TRUE(crossed.ok());
  EXPECT_EQ((*crossed)->record_count(), 7u * 33u);
  std::remove(path.c_str());
}

TEST(RecordStoreTest, PointScanReadsExactlyOnePage) {
  // The page index names a point query's page exactly: one read per
  // key, including the last key on each page, on the live store (table
  // built by sealing) and on a reopened one (table built by recovery).
  StoreOptions options;
  options.page_size = 256;
  auto counting = std::make_unique<CountingFile>(MakeMemoryFile());
  CountingFile* live_file = counting.get();
  auto live = RecordStore::Open(std::move(counting), options);
  ASSERT_TRUE(live.ok());
  constexpr uint32_t kRecords = 200;
  for (uint32_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*live)->Append(MakeRecord(7, i)).ok());
  }
  ASSERT_TRUE((*live)->Flush().ok());
  ASSERT_GE((*live)->page_count(), 4u);

  auto reopened_counting = std::make_unique<CountingFile>(
      MakeMemoryFile(DumpBytes(live_file, options.page_size)));
  CountingFile* reopened_file = reopened_counting.get();
  auto reopened = RecordStore::Open(std::move(reopened_counting));
  ASSERT_TRUE(reopened.ok());

  const std::pair<RecordStore*, CountingFile*> stores[] = {
      {live->get(), live_file}, {reopened->get(), reopened_file}};
  for (const auto& [store, file] : stores) {
    for (uint64_t k = 0; k < kRecords; ++k) {
      file->reads = 0;
      ScanOptions scan;
      scan.min_key = k;
      scan.max_key = k;
      std::vector<uint64_t> keys;
      const auto records = Drain(store->Scan(scan), &keys);
      ASSERT_EQ(keys, std::vector<uint64_t>{k});
      EXPECT_TRUE(records[0] == MakeRecord(7, static_cast<uint32_t>(k)));
      EXPECT_EQ(file->reads, 1u) << "key " << k;
    }
    // Ranges that cannot match read nothing at all.
    file->reads = 0;
    ScanOptions past_end;
    past_end.min_key = kRecords;
    EXPECT_TRUE(Drain(store->Scan(past_end)).empty());
    ScanOptions inverted;
    inverted.min_key = 50;
    inverted.max_key = 10;
    EXPECT_TRUE(Drain(store->Scan(inverted)).empty());
    EXPECT_EQ(file->reads, 0u);
  }
}

TEST(RecordStoreTest, SkewedPageFillScansExactlyAfterReopen) {
  // Alternate one huge record with a run of tiny ones, so records per
  // page swing between one and dozens. After a reopen, point and range
  // scans must still land on exactly the right records.
  StoreOptions options;
  options.page_size = 512;
  auto file = MakeMemoryFile();
  FileInterface* raw = file.get();
  auto opened = RecordStore::Open(std::move(file), options);
  ASSERT_TRUE(opened.ok());
  std::mt19937 rng(7);
  std::vector<StoredRecord> expected;
  for (uint32_t run = 0; expected.size() < 3000; ++run) {
    const uint32_t count = run % 2 == 0 ? 1 : 1 + rng() % 40;
    for (uint32_t i = 0; i < count; ++i) {
      StoredRecord record =
          MakeRecord(run, static_cast<uint32_t>(expected.size()));
      record.fields[0].second = std::string(run % 2 == 0 ? 400 : 1, 'x');
      ASSERT_TRUE((*opened)->Append(record).ok());
      expected.push_back(std::move(record));
    }
  }
  ASSERT_TRUE((*opened)->Flush().ok());
  const std::string bytes = DumpBytes(raw, options.page_size);
  opened->reset();

  auto reopened = RecordStore::Open(MakeMemoryFile(bytes));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RecordStore& store = **reopened;
  const uint64_t total = expected.size();
  ASSERT_EQ(store.record_count(), total);
  ASSERT_GT(store.page_count(), 100u);

  for (uint64_t k = 0; k < total; ++k) {
    ScanOptions scan;
    scan.min_key = k;
    scan.max_key = k;
    std::vector<uint64_t> keys;
    const auto records = Drain(store.Scan(scan), &keys);
    ASSERT_EQ(keys, std::vector<uint64_t>{k});
    EXPECT_TRUE(records[0] == expected[k]) << "key " << k;
  }

  std::vector<uint64_t> all_keys;
  const auto all = Drain(store.Scan(), &all_keys);
  ASSERT_EQ(all.size(), total);
  for (int i = 0; i < 300; ++i) {
    ScanOptions scan;
    scan.min_key = rng() % total;
    scan.max_key = scan.min_key + rng() % 200;
    std::vector<uint64_t> keys;
    const auto records = Drain(store.Scan(scan), &keys);
    std::vector<uint64_t> want;
    for (uint64_t key : all_keys) {
      if (key >= scan.min_key && key <= scan.max_key) want.push_back(key);
    }
    ASSERT_EQ(keys, want) << "range " << scan.min_key << ".."
                          << scan.max_key;
    for (size_t j = 0; j < keys.size(); ++j) {
      EXPECT_TRUE(records[j] == expected[keys[j]]) << "key " << keys[j];
    }
  }

  ScanOptions past_end;
  past_end.min_key = total + 100;
  EXPECT_TRUE(Drain(store.Scan(past_end)).empty());
  ScanOptions inverted;
  inverted.min_key = total / 2;
  inverted.max_key = total / 2 - 1;
  EXPECT_TRUE(Drain(store.Scan(inverted)).empty());
}

TEST(RecordStoreTest, MillionRecordPosixIngestRangeQueryAndTornTail) {
  // The acceptance-scale test: a million records into a real POSIX file,
  // reopened fresh, answering a key-range query through the page index —
  // then again with a torn final page.
  const std::string path = testing::TempDir() + "/webrbd_million.store";
  std::remove(path.c_str());
  constexpr uint64_t kRecords = 1'000'000;

  {
    auto file = OpenPosixFile(path, /*create=*/true);
    ASSERT_TRUE(file.ok());
    auto store = RecordStore::Open(std::move(file).value());
    ASSERT_TRUE(store.ok());
    StoredRecord record;
    record.entity = "E";
    for (uint64_t i = 0; i < kRecords; ++i) {
      record.document_index = static_cast<uint32_t>(i / 50);
      record.record_index = static_cast<uint32_t>(i % 50);
      record.fields = {{"n", std::to_string(i)}};
      auto key = (*store)->Append(record);
      ASSERT_TRUE(key.ok());
      ASSERT_EQ(*key, i);
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }

  uint64_t file_pages = 0;
  {
    auto file = OpenPosixFile(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto store = RecordStore::Open(std::move(file).value());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->record_count(), kRecords);
    EXPECT_EQ((*store)->torn_pages_recovered(), 0u);
    file_pages = (*store)->page_count();

    ScanOptions scan;
    scan.min_key = 654'321;
    scan.max_key = 654'345;
    std::vector<uint64_t> keys;
    const auto records = Drain((*store)->Scan(scan), &keys);
    ASSERT_EQ(records.size(), 25u);
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(keys[i], scan.min_key + i);
      EXPECT_EQ(records[i].fields[0].second,
                std::to_string(scan.min_key + i));
    }
  }

  // Tear the final page and reopen: the prefix must still answer.
  {
    auto file = OpenPosixFile(path, /*create=*/false);
    ASSERT_TRUE(file.ok());
    auto size = (*file)->SizeBytes();
    ASSERT_TRUE(size.ok());
    ASSERT_TRUE((*file)->Truncate(*size - 100).ok());
    auto store = RecordStore::Open(std::move(file).value());
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->torn_pages_recovered(), 1u);
    EXPECT_LT((*store)->record_count(), kRecords);
    EXPECT_EQ((*store)->page_count(), file_pages - 1);

    ScanOptions scan;
    scan.min_key = 1000;
    scan.max_key = 1004;
    const auto records = Drain((*store)->Scan(scan));
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].fields[0].second, "1000");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace webrbd::store
