// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Persistent record store benchmarks (store/record_store.h): ingest
// throughput and query latency at the 1M-record scale the page index
// exists for.
//
//   build/bench/bench_store --benchmark_out=bench_store.json
//       --benchmark_out_format=json
//
// Reading the output (see docs/storage.md):
//   - BM_StoreIngest/N: append N records through a memory backend —
//     encode + page-sealing CPU cost, no kernel in the loop.
//     bytes_per_second is encoded-payload MB/s, items_per_second
//     records/sec.
//   - BM_StoreIngestPosix/N: the same appends through the POSIX backend
//     plus a final Flush — what `webrbd_cli store` pays end to end.
//   - BM_StoreRangeQueryIndexed: a 25-key range query against a sealed
//     1M-record store, positioned by the page min-key table.
//   - BM_StoreRangeQueryFullScan: the same query forced to scan from key
//     0 (the no-index baseline). CI's bench-smoke floor requires the
//     indexed path >= 5x this.
//   - BM_StorePointQueryIndexed: single-record lookups at random keys.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "store/file_interface.h"
#include "store/record_store.h"

namespace webrbd::store {
namespace {

StoredRecord BenchRecord(uint64_t i) {
  StoredRecord record;
  record.document_index = static_cast<uint32_t>(i / 50);
  record.record_index = static_cast<uint32_t>(i % 50);
  record.entity = "Deceased";
  record.fields = {{"DeceasedName", "Person " + std::to_string(i)},
                   {"Age", "age " + std::to_string(20 + i % 70)},
                   {"DeathDate", "April " + std::to_string(1 + i % 28) +
                                     ", 1998"}};
  return record;
}

size_t EncodedBytes(uint64_t records) {
  std::string wire;
  for (uint64_t i = 0; i < 64; ++i) {
    (void)EncodeRecord(BenchRecord(i), &wire);
  }
  return wire.size() / 64 * records;
}

// Deterministic 64-bit mix for query positions (SplitMix64).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void BM_StoreIngest(benchmark::State& state) {
  const auto records = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto store = RecordStore::Open(MakeMemoryFile()).value();
    for (uint64_t i = 0; i < records; ++i) {
      benchmark::DoNotOptimize(store->Append(BenchRecord(i)));
    }
    if (!store->Flush().ok()) state.SkipWithError("flush failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(EncodedBytes(records)));
}
BENCHMARK(BM_StoreIngest)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_StoreIngestPosix(benchmark::State& state) {
  const auto records = static_cast<uint64_t>(state.range(0));
  const std::string path = "/tmp/webrbd_bench_ingest.store";
  for (auto _ : state) {
    std::remove(path.c_str());
    auto file = OpenPosixFile(path, /*create=*/true);
    if (!file.ok()) {
      state.SkipWithError("cannot create store file");
      break;
    }
    auto store = RecordStore::Open(std::move(file).value()).value();
    for (uint64_t i = 0; i < records; ++i) {
      benchmark::DoNotOptimize(store->Append(BenchRecord(i)));
    }
    if (!store->Flush().ok()) state.SkipWithError("flush failed");
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(EncodedBytes(records)));
}
BENCHMARK(BM_StoreIngestPosix)->Arg(100000)->Unit(benchmark::kMillisecond);

constexpr uint64_t kQueryStoreRecords = 1'000'000;
constexpr uint64_t kRangeWidth = 25;

// The sealed 1M-record store every query benchmark reads (built once).
RecordStore& QueryStore() {
  static std::unique_ptr<RecordStore> store = []() {
    auto s = RecordStore::Open(MakeMemoryFile()).value();
    for (uint64_t i = 0; i < kQueryStoreRecords; ++i) {
      (void)s->Append(BenchRecord(i));
    }
    (void)s->Flush();
    return s;
  }();
  return *store;
}

uint64_t DrainCount(RecordStore::Iterator it) {
  uint64_t count = 0;
  StoredRecord record;
  while (it.Next(&record)) ++count;
  return count;
}

void BM_StoreRangeQueryIndexed(benchmark::State& state) {
  RecordStore& store = QueryStore();
  uint64_t seed = 0;
  for (auto _ : state) {
    ScanOptions scan;
    scan.min_key = Mix(seed++) % (kQueryStoreRecords - kRangeWidth);
    scan.max_key = scan.min_key + kRangeWidth - 1;
    const uint64_t count = DrainCount(store.Scan(scan));
    if (count != kRangeWidth) state.SkipWithError("wrong range count");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRangeQueryIndexed)->Unit(benchmark::kMicrosecond);

void BM_StoreRangeQueryFullScan(benchmark::State& state) {
  // The no-index baseline: answer the same range query by scanning every
  // page from key 0 and filtering. (A min_key of 0 defeats the page
  // index's skip; the filter keeps the decoded work identical.)
  RecordStore& store = QueryStore();
  uint64_t seed = 0;
  for (auto _ : state) {
    const uint64_t min = Mix(seed++) % (kQueryStoreRecords - kRangeWidth);
    const uint64_t max = min + kRangeWidth - 1;
    ScanOptions scan;  // min_key 0: every page up to max is read
    scan.max_key = max;
    uint64_t count = 0;
    StoredRecord record;
    uint64_t key = 0;
    auto it = store.Scan(scan);
    while (it.Next(&record, &key)) {
      if (key >= min) ++count;
    }
    if (count != kRangeWidth) state.SkipWithError("wrong range count");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRangeQueryFullScan)->Unit(benchmark::kMillisecond);

void BM_StorePointQueryIndexed(benchmark::State& state) {
  RecordStore& store = QueryStore();
  uint64_t seed = 12345;
  for (auto _ : state) {
    ScanOptions scan;
    scan.min_key = Mix(seed++) % kQueryStoreRecords;
    scan.max_key = scan.min_key;
    if (DrainCount(store.Scan(scan)) != 1) {
      state.SkipWithError("point query missed");
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePointQueryIndexed)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace webrbd::store

BENCHMARK_MAIN();
