// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <map>
#include <random>

#include "bench.h"
#include "gen/sites.h"
#include "util/fnv.h"

namespace perfbench {

using webrbd::Result;
using webrbd::Status;
namespace gen = webrbd::gen;
namespace store = webrbd::store;

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      std::min(values.size() - 1,
               static_cast<size_t>(std::max(1.0, rank)) - 1);
  return values[index];
}

double PeakRssMb() {
  struct rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Keeps seeded document indexes inside int and away from the unseeded
// calibration (0..4) and test (100) indexes.
int SeedOffset(uint64_t seed) {
  return 1000 + static_cast<int>(seed % 1000003) * 1000;
}

}  // namespace

std::vector<DomainCorpus> MakeFullCorpus(uint64_t seed) {
  const int offset = SeedOffset(seed);
  std::vector<DomainCorpus> corpora;
  for (Domain domain : {Domain::kObituaries, Domain::kCarAds,
                        Domain::kJobAds, Domain::kCourses}) {
    DomainCorpus corpus;
    corpus.domain = domain;
    corpus.ontology = webrbd::BundledOntology(domain).value();
    for (const gen::SiteTemplate& site : gen::CalibrationSites()) {
      for (int doc = 0; doc < gen::kCalibrationDocsPerSite; ++doc) {
        corpus.docs.push_back(gen::RenderDocument(site, domain, offset + doc));
      }
    }
    for (const gen::SiteTemplate& site : gen::TestSites(domain)) {
      corpus.docs.push_back(gen::RenderDocument(site, domain, offset + 100));
    }
    for (const gen::GeneratedDocument& doc : corpus.docs) {
      corpus.pages.emplace_back(doc.html);
      corpus.bytes += doc.html.size();
    }
    corpora.push_back(std::move(corpus));
  }
  return corpora;
}

std::vector<gen::GeneratedDocument> MakeServePool(uint64_t seed,
                                                  size_t pages) {
  const int offset = SeedOffset(seed);
  const std::vector<gen::SiteTemplate>& sites = gen::CalibrationSites();
  std::vector<gen::GeneratedDocument> pool;
  for (size_t i = 0; i < pages; ++i) {
    gen::SiteTemplate site = sites[i % sites.size()];
    site.min_records = 3;
    site.max_records = 6;
    pool.push_back(gen::RenderDocument(site, Domain::kObituaries,
                                       offset + static_cast<int>(i / sites.size())));
  }
  return pool;
}

const webrbd::Ontology& StructureOnlyOntology() {
  static const webrbd::Ontology kOntology("structure-only", "Record", {});
  return kOntology;
}

uint64_t RecordContentDigest(const PopulatedRecord& record) {
  webrbd::FnvHasher fnv;
  fnv.AddU64(record.record_index);
  fnv.AddField(record.entity);
  fnv.AddSize(record.fields.size());
  for (const auto& [name, value] : record.fields) {
    fnv.AddField(name);
    fnv.AddField(value);
  }
  return fnv.hash();
}

uint64_t FoldRecord(uint64_t digest, const PopulatedRecord& record) {
  webrbd::FnvHasher fnv;
  fnv.AddU64(digest);
  fnv.AddU64(record.document_index);
  fnv.AddU64(RecordContentDigest(record));
  return fnv.hash();
}

Status DigestSink::Write(const PopulatedRecord& record) {
  Status written = inner_->Write(record);
  if (!written.ok()) return written;
  digest_ = FoldRecord(digest_, record);
  ++count_;
  return Status::OK();
}

namespace {

// One record's (field, value) multiset against its truth; a value counts
// once per matching truth value.
void ScoreFields(
    const std::vector<std::pair<std::string, std::string>>& truth,
    const std::vector<std::pair<std::string, std::string>>& extracted,
    Quality* quality) {
  std::multimap<std::string, std::string> unclaimed(truth.begin(),
                                                    truth.end());
  quality->truth += truth.size();
  quality->extracted += extracted.size();
  for (const auto& [name, value] : extracted) {
    auto [begin, end] = unclaimed.equal_range(name);
    for (auto it = begin; it != end; ++it) {
      if (it->second == value) {
        ++quality->correct;
        unclaimed.erase(it);
        break;
      }
    }
  }
}

}  // namespace

void Quality::ScoreDocument(const gen::GeneratedDocument& truth,
                            const std::string& separator,
                            const std::vector<PopulatedRecord>& records) {
  ++documents;
  if (truth.IsCorrectSeparator(separator)) ++separators_correct;
  if (records.size() != truth.record_fields.size()) return;
  for (size_t i = 0; i < records.size(); ++i) {
    ScoreFields(truth.record_fields[i], records[i].fields, this);
  }
}

void Quality::ScoreAgainst(const std::vector<PopulatedRecord>& reference,
                           const std::string& reference_separator,
                           const std::string& separator,
                           const std::vector<PopulatedRecord>& records) {
  ++documents;
  if (separator == reference_separator) ++separators_correct;
  if (records.size() != reference.size()) return;
  for (size_t i = 0; i < records.size(); ++i) {
    ScoreFields(reference[i].fields, records[i].fields, this);
  }
}

double Quality::Precision() const {
  return extracted == 0 ? 1.0
                        : static_cast<double>(correct) /
                              static_cast<double>(extracted);
}

double Quality::Recall() const {
  return truth == 0 ? 1.0
                    : static_cast<double>(correct) / static_cast<double>(truth);
}

double Quality::F1() const {
  const double p = Precision();
  const double r = Recall();
  return p + r == 0 ? 0 : 2 * p * r / (p + r);
}

double Quality::SeparatorAccuracy() const {
  return documents == 0 ? 0
                        : static_cast<double>(separators_correct) /
                              static_cast<double>(documents);
}

Result<std::unique_ptr<store::RecordStore>> CreateStore(
    const std::string& path, CountingFile** counter) {
  std::remove(path.c_str());
  auto file = store::OpenPosixFile(path, /*create=*/true);
  if (!file.ok()) return file.status();
  auto counting = std::make_unique<CountingFile>(std::move(file).value());
  if (counter != nullptr) *counter = counting.get();
  return store::RecordStore::Open(std::move(counting));
}

Result<std::unique_ptr<store::RecordStore>> ReopenStore(
    const std::string& path) {
  auto file = store::OpenPosixFile(path, /*create=*/false);
  if (!file.ok()) return file.status();
  return store::RecordStore::Open(std::move(file).value());
}

Result<std::vector<PopulatedRecord>> ReadAll(store::RecordStore& store) {
  std::vector<PopulatedRecord> records;
  store::RecordStore::Iterator it = store.Scan();
  PopulatedRecord record;
  while (it.Next(&record)) records.push_back(record);
  if (!it.status().ok()) return it.status();
  return records;
}

QueryPhase RunQueries(store::RecordStore& store, uint64_t seed,
                      size_t queries, bool count_decoded) {
  QueryPhase phase;
  phase.latencies_us.reserve(queries);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const uint64_t keys = std::max<uint64_t>(1, store.record_count());
  uint64_t decoded = 0;
  for (size_t q = 0; q < queries; ++q) {
    const uint64_t key = rng() % keys;
    const unsigned kind = static_cast<unsigned>(rng() % 10);
    const uint32_t wanted = static_cast<uint32_t>(rng() % 4);
    store::ScanOptions options;
    options.min_key = key;
    if (kind < 4) {
      options.max_key = key;  // point lookup
    } else if (kind < 8) {
      options.max_key = key + 31;  // short range
    } else {
      options.max_key = key + 255;  // filtered range: a quarter survives
      options.filter = [&decoded, wanted](const PopulatedRecord& record) {
        ++decoded;
        return record.document_index % 4 == wanted;
      };
    }
    if (count_decoded && !options.filter) {
      options.filter = [&decoded](const PopulatedRecord&) {
        ++decoded;
        return true;
      };
    }
    const int64_t start = NowNs();
    store::RecordStore::Iterator it = store.Scan(options);
    PopulatedRecord record;
    while (it.Next(&record)) ++phase.returned;
    const int64_t stop = NowNs();
    if (!it.status().ok()) phase.ok = false;
    phase.latencies_us.push_back(static_cast<double>(stop - start) * 1e-3);
  }
  phase.decoded = decoded;
  return phase;
}

}  // namespace perfbench
