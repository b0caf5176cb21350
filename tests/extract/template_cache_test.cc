// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Template-memoization suite: fingerprint discrimination (tree shape,
// tag-name byte boundaries, salt), fingerprint stability within a
// template (count-invariance), LRU eviction under capacity, and the
// determinism contract — extraction output must be byte-identical with
// the cache on or off, at 1 worker or 8 (the cache may only change
// timing). Compares extractions through the shared Golden projection
// (extract/extract_test_util.h).

#include "extract/template_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/boundary_artifact.h"
#include "extract/extract_test_util.h"
#include "extract/extraction_context.h"
#include "gen/template_skew.h"
#include "html/text_index.h"
#include "html/tree_builder.h"
#include "ontology/bundled.h"

namespace webrbd {
namespace {

using testing_util::ExtractCorpusToCatalogs;
using testing_util::ExtractToCatalog;
using testing_util::Golden;

uint64_t FingerprintOf(const std::string& html, uint64_t salt = 0) {
  auto tree = BuildTagTree(html);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return PageFingerprint(*tree, salt);
}

// ---------------------------------------------------------------------------
// Fingerprint discrimination.

TEST(PageFingerprintTest, SameTagMultisetDifferentShapeDoesNotCollide) {
  // Both pages contain exactly one <div>, one <b>, one <i> (plus chrome):
  // identical tag-name multisets. Nested <b><i> vs sibling <b> <i> must
  // fingerprint differently — the path set distinguishes them.
  const std::string nested =
      "<html><body><div><b><i>x</i></b></div></body></html>";
  const std::string siblings =
      "<html><body><div><b>x</b><i>y</i></div></body></html>";
  EXPECT_NE(FingerprintOf(nested), FingerprintOf(siblings));
}

TEST(PageFingerprintTest, TagNameByteBoundariesDoNotCollide) {
  // The length-prefix discipline: a path of tags ("ab", "c") must not
  // collide with ("a", "bc") even though the concatenated bytes agree.
  const std::string ab_c = "<html><body><ab><c>x</c></ab></body></html>";
  const std::string a_bc = "<html><body><a><bc>x</bc></a></body></html>";
  EXPECT_NE(FingerprintOf(ab_c), FingerprintOf(a_bc));
}

TEST(PageFingerprintTest, RecordCountInvariantWithinTemplate) {
  // Two pages of one "template" differing only in how many records the
  // separator repeats share their distinct tag-path set.
  auto page = [](int records) {
    std::string html = "<html><body><div>";
    for (int i = 0; i < records; ++i) {
      html += "<p><b>name</b> body text</p>";
    }
    html += "</div></body></html>";
    return html;
  };
  EXPECT_EQ(FingerprintOf(page(10)), FingerprintOf(page(25)));
  // But a vocabulary change (emphasis tag swapped) separates templates.
  const std::string other =
      "<html><body><div><p><i>name</i> body text</p></div></body></html>";
  EXPECT_NE(FingerprintOf(page(10)), FingerprintOf(other));
}

TEST(PageFingerprintTest, SaltSeparatesConfigurations) {
  const std::string html = "<html><body><p>x</p></body></html>";
  EXPECT_NE(FingerprintOf(html, 1), FingerprintOf(html, 2));
}

TEST(PageFingerprintTest, SkewTemplatesAreStableWithinAndDistinctAcross) {
  // The generator contract the cache's hit rate rests on: every page of a
  // skew template shares one fingerprint; different templates differ.
  gen::TemplateSkewOptions options;
  options.num_templates = 12;
  options.num_pages = 60;
  options.zipf_exponent = 0.0;  // uniform: every template gets pages
  const auto corpus = gen::GenerateTemplateSkewCorpus(options);
  ASSERT_EQ(corpus.pages.size(), 60u);

  std::vector<uint64_t> fingerprint_of_template(12, 0);
  std::vector<bool> seen(12, false);
  for (size_t i = 0; i < corpus.pages.size(); ++i) {
    const int t = corpus.template_of_page[i];
    const uint64_t fp = FingerprintOf(corpus.pages[i]);
    if (seen[static_cast<size_t>(t)]) {
      EXPECT_EQ(fp, fingerprint_of_template[static_cast<size_t>(t)])
          << "template " << t << " page " << i;
    } else {
      seen[static_cast<size_t>(t)] = true;
      fingerprint_of_template[static_cast<size_t>(t)] = fp;
    }
  }
  for (int a = 0; a < 12; ++a) {
    for (int b = a + 1; b < 12; ++b) {
      if (seen[static_cast<size_t>(a)] && seen[static_cast<size_t>(b)]) {
        EXPECT_NE(fingerprint_of_template[static_cast<size_t>(a)],
                  fingerprint_of_template[static_cast<size_t>(b)])
            << "templates " << a << " and " << b;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cache mechanics.

std::shared_ptr<const BoundaryArtifact> DummyArtifact(const std::string& sep) {
  auto artifact = std::make_shared<BoundaryArtifact>();
  artifact->separator = sep;
  return artifact;
}

TEST(TemplateCacheTest, LookupMissThenHit) {
  TemplateCache cache;
  EXPECT_EQ(cache.Lookup(42), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put(42, DummyArtifact("hr"));
  auto hit = cache.Lookup(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->separator, "hr");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TemplateCacheTest, EraseAndFallbackAccounting) {
  TemplateCache cache;
  cache.Put(7, DummyArtifact("p"));
  cache.RecordFallback();
  cache.Erase(7);
  EXPECT_EQ(cache.fallbacks(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(7), nullptr);
  cache.Erase(7);  // erasing an absent key is a no-op
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TemplateCacheTest, EvictsLeastRecentlyUsedUnderCapacity) {
  // Capacity 16 over 16 shards = 1 entry per shard. Keys 0..15 land in
  // distinct shards; key k and k + 16 share shard k.
  TemplateCache cache(/*capacity=*/16);
  for (uint64_t k = 0; k < 16; ++k) cache.Put(k, DummyArtifact("a"));
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.evictions(), 0u);

  // A second wave into the same shards evicts the first wave, one each.
  for (uint64_t k = 16; k < 32; ++k) cache.Put(k, DummyArtifact("b"));
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.evictions(), 16u);
  EXPECT_EQ(cache.Lookup(0), nullptr);   // evicted
  EXPECT_NE(cache.Lookup(16), nullptr);  // survivor

  // Overwriting an existing key refreshes in place — no eviction.
  cache.Put(16, DummyArtifact("c"));
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.evictions(), 16u);
  EXPECT_EQ(cache.Lookup(16)->separator, "c");

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: cache on vs off, 1 thread vs 8 — byte-identical output.

TEST(TemplateCacheDeterminismTest, CacheOnMatchesCacheOffAtOneAndEightThreads) {
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();

  gen::TemplateSkewOptions skew;
  skew.num_templates = 10;
  skew.num_pages = 50;
  const auto corpus = gen::GenerateTemplateSkewCorpus(skew);

  // Reference: memoization off.
  ContextOptions off_options;
  off_options.template_memoization = TemplateMemoization::kNever;
  auto off_context = ExtractionContext::Create(ontology, off_options);
  ASSERT_TRUE(off_context.ok()) << off_context.status().ToString();

  std::vector<std::string> reference;
  reference.reserve(corpus.pages.size());
  for (const std::string& html : corpus.pages) {
    auto result = ExtractToCatalog(*off_context, html);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference.push_back(Golden(*result));
  }

  for (int threads : {1, 8}) {
    // A fresh private cache per run: hit/miss interleaving differs with
    // the thread count, output must not.
    TemplateCache cache;
    ContextOptions on_options;
    on_options.template_memoization = TemplateMemoization::kAlways;
    on_options.template_cache = &cache;
    auto on_context = ExtractionContext::Create(ontology, on_options);
    ASSERT_TRUE(on_context.ok()) << on_context.status().ToString();

    BatchRunOptions run;
    run.num_threads = threads;
    run.chunk_size = 4;
    auto batch = ExtractCorpusToCatalogs(*on_context, corpus.pages, run);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->catalogs.size(), corpus.pages.size());
    for (size_t i = 0; i < corpus.pages.size(); ++i) {
      ASSERT_TRUE(batch->catalogs[i].ok())
          << batch->catalogs[i].status().ToString();
      EXPECT_EQ(Golden(*batch->batch.documents[i], *batch->catalogs[i]),
                reference[i])
          << "threads=" << threads << " doc=" << i;
    }
    // The cache actually engaged: at least one lookup per page, and a hit
    // for every repeat page (racing misses can only add misses at 8
    // threads, never hits beyond pages - templates).
    EXPECT_EQ(cache.hits() + cache.misses(), corpus.pages.size());
    EXPECT_GE(cache.misses(),
              static_cast<uint64_t>(corpus.distinct_templates_used));
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(cache.fallbacks(), 0u);
    if (threads == 1) {
      // Single-threaded, the arithmetic is exact.
      EXPECT_EQ(cache.misses(),
                static_cast<uint64_t>(corpus.distinct_templates_used));
    }
  }
}

TEST(TemplateCacheDeterminismTest, StandaloneDocumentsDefaultToNoCache) {
  // kAuto: a lone ExtractDocumentInto call must not touch the cache.
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  TemplateCache cache;
  ContextOptions options;
  options.template_cache = &cache;  // kAuto by default
  auto context = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(context.ok());

  gen::TemplateSkewOptions skew;
  skew.num_templates = 1;
  skew.num_pages = 3;
  const auto corpus = gen::GenerateTemplateSkewCorpus(skew);
  for (const std::string& html : corpus.pages) {
    BufferSink sink;
    auto result = context->ExtractDocumentInto(html, sink);
    ASSERT_TRUE(result.ok());
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  // The same pages through ExtractCorpusInto do engage it.
  BufferSink sink;
  auto batch = context->ExtractCorpusInto(corpus.pages, sink);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(cache.hits() + cache.misses(), corpus.pages.size());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TemplateCacheDeterminismTest, ReloadGenerationInvalidatesMemoization) {
  // The serving daemon's hot-reload contract (serve/service.h): a context
  // rebuilt with a bumped ContextOptions::reload_generation must never hit
  // entries memoized by its predecessor — even when the ontology and every
  // other option are byte-identical — because the generation feeds the
  // fingerprint salt. Without this, a reloaded recognizer would replay its
  // predecessor's record boundaries out of the cache.
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();

  gen::TemplateSkewOptions skew;
  skew.num_templates = 2;
  skew.num_pages = 8;
  const auto corpus = gen::GenerateTemplateSkewCorpus(skew);
  const auto templates =
      static_cast<uint64_t>(corpus.distinct_templates_used);
  const auto pages = static_cast<uint64_t>(corpus.pages.size());

  TemplateCache cache;
  ContextOptions options;
  options.template_memoization = TemplateMemoization::kAlways;
  options.template_cache = &cache;

  BatchRunOptions run;
  run.num_threads = 1;  // exact hit/miss arithmetic

  options.reload_generation = 0;
  auto gen0 = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(gen0.ok()) << gen0.status().ToString();
  auto warm = ExtractCorpusToCatalogs(*gen0, corpus.pages, run);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(cache.misses(), templates);
  EXPECT_EQ(cache.hits(), pages - templates);

  options.reload_generation = 1;
  auto gen1 = ExtractionContext::Create(ontology, options);
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_NE(gen1->template_salt(), gen0->template_salt())
      << "the reload generation must separate the fingerprint salts";

  // The same pages through the next generation: the first sighting of
  // each template must MISS (gen0's entries are unreachable under the new
  // salt); only gen1's own fresh entries may be hit.
  auto reloaded = ExtractCorpusToCatalogs(*gen1, corpus.pages, run);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(cache.misses(), 2 * templates);
  EXPECT_EQ(cache.hits(), 2 * (pages - templates));
  EXPECT_EQ(cache.fallbacks(), 0u);
  EXPECT_EQ(cache.size(), 2 * templates)
      << "both generations' entries coexist under distinct keys";

  // And the reloaded generation's results are byte-identical to gen0's —
  // invalidation is about freshness, not output drift.
  ASSERT_EQ(warm->catalogs.size(), reloaded->catalogs.size());
  for (size_t i = 0; i < warm->catalogs.size(); ++i) {
    ASSERT_TRUE(warm->catalogs[i].ok());
    ASSERT_TRUE(reloaded->catalogs[i].ok());
    EXPECT_EQ(Golden(*warm->batch.documents[i], *warm->catalogs[i]),
              Golden(*reloaded->batch.documents[i], *reloaded->catalogs[i]))
        << i;
  }
}

TEST(TemplateCacheDeterminismTest, StaleArtifactFallsBackAndRecovers) {
  // Seed the cache with an artifact whose subtree path cannot resolve on
  // the page: the context must record a fallback, evict, re-rank, and
  // produce exactly the uncached result.
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();

  gen::TemplateSkewOptions skew;
  skew.num_templates = 1;
  skew.num_pages = 2;
  const auto corpus = gen::GenerateTemplateSkewCorpus(skew);

  ContextOptions off_options;
  off_options.template_memoization = TemplateMemoization::kNever;
  auto off_context = ExtractionContext::Create(ontology, off_options);
  ASSERT_TRUE(off_context.ok());
  auto uncached = ExtractToCatalog(*off_context, corpus.pages[0]);
  ASSERT_TRUE(uncached.ok());

  TemplateCache cache;
  ContextOptions on_options;
  on_options.template_memoization = TemplateMemoization::kAlways;
  on_options.template_cache = &cache;
  auto on_context = ExtractionContext::Create(ontology, on_options);
  ASSERT_TRUE(on_context.ok());

  auto tree = BuildTagTree(corpus.pages[0]);
  ASSERT_TRUE(tree.ok());
  const uint64_t fingerprint =
      PageFingerprint(*tree, on_context->template_salt());

  auto poison = std::make_shared<BoundaryArtifact>();
  poison->separator = "hr";
  poison->subtree_path = {99, 99, 99};  // resolves nowhere
  poison->subtree_path_names = {"div", "div", "div"};
  poison->separator_child_count = 10;
  cache.Put(fingerprint, poison);

  auto result = ExtractToCatalog(*on_context, corpus.pages[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Golden(*result), Golden(*uncached));
  // The poisoned entry was found (a lookup hit) but failed re-validation.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.fallbacks(), 1u);

  // The fallback repopulated the entry; the next page of the template
  // serves a genuine hit.
  auto again = ExtractToCatalog(*on_context, corpus.pages[1]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.fallbacks(), 1u);
}

// ---------------------------------------------------------------------------
// Stream-level equivalence: the batch hit path fingerprints and re-applies
// on the balanced token stream, before Step-3 node construction. Both
// operations are specified to agree bit-for-bit with their tree overloads;
// these tests pin that contract on every skew archetype and on markup
// whose balancing synthesizes and discards tokens.

TEST(StreamEquivalenceTest, StreamFingerprintMatchesTreeFingerprint) {
  gen::TemplateSkewOptions options;
  options.num_templates = 10;
  options.num_pages = 20;
  auto corpus = gen::GenerateTemplateSkewCorpus(options);

  std::vector<std::string> documents(corpus.pages.begin(),
                                     corpus.pages.end());
  // Repair-heavy markup: unclosed tags (synthesized ends), stray end tags
  // (discards), void elements, and self-closing expansion.
  documents.push_back("<div><p>a<p>b<hr>c</div></i><b>x");
  documents.push_back("</td><table><tr><td>a<td>b</table>tail");
  documents.push_back("<ul><li>one<li>two<br/><li>three</ul>");
  documents.push_back("");

  const auto limits = robust::DocumentLimits::Production();
  for (const std::string& html : documents) {
    DocumentArena arena;
    auto balanced = LexAndBalance(html, limits, arena);
    ASSERT_TRUE(balanced.ok()) << balanced.status().ToString();
    const uint64_t from_stream = PageFingerprint(
        balanced->tokens, balanced->symbols, arena.interner(), 17);

    auto tree = BuildTagTree(html);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(from_stream, PageFingerprint(*tree, 17))
        << "stream and tree fingerprints diverge on: " << html.substr(0, 60);
  }
}

TEST(StreamEquivalenceTest, StreamReapplyMatchesTreeReapply) {
  gen::TemplateSkewOptions options;
  options.num_templates = 10;
  options.num_pages = 40;
  auto corpus = gen::GenerateTemplateSkewCorpus(options);
  Ontology ontology("structure-only", "Record", {});

  TemplateCache cache;
  ContextOptions context_options;
  context_options.template_memoization = TemplateMemoization::kAlways;
  context_options.template_cache = &cache;
  auto context = ExtractionContext::Create(ontology, context_options);
  ASSERT_TRUE(context.ok());
  for (const std::string& page : corpus.pages) {
    BufferSink sink;
    ASSERT_TRUE(context->ExtractDocumentInto(page, sink).ok());
  }

  const auto limits = robust::DocumentLimits::Production();
  size_t compared = 0;
  for (const std::string& page : corpus.pages) {
    auto tree = BuildTagTree(page);
    ASSERT_TRUE(tree.ok());
    auto artifact =
        cache.Lookup(PageFingerprint(*tree, context->template_salt()));
    ASSERT_NE(artifact, nullptr);

    DocumentArena arena;
    auto balanced = LexAndBalance(page, limits, arena);
    ASSERT_TRUE(balanced.ok());
    auto from_stream =
        ReapplyBoundaryArtifact(*artifact, balanced->tokens,
                                balanced->symbols, arena.interner());
    auto from_tree = ReapplyBoundaryArtifact(*artifact, *tree);
    ASSERT_EQ(from_stream.has_value(), from_tree.has_value());
    if (!from_tree.has_value()) continue;
    ++compared;
    EXPECT_EQ(from_stream->separator_child_count,
              from_tree->separator_child_count);
    EXPECT_EQ(from_stream->separator_positions,
              TextIndex::SeparatorPositionsInRegion(*tree, *from_tree->subtree,
                                                    artifact->separator));
  }
  // Every page of the corpus must have actually exercised the comparison.
  EXPECT_EQ(compared, corpus.pages.size());
}

}  // namespace
}  // namespace webrbd
