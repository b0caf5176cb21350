// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Socket-free tests of the extraction daemon's request brain: routing,
// admission control (503 + Retry-After), per-request limit overrides and
// their ceilings, NDJSON batch semantics, hot reload (generation bump,
// template-salt change, bad-DSL rollback), and the byte-identity contract
// between a served /extract response and an in-process ExtractDocumentInto.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "extract/extract_test_util.h"
#include "extract/extraction_context.h"
#include "gen/sites.h"
#include "ontology/bundled.h"
#include "serve/http.h"

namespace webrbd {
namespace serve {
namespace {

std::string SampleHtml(int seed = 0) {
  const auto& sites = gen::CalibrationSites();
  return gen::RenderDocument(sites[static_cast<size_t>(seed) % sites.size()],
                             Domain::kObituaries, seed).html;
}

HttpRequest Post(std::string path_and_query, std::string body) {
  HttpRequest request;
  request.method = "POST";
  const size_t qmark = path_and_query.find('?');
  if (qmark == std::string::npos) {
    request.path = path_and_query;
  } else {
    request.path = path_and_query.substr(0, qmark);
    request.query = path_and_query.substr(qmark + 1);
  }
  request.body = std::move(body);
  return request;
}

HttpRequest Get(std::string path) {
  HttpRequest request;
  request.method = "GET";
  request.path = std::move(path);
  return request;
}

std::unique_ptr<ExtractionService> MakeService(ServiceOptions options = {}) {
  auto service = ExtractionService::Create(
      BundledOntologyDsl(Domain::kObituaries), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

TEST(ExtractionServiceTest, CreateRejectsUnparseableDsl) {
  auto service = ExtractionService::Create("this is not an ontology");
  EXPECT_FALSE(service.ok());
}

TEST(ExtractionServiceTest, HealthzFlipsToDrainingAfterBeginDrain) {
  auto service = MakeService();
  EXPECT_EQ(service->Handle(Get("/healthz")).status, 200);
  EXPECT_EQ(service->Handle(Get("/healthz")).body, "ok\n");
  service->BeginDrain();
  const HttpResponse draining = service->Handle(Get("/healthz"));
  EXPECT_EQ(draining.status, 503);
  EXPECT_EQ(draining.body, "draining\n");
}

TEST(ExtractionServiceTest, MetricsEndpointServesPrometheusText) {
  auto service = MakeService();
  const HttpResponse response = service->Handle(Get("/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("# TYPE webrbd_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.body.find("webrbd_serve_inflight"), std::string::npos);
}

TEST(ExtractionServiceTest, UnknownPathIs404AndWrongMethodIs405) {
  auto service = MakeService();
  EXPECT_EQ(service->Handle(Get("/nope")).status, 404);
  EXPECT_EQ(service->Handle(Get("/extract")).status, 405);
  EXPECT_EQ(service->Handle(Post("/metrics", "x")).status, 405);
  EXPECT_EQ(service->Handle(Post("/healthz", "x")).status, 405);
}

TEST(ExtractionServiceTest, ExtractReturnsRenderedJson) {
  auto service = MakeService();
  const HttpResponse response =
      service->Handle(Post("/extract", SampleHtml()));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body.rfind("{\"separator\":", 0), 0u) << response.body;
  EXPECT_NE(response.body.find("\"records\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"tables\":{"), std::string::npos);
}

TEST(ExtractionServiceTest, ServedBytesMatchInProcessExtraction) {
  auto service = MakeService();
  const std::string html = SampleHtml(3);
  const HttpResponse response = service->Handle(Post("/extract", html));
  ASSERT_EQ(response.status, 200) << response.body;

  const Ontology ontology =
      BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  auto result = testing_util::ExtractToCatalog(*context, html);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(response.body,
            RenderExtractionJson(result->outcome, result->catalog));
}

TEST(ExtractionServiceTest, EmptyExtractBodyIs400) {
  auto service = MakeService();
  const HttpResponse response = service->Handle(Post("/extract", ""));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"error\""), std::string::npos);
}

TEST(ExtractionServiceTest, LimitOverrideRejectsOversizedDocument) {
  auto service = MakeService();
  const std::string html = SampleHtml();
  ASSERT_GT(html.size(), 16u);
  const HttpResponse response =
      service->Handle(Post("/extract?max-doc-bytes=16", html));
  EXPECT_EQ(response.status, 413) << response.body;
  // The override is per-request: the same document sails through without
  // the query parameter.
  EXPECT_EQ(service->Handle(Post("/extract", html)).status, 200);
}

TEST(ExtractionServiceTest, LimitOverrideIsClampedToServerCeiling) {
  ServiceOptions options;
  options.ceilings.max_document_bytes = 16;
  auto service = MakeService(std::move(options));
  // The caller asks for a huge allowance; the ceiling clamps it back to 16
  // bytes, so the document still bounces.
  const HttpResponse raised = service->Handle(
      Post("/extract?max-doc-bytes=999999999", SampleHtml()));
  EXPECT_EQ(raised.status, 413) << raised.body;
  // 0 would mean "unlimited", which may also never escape the ceiling.
  const HttpResponse zeroed =
      service->Handle(Post("/extract?max-doc-bytes=0", SampleHtml()));
  EXPECT_EQ(zeroed.status, 413) << zeroed.body;
}

TEST(ExtractionServiceTest, UnknownOrMalformedQueryParamIs400) {
  auto service = MakeService();
  EXPECT_EQ(service->Handle(Post("/extract?frob=1", SampleHtml())).status,
            400);
  EXPECT_EQ(
      service->Handle(Post("/extract?max-doc-bytes=lots", SampleHtml()))
          .status,
      400);
}

TEST(ExtractionServiceTest, OverAdmissionLimitIs503WithRetryAfter) {
  ServiceOptions options;
  options.max_inflight = 1;
  options.retry_after_seconds = 7;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> occupied;
  bool first = true;
  options.extract_hook = [&]() {
    // Only the first admitted request parks; the hook must not trip again
    // after the slot frees up.
    if (first) {
      first = false;
      occupied.set_value();
      released.wait();
    }
  };
  auto service = MakeService(std::move(options));

  std::thread holder([&]() {
    const HttpResponse response =
        service->Handle(Post("/extract", SampleHtml()));
    EXPECT_EQ(response.status, 200) << response.body;
  });
  occupied.get_future().wait();
  ASSERT_EQ(service->inflight(), 1);

  const HttpResponse rejected =
      service->Handle(Post("/extract", SampleHtml()));
  EXPECT_EQ(rejected.status, 503);
  ASSERT_EQ(rejected.extra_headers.size(), 1u);
  EXPECT_EQ(rejected.extra_headers[0].name, "Retry-After");
  EXPECT_EQ(rejected.extra_headers[0].value, "7");

  release.set_value();
  holder.join();
  EXPECT_EQ(service->inflight(), 0);
  // With the slot free again the same request is admitted.
  EXPECT_EQ(service->Handle(Post("/extract", SampleHtml())).status, 200);
}

TEST(ExtractionServiceTest, DrainingRejectsNewExtractions) {
  auto service = MakeService();
  service->BeginDrain();
  const HttpResponse response =
      service->Handle(Post("/extract", SampleHtml()));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("draining"), std::string::npos);
}

TEST(ExtractionServiceTest, BatchKeepsLinePositionsAndIsolatesBadLines) {
  auto service = MakeService();
  const std::string good = SampleHtml(1);
  std::string escaped;
  for (char c : good) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') { escaped += "\\n"; continue; }
    if (c == '\r') { escaped += "\\r"; continue; }
    if (c == '\t') { escaped += "\\t"; continue; }
    escaped += c;
  }
  const std::string body = "{\"html\": \"" + escaped + "\"}\n" +
                           "not json at all\n" +
                           "{\"html\": \"" + escaped + "\"}\n";
  const HttpResponse response = service->Handle(Post("/extract-batch", body));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type, "application/x-ndjson");

  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < response.body.size()) {
    const size_t end = response.body.find('\n', begin);
    lines.push_back(response.body.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("{\"index\":0,\"result\":", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("{\"index\":1,\"error\":", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("{\"index\":2,\"result\":", 0), 0u) << lines[2];
  // Both good lines held the same document, so their rendered results
  // must agree byte for byte.
  EXPECT_EQ(lines[0].substr(std::string("{\"index\":0,").size()),
            lines[2].substr(std::string("{\"index\":2,").size()));
}

TEST(ExtractionServiceTest, BatchWithNoLinesIs400) {
  auto service = MakeService();
  EXPECT_EQ(service->Handle(Post("/extract-batch", "")).status, 400);
  EXPECT_EQ(service->Handle(Post("/extract-batch", "\n\r\n\n")).status, 400);
}

TEST(ExtractionServiceTest, ReloadBumpsGenerationAndTemplateSalt) {
  auto service = MakeService();
  EXPECT_EQ(service->generation(), 0u);
  const uint64_t salt_before = service->template_salt();

  // Empty body + no reload_source recompiles the DSL already being served
  // — the degenerate reload, which must STILL change the salt (the
  // staleness contract does not trust DSL equality).
  const HttpResponse response = service->Handle(Post("/reload-ontology", ""));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, "{\"generation\":1}");
  EXPECT_EQ(service->generation(), 1u);
  EXPECT_NE(service->template_salt(), salt_before);

  // Extraction keeps working on the reloaded context.
  EXPECT_EQ(service->Handle(Post("/extract", SampleHtml())).status, 200);
}

TEST(ExtractionServiceTest, ReloadAcceptsNewDslInBody) {
  auto service = MakeService();
  const HttpResponse response = service->Handle(
      Post("/reload-ontology", BundledOntologyDsl(Domain::kCarAds)));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(service->generation(), 1u);
}

TEST(ExtractionServiceTest, FailedReloadKeepsOldContextServing) {
  auto service = MakeService();
  const uint64_t salt_before = service->template_salt();
  const HttpResponse response =
      service->Handle(Post("/reload-ontology", "garbage { dsl"));
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(service->generation(), 0u);
  EXPECT_EQ(service->template_salt(), salt_before);
  EXPECT_EQ(service->Handle(Post("/extract", SampleHtml())).status, 200);
}

TEST(ExtractionServiceTest, ReloadSourceFeedsEmptyBodyReload) {
  int calls = 0;
  ServiceOptions options;
  options.reload_source = [&calls]() -> Result<std::string> {
    ++calls;
    if (calls == 1) return BundledOntologyDsl(Domain::kObituaries);
    return Status::NotFound("source went away");
  };
  auto service = MakeService(std::move(options));
  EXPECT_EQ(service->Handle(Post("/reload-ontology", "")).status, 200);
  EXPECT_EQ(calls, 1);
  // A failing source is a 400 and the old context keeps serving.
  EXPECT_EQ(service->Handle(Post("/reload-ontology", "")).status, 400);
  EXPECT_EQ(service->generation(), 1u);
  EXPECT_EQ(service->Handle(Post("/extract", SampleHtml())).status, 200);
}

TEST(ExtractionServiceTest, ConcurrentExtractsAndReloadsStayCoherent) {
  ServiceOptions options;
  options.max_inflight = 16;
  auto service = MakeService(std::move(options));
  const std::string html = SampleHtml();
  const std::string expected =
      service->Handle(Post("/extract", html)).body;

  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      for (int i = 0; i < 8; ++i) {
        const HttpResponse response =
            service->Handle(Post("/extract", html));
        EXPECT_EQ(response.status, 200) << response.body;
        EXPECT_EQ(response.body, expected);
      }
    });
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(service->Handle(Post("/reload-ontology", "")).status, 200);
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(service->generation(), 4u);
}

}  // namespace
}  // namespace serve
}  // namespace webrbd
