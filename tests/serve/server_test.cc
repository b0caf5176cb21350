// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// Lifecycle tests of the daemon's socket transport, driven by a raw
// blocking TCP client (no HTTP library, by design — the server's own
// parser must face hand-built bytes): start on an ephemeral port, serve
// concurrent /extract and /extract-batch traffic, hot-reload mid-traffic,
// shed load with 503 when the admission gate is full, and drain without
// dropping an admitted request.

#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "extract/extract_test_util.h"
#include "extract/extraction_context.h"
#include "gen/sites.h"
#include "ontology/bundled.h"
#include "serve/service.h"

namespace webrbd {
namespace serve {
namespace {

std::string SampleHtml(int seed = 0) {
  const auto& sites = gen::CalibrationSites();
  return gen::RenderDocument(sites[static_cast<size_t>(seed) % sites.size()],
                             Domain::kObituaries, seed).html;
}

/// A deliberately primitive blocking HTTP/1.1 client.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  bool SendRaw(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads exactly one response (head, then Content-Length body bytes).
  /// Returns false on a short read or missing Content-Length.
  bool ReadResponse(int* status, std::string* head, std::string* body) {
    std::string buffer;
    size_t head_end;
    while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (!Recv(&buffer)) return false;
    }
    *head = buffer.substr(0, head_end + 4);
    // "HTTP/1.1 NNN ..."
    if (head->size() < 12) return false;
    *status = std::stoi(head->substr(9, 3));
    const size_t marker = head->find("Content-Length: ");
    if (marker == std::string::npos) return false;
    const size_t length = static_cast<size_t>(
        std::stoull(head->substr(marker + 16)));
    std::string rest = buffer.substr(head_end + 4);
    while (rest.size() < length) {
      if (!Recv(&rest)) return false;
    }
    *body = rest.substr(0, length);
    return true;
  }

  /// One full request/response round trip on this connection.
  bool Roundtrip(const std::string& request, int* status, std::string* body) {
    std::string head;
    return SendRaw(request) && ReadResponse(status, &head, body);
  }

 private:
  bool Recv(std::string* into) {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    into->append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
};

std::string PostRequest(const std::string& path, const std::string& body,
                        bool keep_alive = true) {
  return "POST " + path + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) +
         (keep_alive ? "\r\n" : "\r\nConnection: close\r\n") + "\r\n" + body;
}

std::string GetRequest(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

ServerOptions EphemeralPort() {
  ServerOptions options;
  options.port = 0;
  options.io_threads = 4;
  return options;
}

TEST(HttpServerTest, ServesTrivialHandlerAndRefusesAfterDrain) {
  auto server = HttpServer::Start(EphemeralPort(),
                                  [](const HttpRequest& request) {
                                    HttpResponse response;
                                    response.body = "echo:" + request.path;
                                    return response;
                                  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  {
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.Roundtrip(GetRequest("/anything"), &status, &body));
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "echo:/anything");
  }

  (*server)->Drain();
  TestClient late(port);
  int status = 0;
  std::string body;
  EXPECT_FALSE(late.connected() &&
               late.Roundtrip(GetRequest("/x"), &status, &body));
  (*server)->Drain();  // idempotent
}

TEST(HttpServerTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  std::atomic<int> calls{0};
  auto server = HttpServer::Start(EphemeralPort(),
                                  [&calls](const HttpRequest&) {
                                    HttpResponse response;
                                    response.body =
                                        std::to_string(calls.fetch_add(1));
                                    return response;
                                  });
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.Roundtrip(GetRequest("/n"), &status, &body)) << i;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, std::to_string(i));
  }
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  auto server = HttpServer::Start(
      EphemeralPort(), [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  int status = 0;
  std::string head, body;
  ASSERT_TRUE(client.SendRaw("BROKEN\r\n\r\n"));
  ASSERT_TRUE(client.ReadResponse(&status, &head, &body));
  EXPECT_EQ(status, 400);
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
  auto server = HttpServer::Start(
      EphemeralPort(), [](const HttpRequest&) -> HttpResponse {
        // The transport must turn an escaping exception into a 500, not a
        // dead worker (the pool would rethrow from a future nobody holds).
        std::vector<int> empty;
        return HttpResponse{200, "text/plain", std::to_string(empty.at(7)),
                            {}};
      });
  ASSERT_TRUE(server.ok());
  TestClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.Roundtrip(GetRequest("/boom"), &status, &body));
  EXPECT_EQ(status, 500);
}

TEST(HttpServerTest, BadBindAddressFailsStart) {
  ServerOptions options;
  options.host = "not-an-address";
  auto server = HttpServer::Start(
      options, [](const HttpRequest&) { return HttpResponse{}; });
  EXPECT_FALSE(server.ok());
}

// The full daemon stack: ExtractionService behind HttpServer, concurrent
// extract + batch clients, a hot reload mid-traffic, then a graceful
// drain. Every admitted request must complete with the exact bytes an
// in-process extraction produces.
TEST(HttpServerTest, FullDaemonLifecycleUnderConcurrentTraffic) {
  ServiceOptions service_options;
  service_options.max_inflight = 32;
  auto service = ExtractionService::Create(
      BundledOntologyDsl(Domain::kObituaries), std::move(service_options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ExtractionService* brain = service->get();

  auto server = HttpServer::Start(EphemeralPort(),
                                  [brain](const HttpRequest& request) {
                                    return brain->Handle(request);
                                  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  const std::string html = SampleHtml();
  const Ontology ontology = BundledOntology(Domain::kObituaries).value();
  auto context = ExtractionContext::Create(ontology);
  ASSERT_TRUE(context.ok());
  auto golden_result = testing_util::ExtractToCatalog(*context, html);
  ASSERT_TRUE(golden_result.ok());
  const std::string golden =
      RenderExtractionJson(golden_result->outcome, golden_result->catalog);

  std::string escaped;
  for (char c : html) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') { escaped += "\\n"; continue; }
    if (c == '\r') { escaped += "\\r"; continue; }
    if (c == '\t') { escaped += "\\t"; continue; }
    escaped += c;
  }
  const std::string batch_body =
      "{\"html\": \"" + escaped + "\"}\n{\"html\": \"" + escaped + "\"}\n";

  std::atomic<int> extract_ok{0};
  std::atomic<int> batch_ok{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(6);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      TestClient client(port);
      if (!client.connected()) { failures.fetch_add(1); return; }
      for (int i = 0; i < 6; ++i) {
        int status = 0;
        std::string body;
        if (!client.Roundtrip(PostRequest("/extract", html), &status,
                              &body) ||
            status != 200 || body != golden) {
          failures.fetch_add(1);
          return;
        }
        extract_ok.fetch_add(1);
      }
      (void)t;
    });
  }
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&]() {
      TestClient client(port);
      if (!client.connected()) { failures.fetch_add(1); return; }
      for (int i = 0; i < 3; ++i) {
        int status = 0;
        std::string body;
        if (!client.Roundtrip(PostRequest("/extract-batch", batch_body),
                              &status, &body) ||
            status != 200 ||
            body.find("{\"index\":1,\"result\":") == std::string::npos) {
          failures.fetch_add(1);
          return;
        }
        batch_ok.fetch_add(1);
      }
    });
  }

  // Hot reload while the clients hammer away: traffic must not observe a
  // gap, and results stay byte-identical (same DSL, new epoch).
  {
    TestClient admin(port);
    ASSERT_TRUE(admin.connected());
    int status = 0;
    std::string body;
    ASSERT_TRUE(admin.Roundtrip(PostRequest("/reload-ontology", ""), &status,
                                &body));
    EXPECT_EQ(status, 200) << body;
    EXPECT_EQ(body, "{\"generation\":1}");
  }

  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(extract_ok.load(), 24);
  EXPECT_EQ(batch_ok.load(), 6);

  brain->BeginDrain();
  {
    TestClient probe(port);
    if (probe.connected()) {
      int status = 0;
      std::string body;
      if (probe.Roundtrip(GetRequest("/healthz"), &status, &body)) {
        EXPECT_EQ(status, 503);
        EXPECT_EQ(body, "draining\n");
      }
    }
  }
  (*server)->Drain();
  EXPECT_EQ(brain->inflight(), 0);
}

TEST(HttpServerTest, OverloadedServiceShedsLoadWith503) {
  ServiceOptions service_options;
  service_options.max_inflight = 1;
  service_options.retry_after_seconds = 3;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> occupied;
  std::atomic<bool> first{true};
  service_options.extract_hook = [&]() {
    if (first.exchange(false)) {
      occupied.set_value();
      released.wait();
    }
  };
  auto service = ExtractionService::Create(
      BundledOntologyDsl(Domain::kObituaries), std::move(service_options));
  ASSERT_TRUE(service.ok());
  ExtractionService* brain = service->get();
  auto server = HttpServer::Start(EphemeralPort(),
                                  [brain](const HttpRequest& request) {
                                    return brain->Handle(request);
                                  });
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();
  const std::string html = SampleHtml();

  std::thread holder([&]() {
    TestClient client(port);
    ASSERT_TRUE(client.connected());
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.Roundtrip(PostRequest("/extract", html), &status,
                                 &body));
    EXPECT_EQ(status, 200) << body;
  });
  occupied.get_future().wait();

  TestClient shed(port);
  ASSERT_TRUE(shed.connected());
  int status = 0;
  std::string head, body;
  ASSERT_TRUE(shed.SendRaw(PostRequest("/extract", html)));
  ASSERT_TRUE(shed.ReadResponse(&status, &head, &body));
  EXPECT_EQ(status, 503);
  EXPECT_NE(head.find("Retry-After: 3"), std::string::npos) << head;

  release.set_value();
  holder.join();
}

}  // namespace
}  // namespace serve
}  // namespace webrbd
