// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded around calls into the library's public functions from the
// benchmark's own files (the library itself is not instrumented); they
// stay in memory until the run ends and are then written out as NDJSON.

#ifndef WEBRBD_PERFBENCH_TRACE_H_
#define WEBRBD_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

/// One timed interval. `name` is a string literal; `parent` indexes the
/// enclosing span in the same trace (-1 for a root); `id` is the document
/// or request the span belongs to, shared by every span of that unit.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t id = 0;
};

/// Single-threaded span recorder with an implicit parent stack.
class Tracer {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int Begin(const char* name, int64_t id);
  /// Closes span `index`, which must be the innermost open span.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t id)
      : tracer_(tracer), index_(tracer.Begin(name, id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span, in seconds: its duration minus the part of
/// its interval covered by the union of its direct children (clipped to
/// the span), so overlapping or overhanging children are never counted
/// twice.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Writes one JSON object per span: name, start/end (ns since the first
/// span), parent index, id and self time.
bool WriteSpansNdjson(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_TRACE_H_
