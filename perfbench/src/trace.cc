// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::Begin(const char* name, int64_t id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = begin;
    for (const auto& [kid_begin, kid_end] : kids) {
      const int64_t from = std::max(cursor, std::max(begin, kid_begin));
      const int64_t to = std::min(end, kid_end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = static_cast<double>(std::max<int64_t>(0, end - begin - covered)) *
              1e-9;
  }
  return self;
}

bool WriteSpansNdjson(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = SelfSeconds(spans);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"id\":%lld,"
                 "\"self_s\":%.9f}\n",
                 i, span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin), span.parent,
                 static_cast<long long>(span.id), self[i]);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
