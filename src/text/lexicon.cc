// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "text/lexicon.h"

#include <algorithm>

#include "util/string_util.h"

namespace webrbd {

namespace {

// A lexicon "word" is a maximal run of alphanumerics plus the punctuation
// that occurs inside real-world terms: apostrophes ("O'Brien"), hyphens
// ("F-150"), pluses ("C++"), slashes ("TCP/IP", "AS/400"), and hashes.
bool IsWordChar(char c) {
  return IsAsciiAlnum(c) || c == '\'' || c == '-' || c == '+' || c == '/' ||
         c == '#';
}

struct TokenSpan {
  size_t begin;
  size_t end;
  std::string lower;
};

std::vector<TokenSpan> TokenizeWords(std::string_view text) {
  std::vector<TokenSpan> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) ++i;
    size_t start = i;
    while (i < text.size() && IsWordChar(text[i])) ++i;
    if (i > start) {
      tokens.push_back(
          TokenSpan{start, i, AsciiToLower(text.substr(start, i - start))});
    }
  }
  return tokens;
}

}  // namespace

Lexicon::Lexicon(const std::vector<std::string>& entries) {
  for (const std::string& entry : entries) Add(entry);
}

void Lexicon::Add(std::string_view entry) {
  std::vector<std::string> raw_words = SplitWhitespace(entry);
  if (raw_words.empty()) return;
  Phrase phrase;
  phrase.words.reserve(raw_words.size());
  for (const std::string& w : raw_words) {
    phrase.words.push_back(AsciiToLower(w));
  }
  phrase.canonical = Join(phrase.words, " ");

  std::vector<Phrase>& bucket = by_first_word_[phrase.words[0]];
  for (const Phrase& existing : bucket) {
    if (existing.canonical == phrase.canonical) return;  // duplicate
  }
  bucket.push_back(std::move(phrase));
  // Longest phrases first so FindAll prefers "salt lake city" over "salt".
  std::sort(bucket.begin(), bucket.end(),
            [](const Phrase& a, const Phrase& b) {
              return a.words.size() > b.words.size();
            });
  ++entry_count_;
}

bool Lexicon::Contains(std::string_view entry) const {
  std::vector<std::string> words = SplitWhitespace(AsciiToLower(entry));
  if (words.empty()) return false;
  auto it = by_first_word_.find(words[0]);
  if (it == by_first_word_.end()) return false;
  std::string canonical = Join(words, " ");
  for (const Phrase& phrase : it->second) {
    if (phrase.canonical == canonical) return true;
  }
  return false;
}

std::vector<LexiconMatch> Lexicon::FindAll(std::string_view text) const {
  std::vector<LexiconMatch> matches;
  if (empty()) return matches;  // skip tokenizing: nothing can match
  std::vector<TokenSpan> tokens = TokenizeWords(text);
  size_t i = 0;
  while (i < tokens.size()) {
    auto it = by_first_word_.find(tokens[i].lower);
    bool matched = false;
    if (it != by_first_word_.end()) {
      for (const Phrase& phrase : it->second) {
        if (i + phrase.words.size() > tokens.size()) continue;
        bool all = true;
        for (size_t k = 1; k < phrase.words.size(); ++k) {
          if (tokens[i + k].lower != phrase.words[k]) {
            all = false;
            break;
          }
        }
        if (all) {
          matches.push_back(LexiconMatch{
              tokens[i].begin, tokens[i + phrase.words.size() - 1].end,
              phrase.canonical});
          i += phrase.words.size();
          matched = true;
          break;  // buckets are longest-first; first hit is the best hit
        }
      }
    }
    if (!matched) ++i;
  }
  return matches;
}

size_t Lexicon::CountMatches(std::string_view text) const {
  return FindAll(text).size();
}

}  // namespace webrbd
