// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// DocumentArena: a monotonic per-document allocator that owns every
// TagNode (and every per-node side array) of a tag tree, plus the
// tag-name intern table. Tree construction bump-allocates out of large
// blocks instead of one heap allocation per node, and tree destruction is
// a single arena release — nodes are trivially destructible, so no
// per-node destructor runs at all (this subsumes the iterative-destructor
// workaround the pointer-chased tree needed against deep-nesting bombs).
//
// Reset() retains the allocated blocks AND the intern table, so a batch
// worker that processes a chunk of documents through one arena reuses
// warm memory and warm symbols across the whole chunk (the allocator
// reuse BatchRunOptions::chunk_size promises).
//
// Thread-compatibility: an arena is single-threaded state. Each batch
// worker owns its own; nothing here is synchronized.

#ifndef WEBRBD_HTML_ARENA_H_
#define WEBRBD_HTML_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace webrbd {

/// Dense integer id of an interned tag name. Name equality throughout the
/// heuristics is symbol equality — one integer compare instead of a
/// string compare per token.
using TagSymbol = uint16_t;

/// "No symbol": text tokens in a symbol stream, unknown names in lookups,
/// and the sentinel returned by TagNameInterner::Intern when the 16-bit
/// table overflows (65535 distinct names — far beyond any real document;
/// the tree builder converts it into a per-document kResourceExhausted).
inline constexpr TagSymbol kInvalidTagSymbol = 0xFFFF;

/// Tag-name intern table: one TagSymbol per distinct (lowercased) name.
/// Name bytes live in the interner's own monotonic pool, so the
/// string_views it hands out stay valid for the interner's lifetime —
/// across DocumentArena::Reset() in particular.
class TagNameInterner {
 public:
  TagNameInterner() = default;
  TagNameInterner(const TagNameInterner&) = delete;
  TagNameInterner& operator=(const TagNameInterner&) = delete;

  /// Returns the symbol of `name`, interning it on first sight. Returns
  /// kInvalidTagSymbol when the table is full.
  TagSymbol Intern(std::string_view name);

  /// Lookup without interning; kInvalidTagSymbol when `name` was never
  /// interned.
  TagSymbol Find(std::string_view name) const {
    auto it = map_.find(name);
    return it == map_.end() ? kInvalidTagSymbol : it->second;
  }

  /// The interned name of `symbol`; empty view for kInvalidTagSymbol or
  /// out-of-range symbols.
  std::string_view NameOf(TagSymbol symbol) const {
    return symbol < names_.size() ? names_[symbol] : std::string_view();
  }

  /// Number of distinct names interned so far.
  size_t size() const { return names_.size(); }

  /// Bytes reserved for name storage (diagnostics).
  size_t storage_bytes() const { return storage_bytes_; }

 private:
  std::string_view Store(std::string_view name);

  std::unordered_map<std::string_view, TagSymbol> map_;
  std::vector<std::string_view> names_;  // indexed by symbol
  std::vector<std::unique_ptr<char[]>> pools_;
  size_t pool_used_ = 0;  // bytes used in pools_.back()
  size_t pool_size_ = 0;  // capacity of pools_.back()
  size_t storage_bytes_ = 0;
};

/// Monotonic block allocator for one document's tag tree.
class DocumentArena {
 public:
  DocumentArena() = default;
  DocumentArena(const DocumentArena&) = delete;
  DocumentArena& operator=(const DocumentArena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never fails: block allocation growth is bounded by the caller's
  /// DocumentLimits::max_arena_bytes checks against bytes_in_use().
  void* Allocate(size_t bytes, size_t alignment);

  /// Constructs a trivially-destructible T in the arena. No destructor
  /// will ever run for it — the memory is released wholesale.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are released without running destructors");
    // Placement new into arena storage — this is the owner the
    // raw-new-delete rule exists to funnel allocations through.
    return new (Allocate(sizeof(T), alignof(T)))  // lint:allow(raw-new-delete)
        T(std::forward<Args>(args)...);
  }

  /// Copies `values` into a contiguous arena-owned array.
  template <typename T>
  std::span<T> CopyArray(const T* values, size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>);
    if (count == 0) return {};
    T* out = static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    std::memcpy(out, values, count * sizeof(T));
    return {out, count};
  }

  /// Copies `text` into the arena.
  std::string_view CopyString(std::string_view text);

  /// A view over `head` followed by `tail`, materialized in the arena.
  /// When `head` is the most recent arena allocation it is extended in
  /// place (no re-copy of the head bytes).
  std::string_view Concat(std::string_view head, std::string_view tail);

  /// Releases everything allocated since construction or the last Reset,
  /// retaining block capacity for reuse. The intern table survives.
  void Reset();

  /// Bytes handed out since the last Reset (including alignment padding).
  size_t bytes_in_use() const { return bytes_in_use_; }

  /// Total block capacity held by the arena.
  size_t bytes_reserved() const { return bytes_reserved_; }

  TagNameInterner& interner() { return interner_; }
  const TagNameInterner& interner() const { return interner_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  // Moves the cursor to a (retained or new) block with >= `bytes` free.
  void NextBlock(size_t bytes);

  char* cursor_ = nullptr;
  char* block_end_ = nullptr;
  std::vector<Block> blocks_;
  size_t active_block_ = 0;  // blocks_ index cursor_ points into
  size_t bytes_in_use_ = 0;
  size_t bytes_reserved_ = 0;
  TagNameInterner interner_;
};

}  // namespace webrbd

#endif  // WEBRBD_HTML_ARENA_H_
