// Flat open-addressing map from name to 64-bit value — the storage behind
// PacketView's header fields. Params are a slot frame instead
// (param_frame.h); ValueMap still holds the Params a frame keeps by name
// outside its layout.
//
// Both interpreter paths touch the field map on every packet: the
// reference interpreter reads and writes fields by name; the compiled
// ExecPlan loads its field slots from it and writes the dirty ones back.
// With std::unordered_map each insert is a node allocation and each copy
// re-allocates every node. ValueMap keeps entries in one contiguous
// vector (insertion order, short names stay in SSO storage), caches each
// key's hash, and resolves lookups through a power-of-two probe table —
// inserts are amortized push_backs, copies are two memcpy-ish vector
// copies, and no per-entry allocation survives on the hot path.
//
// API is the unordered_map subset the interpreters and tests use: find /
// count / at / operator[] / iteration (pair-shaped entries, structured
// bindings work) / reserve / ==. Erase is deliberately absent — packet
// maps only grow during a run.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clickinc::ir {

class ValueMap {
 public:
  using Entry = std::pair<std::string, std::uint64_t>;
  using const_iterator = std::vector<Entry>::const_iterator;

  ValueMap() = default;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void clear() {
    entries_.clear();
    hashes_.clear();
    index_.assign(index_.size(), 0);
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    hashes_.reserve(n);
    if (n * 4 > capacity() * 3) growIndex(n);
  }

  const_iterator find(std::string_view key) const {
    return findHashed(key, hashKey(key));
  }

  // Hash-aware variants for callers that resolve keys once and replay
  // them per packet (the compiled ExecPlan caches each slot's hash).
  const_iterator findHashed(std::string_view key, std::uint32_t h) const {
    const std::size_t e = slotOf(key, h);
    return e == kNotFound ? entries_.end()
                          : entries_.begin() + static_cast<std::ptrdiff_t>(e);
  }

  std::uint64_t& refHashed(std::string_view key, std::uint32_t h) {
    const std::size_t e = slotOf(key, h);
    if (e != kNotFound) return entries_[e].second;
    return insertNew(key, h, 0);
  }

  // Insert without the membership probe. Precondition: `key` is not
  // present (e.g. the map was empty and the caller's keys are distinct —
  // the ExecPlan write-back of fresh temporaries).
  void insertUnique(std::string_view key, std::uint32_t h,
                    std::uint64_t v) {
    insertNew(key, h, v);
  }

  std::size_t count(std::string_view key) const {
    return slotOf(key, hashKey(key)) == kNotFound ? 0 : 1;
  }

  std::uint64_t at(std::string_view key) const {
    const std::size_t e = slotOf(key, hashKey(key));
    if (e == kNotFound) {
      throw std::out_of_range("ValueMap::at: no key " + std::string(key));
    }
    return entries_[e].second;
  }

  std::uint64_t& operator[](std::string_view key) {
    return refHashed(key, hashKey(key));
  }

  void set(std::string_view key, std::uint64_t v) { (*this)[key] = v; }

  static std::uint32_t hashKey(std::string_view s) {
    // FNV-1a; keys are short ("hdr.x", "t42"), so this beats a general
    // hash's setup cost.
    std::uint32_t h = 2166136261u;
    for (char ch : s) {
      h ^= static_cast<std::uint8_t>(ch);
      h *= 16777619u;
    }
    return h;
  }

  // Order-insensitive equality (entries may have been inserted in any
  // order, like the unordered_map this replaces).
  bool operator==(const ValueMap& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (const auto& [key, val] : entries_) {
      const std::size_t e = other.slotOf(key, hashKey(key));
      if (e == kNotFound || other.entries_[e].second != val) return false;
    }
    return true;
  }
  bool operator!=(const ValueMap& other) const { return !(*this == other); }

 private:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  std::size_t capacity() const { return index_.size(); }

  // Probes the index table; returns the entry position or kNotFound.
  std::size_t slotOf(std::string_view key, std::uint32_t h) const {
    if (index_.empty()) return kNotFound;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = h & mask;
    while (index_[i] != 0) {
      const std::size_t e = index_[i] - 1;
      if (hashes_[e] == h && entries_[e].first == key) return e;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  std::uint64_t& insertNew(std::string_view key, std::uint32_t h,
                           std::uint64_t v) {
    if ((entries_.size() + 1) * 4 > capacity() * 3) {
      growIndex(entries_.size() + 1);
    }
    entries_.emplace_back(std::string(key), v);
    hashes_.push_back(h);
    const std::size_t mask = index_.size() - 1;
    std::size_t i = h & mask;
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(entries_.size());
    return entries_.back().second;
  }

  void growIndex(std::size_t want) {
    std::size_t cap = 8;
    while (cap * 3 < want * 4) cap <<= 1;
    if (cap <= index_.size()) cap = index_.size() * 2;
    index_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = hashes_[e] & mask;
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = static_cast<std::uint32_t>(e + 1);
    }
  }

  std::vector<Entry> entries_;          // insertion order
  std::vector<std::uint32_t> hashes_;   // cached hash per entry
  std::vector<std::uint32_t> index_;    // open addressing; 0 = empty
};

}  // namespace clickinc::ir
