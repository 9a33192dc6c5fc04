// Flat LRU directory of the cache tier: key -> {expiry, slot} in recency
// order, with no per-entry heap allocation.
//
// Two arrays and no pointers:
//   - a node array {key, expiry, slot, prev, next} with 32-bit indices,
//     threaded into an intrusive MRU -> LRU list; erased nodes go onto a
//     free list (linked through `next`) and are reused before fresh ones;
//   - an open-addressed key -> node table of 32-bit node indices (the key
//     is read from the node): power-of-two size, load <= 1/2, linear
//     probing from a Fibonacci hash, backward-shift deletion (no
//     tombstones, so probe chains never rot).
//
// Nothing is allocated at construction. reserve(n) sizes both arrays for n
// entries exactly (the table to the next power of two >= 2n), and never
// shrinks them; clear() keeps the storage. Callers reserve before pushing:
// push_front() requires size() below the largest reserve() so far.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace cloudprov {

class LruDirectory {
 public:
  /// "No node" / "no table position".
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    std::uint64_t key = 0;
    SimTime expiry = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t prev = kNone;  ///< towards the MRU end
    std::uint32_t next = kNone;  ///< towards the LRU end; free-list link
  };

  std::size_t size() const { return size_; }

  /// Grows node and table storage to hold `entries` (no-op when it already
  /// does). Indices stay valid; table positions do not.
  void reserve(std::size_t entries);

  /// Table position of `key`, or kNone. Valid until the next mutation.
  std::uint32_t find(std::uint64_t key) const;
  const Node& at(std::uint32_t position) const {
    return nodes_[table_[position]];
  }
  /// Moves the entry at `position` to the MRU end.
  void touch(std::uint32_t position);
  void erase_at(std::uint32_t position);
  void erase(std::uint64_t key);

  /// Inserts an absent key at the MRU end (size() must be below the
  /// reserved entries).
  void push_front(std::uint64_t key, SimTime expiry, std::uint32_t slot);
  /// Removes the LRU entry; the directory must not be empty.
  void pop_back();
  void clear();

  /// Visits every entry from MRU to LRU.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::uint32_t n = head_; n != kNone; n = nodes_[n].next) {
      visit(nodes_[n]);
    }
  }

 private:
  std::uint32_t home(std::uint64_t key) const;
  void link_front(std::uint32_t node);
  void unlink(std::uint32_t node);
  void insert_slot(std::uint32_t node);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> table_;  ///< node index; kNone = empty
  std::uint32_t mask_ = 0;   ///< table_.size() - 1
  unsigned shift_ = 64;      ///< 64 - log2(table_.size())
  std::uint32_t head_ = kNone;  ///< MRU
  std::uint32_t tail_ = kNone;  ///< LRU
  std::uint32_t free_ = kNone;  ///< head of the erased-node free list
  std::uint32_t used_ = 0;      ///< nodes ever handed out since clear()
  std::size_t size_ = 0;
};

}  // namespace cloudprov
