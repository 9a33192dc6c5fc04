#include "apptier/lru_directory.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace cloudprov {

std::uint32_t LruDirectory::home(std::uint64_t key) const {
  // Fibonacci hashing: the top bits of key * 2^64/phi spread consecutive
  // keys (Zipf ranks map to runs of adjacent keys) across the table.
  return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

void LruDirectory::reserve(std::size_t entries) {
  if (entries <= nodes_.size()) return;
  ensure_arg(entries < kNone / 2, "LruDirectory: too many entries");
  nodes_.reserve(entries);  // exact: resize() alone may double
  nodes_.resize(entries);
  const std::size_t slots = std::bit_ceil(2 * entries);
  if (slots <= table_.size()) return;
  table_.assign(slots, kNone);
  mask_ = static_cast<std::uint32_t>(slots - 1);
  shift_ = 64u - static_cast<unsigned>(std::countr_zero(slots));
  for (std::uint32_t n = head_; n != kNone; n = nodes_[n].next) {
    insert_slot(n);
  }
}

std::uint32_t LruDirectory::find(std::uint64_t key) const {
  if (table_.empty()) return kNone;
  for (std::uint32_t pos = home(key);; pos = (pos + 1) & mask_) {
    const std::uint32_t node = table_[pos];
    if (node == kNone) return kNone;
    if (nodes_[node].key == key) return pos;
  }
}

void LruDirectory::insert_slot(std::uint32_t node) {
  std::uint32_t pos = home(nodes_[node].key);
  while (table_[pos] != kNone) pos = (pos + 1) & mask_;
  table_[pos] = node;
}

void LruDirectory::link_front(std::uint32_t node) {
  nodes_[node].prev = kNone;
  nodes_[node].next = head_;
  if (head_ != kNone) {
    nodes_[head_].prev = node;
  } else {
    tail_ = node;
  }
  head_ = node;
}

void LruDirectory::unlink(std::uint32_t node) {
  const Node& n = nodes_[node];
  if (n.prev != kNone) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNone) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void LruDirectory::touch(std::uint32_t position) {
  const std::uint32_t node = table_[position];
  if (node == head_) return;
  unlink(node);
  link_front(node);
}

void LruDirectory::erase_at(std::uint32_t position) {
  const std::uint32_t node = table_[position];
  unlink(node);
  nodes_[node].next = free_;
  free_ = node;
  --size_;
  // Backward-shift deletion: walk the probe run after the hole and pull
  // back every entry whose home does not lie cyclically in (hole, pos], so
  // each remaining key stays reachable from its home without tombstones.
  std::uint32_t hole = position;
  for (std::uint32_t pos = (hole + 1) & mask_; table_[pos] != kNone;
       pos = (pos + 1) & mask_) {
    const std::uint32_t displacement =
        (pos - home(nodes_[table_[pos]].key)) & mask_;
    if (displacement >= ((pos - hole) & mask_)) {
      table_[hole] = table_[pos];
      hole = pos;
    }
  }
  table_[hole] = kNone;
}

void LruDirectory::erase(std::uint64_t key) {
  const std::uint32_t position = find(key);
  if (position != kNone) erase_at(position);
}

void LruDirectory::push_front(std::uint64_t key, SimTime expiry,
                              std::uint32_t slot) {
  std::uint32_t node = free_;
  if (node != kNone) {
    free_ = nodes_[node].next;
  } else {
    node = used_++;
  }
  nodes_[node].key = key;
  nodes_[node].expiry = expiry;
  nodes_[node].slot = slot;
  link_front(node);
  insert_slot(node);
  ++size_;
}

void LruDirectory::pop_back() { erase(nodes_[tail_].key); }

void LruDirectory::clear() {
  std::fill(table_.begin(), table_.end(), kNone);
  head_ = tail_ = free_ = kNone;
  used_ = 0;
  size_ = 0;
}

}  // namespace cloudprov
