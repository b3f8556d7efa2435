// PrefixMap: a flat open-addressed map from an IPv4 prefix to a 32-bit
// value, with longest-prefix match. It replaces 33 per-length hash maps:
// one table keyed by (length, address), probed linearly, plus a bitmask
// of the prefix lengths present so a longest-match probes only lengths
// that hold at least one prefix (a routing table with /32 host routes,
// /24 subnets and a default route costs three probes, not 33).
//
// The layout follows core::BindingTable: SoA slots (control byte, key,
// value), Fibonacci hashing, tombstones on erase, rehash on load. Slot
// order depends on insertion history, so nothing observable may iterate
// it unsorted; for_each() is for callers that sort what they collect.
//
// Hot-path guarantee: find and longest never allocate.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/ip_address.hpp"

namespace mhrp::routing {

class PrefixMap {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// A longest-match hit: the stored value and the matched length.
  struct Match {
    std::uint32_t value = kNone;
    int length = -1;
    [[nodiscard]] explicit operator bool() const { return value != kNone; }
  };

  [[nodiscard]] std::uint32_t find(const net::Prefix& prefix) const {
    if (ctrl_.empty()) return kNone;
    const std::uint64_t key = key_of(prefix);
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      if (ctrl_[i] == kEmpty) return kNone;
      if (ctrl_[i] == kFull && key_[i] == key) return value_[i];
    }
  }

  /// The value of the longest prefix covering `dst` whose length lies in
  /// (`above`, `below`); an empty Match when there is none. Walking down
  /// with `below` set to the previous hit's length enumerates every
  /// covering prefix, longest first.
  [[nodiscard]] Match longest(net::IpAddress dst, int above = -1,
                              int below = 33) const {
    // Bits of lengths in (above, below), for -1 <= above < below <= 33.
    std::uint64_t window = lengths_ & ((std::uint64_t{1} << below) - 1) &
                           ~((std::uint64_t{1} << (above + 1)) - 1);
    while (window != 0) {
      const int length = 63 - __builtin_clzll(window);
      const std::uint32_t value = find(net::Prefix(dst, length));
      if (value != kNone) return {value, length};
      window &= ~(std::uint64_t{1} << length);
    }
    return {};
  }

  /// Insert or overwrite. Returns true when the prefix was new.
  bool insert(const net::Prefix& prefix, std::uint32_t value) {
    if (ctrl_.empty() || (size_ + tombstones_ + 1) * 100 > ctrl_.size() * 80) {
      rehash();
    }
    const std::uint64_t key = key_of(prefix);
    std::size_t tombstone = kNoSlot;
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      if (ctrl_[i] == kFull && key_[i] == key) {
        value_[i] = value;
        return false;
      }
      if (ctrl_[i] == kTombstone && tombstone == kNoSlot) tombstone = i;
      if (ctrl_[i] == kEmpty) {
        if (tombstone != kNoSlot) {
          i = tombstone;
          --tombstones_;
        }
        ctrl_[i] = kFull;
        key_[i] = key;
        value_[i] = value;
        ++size_;
        if (count_[static_cast<std::size_t>(prefix.length())]++ == 0) {
          lengths_ |= std::uint64_t{1} << prefix.length();
        }
        return true;
      }
    }
  }

  /// Remove `prefix`; returns false when absent.
  bool erase(const net::Prefix& prefix) {
    if (ctrl_.empty()) return false;
    const std::uint64_t key = key_of(prefix);
    for (std::size_t i = probe_start(key);; i = (i + 1) & mask_) {
      if (ctrl_[i] == kEmpty) return false;
      if (ctrl_[i] == kFull && key_[i] == key) {
        ctrl_[i] = kTombstone;
        ++tombstones_;
        --size_;
        if (--count_[static_cast<std::size_t>(prefix.length())] == 0) {
          lengths_ &= ~(std::uint64_t{1} << prefix.length());
        }
        return true;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// fn(net::Prefix, value) over every entry in slot order, which depends
  /// on insertion history: callers must sort anything they emit.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] != kFull) continue;
      fn(net::Prefix(net::IpAddress(static_cast<std::uint32_t>(key_[i])),
                     static_cast<int>(key_[i] >> 32)),
         value_[i]);
    }
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;
  static constexpr std::size_t kMinSlots = 8;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static std::uint64_t key_of(const net::Prefix& p) {
    return (static_cast<std::uint64_t>(p.length()) << 32) |
           p.address().raw();
  }

  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const {
    // Fibonacci hashing over the whole (length, address) key; the high
    // bits of the product are the well-mixed ones.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask_;
  }

  /// Rebuild sized for the live population: doubles when genuinely
  /// full, or merely purges tombstones after churn.
  void rehash() {
    std::size_t slots = kMinSlots;
    while (slots * 80 < (size_ + 1) * 200) slots <<= 1;
    std::vector<std::uint8_t> old_ctrl(slots, kEmpty);
    std::vector<std::uint64_t> old_key(slots, 0);
    std::vector<std::uint32_t> old_value(slots, 0);
    old_ctrl.swap(ctrl_);
    old_key.swap(key_);
    old_value.swap(value_);
    mask_ = slots - 1;
    tombstones_ = 0;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      std::size_t j = probe_start(old_key[i]);
      while (ctrl_[j] != kEmpty) j = (j + 1) & mask_;
      ctrl_[j] = kFull;
      key_[j] = old_key[i];
      value_[j] = old_value[i];
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> value_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t lengths_ = 0;  // bit L set: some prefix of length L
  std::array<std::uint32_t, 33> count_{};
};

}  // namespace mhrp::routing
