// Fixture: unordered-iter through the include closure. This file
// declares no `entries_` of its own, so walking arp_like.hpp's hash map
// inside an observable-output function still fires (own_member.cpp is
// the silent twin).
#include <sstream>
#include <string>
#include <utility>

#include "arp_like.hpp"

namespace fixture {

std::string dump_arp(const ArpLike& arp) {
  std::ostringstream out;
  for (const auto& [ip, mac] : arp.entries_) {  // EXPECT-LINT: unordered-iter
    out << ip << ' ' << mac << '\n';
  }
  return out.str();
}

std::string dump_arp_rows(const ArpLike& arp) {
  // A qualified loop-variable type does not hide the range colon.
  std::ostringstream out;
  for (const std::pair<const std::uint32_t, std::uint64_t>& row :  // EXPECT-LINT: unordered-iter
       arp.entries_) {
    out << row.first << '\n';
  }
  return out.str();
}

}  // namespace fixture
