// Fixture: a net/arp.hpp-style header. Its cache is a hash map named
// entries_, so every file that includes it sees `entries_` declared
// unordered somewhere in its include closure.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace fixture {

class ArpLike {
 public:
  std::unordered_map<std::uint32_t, std::uint64_t> entries_;
};

}  // namespace fixture
