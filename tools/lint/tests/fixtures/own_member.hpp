// Fixture: a class whose own `entries_` is a sorted vector, declared in
// the same-stem header of own_member.cpp. The include of arp_like.hpp
// brings an unordered `entries_` into the closure as well.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arp_like.hpp"

namespace fixture {

class RouteTable {
 public:
  std::string advertise() const;

 private:
  ArpLike arp_;
  std::vector<std::uint32_t> entries_;
};

}  // namespace fixture
