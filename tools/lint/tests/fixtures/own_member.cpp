// Fixture: unordered-iter name shadowing. RouteTable walks its own
// vector `entries_` inside an observable-output function; the same-named
// hash map in the included arp_like.hpp belongs to another class, so the
// rule stays silent here (foreign_member.cpp is the firing twin).
#include "own_member.hpp"

#include <sstream>

namespace fixture {

std::string RouteTable::advertise() const {
  std::ostringstream out;
  for (std::uint32_t prefix : entries_) out << prefix << '\n';
  return out.str();
}

}  // namespace fixture
