#include "util/byte_buffer.hpp"

namespace mhrp::util {

void ByteReader::throw_truncated(std::size_t count) const {
  throw CodecError("ByteReader: truncated buffer (need " +
                   std::to_string(count) + " at offset " +
                   std::to_string(pos_) + ", size " +
                   std::to_string(data_.size()) + ")");
}

}  // namespace mhrp::util
