// Bounds-checked big-endian (network byte order) serialization primitives.
//
// All wire formats in this project (IP, ICMP, UDP, MHRP, and the baseline
// protocols' headers) are encoded through ByteWriter and decoded through
// ByteReader so that every "overhead bytes" number reported by the
// benchmarks is measured from real serialized octets rather than asserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace mhrp::util {

/// Error thrown when a read or write would cross the end of a buffer, or
/// when decoded fields violate a format's invariants.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends integers and byte ranges to a growable buffer in network byte
/// order. The buffer can be taken out with `take()` once encoding is done.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Reserve capacity up front when the encoded size is known.
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Append `count` zero octets (padding).
  void zeros(std::size_t count) { buf_.insert(buf_.end(), count, 0); }

  /// Overwrite a previously written 16-bit field (e.g. a checksum or
  /// length slot) at byte offset `at`.
  void patch_u16(std::size_t at, std::uint16_t v) {
    if (at + 2 > buf_.size()) throw CodecError("patch_u16 out of range");
    buf_[at] = static_cast<std::uint8_t>(v >> 8);
    buf_[at + 1] = static_cast<std::uint8_t>(v);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return buf_; }

  /// Move the encoded bytes out; the writer is left empty and reusable.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

  /// Discard the contents but keep the capacity, so one writer can be
  /// reused across many encodes without reallocating (the per-packet
  /// audit and ICMP-quote paths lean on this).
  void clear() { buf_.clear(); }

  /// Drop everything past the first `size` bytes (no-op when already
  /// shorter). Used to cap ICMP error quotes at the configured limit.
  void truncate(std::size_t size) {
    if (size < buf_.size()) buf_.resize(size);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads integers and byte ranges from a fixed span in network byte order.
/// Every accessor throws CodecError instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    need(2);
    auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                      (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                      static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t count) {
    need(count);
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + count));
    pos_ += count;
    return out;
  }

  void skip(std::size_t count) {
    need(count);
    pos_ += count;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  /// Remaining bytes without consuming them.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

 private:
  void need(std::size_t count) const {
    if (pos_ + count > data_.size()) throw_truncated(count);
  }

  // Out of line (byte_buffer.cpp): with the message building inlined into
  // every accessor, gcc 12 -O2 reports a false-positive -Warray-bounds on
  // the reads that follow the check.
  [[noreturn]] void throw_truncated(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace mhrp::util
