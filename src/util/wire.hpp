// Little-endian byte codec shared by every binary surface of the project:
// session checkpoints (fpras/checkpoint.cpp) and the serve-mode wire
// protocol (serve/protocol.cpp). One codec, one byte order, one failure
// model — a truncated or corrupt buffer surfaces as Status::DataLoss from
// the bounds-checked reader before any semantic check runs. Bulk span calls
// (U16s/U64s) move a whole slab with one bounds check and, on little-endian
// hosts, one memcpy; the bytes are the same as the per-element calls'.

#ifndef NFACOUNT_UTIL_WIRE_HPP_
#define NFACOUNT_UTIL_WIRE_HPP_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/status.hpp"

namespace nfacount {

/// True when the host stores integers least-significant byte first, so a
/// slab of them is already in wire order and copies verbatim.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kHostLittleEndian = true;
#else
inline constexpr bool kHostLittleEndian = false;
#endif

/// Appends fixed-width little-endian primitives to a byte string. The
/// encoding is canonical little-endian regardless of host order, so buffers
/// are portable across machines (and across the checkpoint/wire formats that
/// embed them).
class ByteWriter {
 public:
  /// Grows the buffer's capacity to at least `total_bytes`, so a writer
  /// that knows its final size appends without reallocating.
  void Reserve(size_t total_bytes) { buf_.reserve(total_bytes); }

  /// Appends one byte.
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  /// Appends a 16-bit value, least-significant byte first.
  void U16(uint16_t v) { Uint(v); }
  /// Appends a 32-bit value, least-significant byte first.
  void U32(uint32_t v) { Uint(v); }
  /// Appends a 64-bit value, least-significant byte first.
  void U64(uint64_t v) { Uint(v); }
  /// Appends `count` 16-bit values, each least-significant byte first.
  void U16s(const uint16_t* values, size_t count) { Uints(values, count); }
  /// Appends `count` 64-bit values, each least-significant byte first.
  void U64s(const uint64_t* values, size_t count) { Uints(values, count); }
  /// Appends a signed 32-bit value (two's-complement bits of U32).
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  /// Appends a signed 64-bit value (two's-complement bits of U64).
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// Appends a double as its IEEE-754 bit pattern (8 bytes, little-endian).
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  /// Appends `size` raw bytes verbatim.
  void Bytes(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  /// Appends a length-prefixed string: u64 byte count, then the bytes.
  void String(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }

  /// The accumulated buffer (callers typically std::move it out).
  std::string& buffer() { return buf_; }

 private:
  template <typename T>
  void Uint(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof(T));
  }
  template <typename T>
  void Uints(const T* values, size_t count) {
    if constexpr (kHostLittleEndian) {
      if (count > 0) Bytes(values, count * sizeof(T));
    } else {
      for (size_t i = 0; i < count; ++i) Uint(values[i]);
    }
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte span; every overrun is a
/// DataLoss status (a truncated buffer fails here, before any semantic
/// check). The span is borrowed — it must outlive the reader.
class ByteReader {
 public:
  /// Wraps the span [data, data + size); reads advance an internal cursor.
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  /// Reads one byte into *out.
  Status U8(uint8_t* out) {
    NFA_RETURN_NOT_OK(Need(1));
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }
  /// Reads a little-endian 16-bit value into *out.
  Status U16(uint16_t* out) { return Uint(out); }
  /// Reads a little-endian 32-bit value into *out.
  Status U32(uint32_t* out) { return Uint(out); }
  /// Reads a little-endian 64-bit value into *out.
  Status U64(uint64_t* out) { return Uint(out); }
  /// Reads `count` little-endian 16-bit values into out[0..count). A span
  /// that overruns the buffer is DataLoss before anything is copied.
  Status U16s(uint16_t* out, size_t count) { return Uints(out, count); }
  /// Reads `count` little-endian 64-bit values into out[0..count), with the
  /// same all-or-nothing bounds check as U16s.
  Status U64s(uint64_t* out, size_t count) { return Uints(out, count); }
  /// Reads a signed 32-bit value (two's-complement bits of U32).
  Status I32(int32_t* out) {
    uint32_t v = 0;
    NFA_RETURN_NOT_OK(U32(&v));
    *out = static_cast<int32_t>(v);
    return Status::Ok();
  }
  /// Reads a signed 64-bit value (two's-complement bits of U64).
  Status I64(int64_t* out) {
    uint64_t v = 0;
    NFA_RETURN_NOT_OK(U64(&v));
    *out = static_cast<int64_t>(v);
    return Status::Ok();
  }
  /// Reads an IEEE-754 double from its 8-byte little-endian bit pattern.
  Status F64(double* out) {
    uint64_t bits = 0;
    NFA_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::Ok();
  }
  /// Copies `size` raw bytes into out.
  Status Bytes(void* out, size_t size) {
    NFA_RETURN_NOT_OK(Need(size));
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }
  /// Reads a length-prefixed string (u64 byte count, then the bytes),
  /// rejecting declared lengths above `max_size` as DataLoss — a corrupt
  /// length field must fail before sizing any allocation by it.
  Status String(std::string* out, size_t max_size) {
    uint64_t size = 0;
    NFA_RETURN_NOT_OK(U64(&size));
    if (size > max_size) {
      return Status::DataLoss("wire: embedded string length corrupt");
    }
    NFA_RETURN_NOT_OK(Need(static_cast<size_t>(size)));
    out->assign(data_ + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::Ok();
  }

  /// Bytes left between the cursor and the end of the span.
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t bytes) {
    if (size_ - pos_ < bytes) {
      return Status::DataLoss("wire: field overruns buffer");
    }
    return Status::Ok();
  }

  template <typename T>
  Status Uints(T* out, size_t count) {
    // Divide rather than multiply: count * sizeof(T) may overflow size_t.
    if (count > remaining() / sizeof(T)) {
      return Status::DataLoss("wire: field overruns buffer");
    }
    if (count == 0) return Status::Ok();
    if constexpr (kHostLittleEndian) {
      std::memcpy(out, data_ + pos_, count * sizeof(T));
    } else {
      for (size_t i = 0; i < count; ++i) {
        out[i] = Load<T>(data_ + pos_ + i * sizeof(T));
      }
    }
    pos_ += count * sizeof(T);
    return Status::Ok();
  }
  template <typename T>
  Status Uint(T* out) {
    NFA_RETURN_NOT_OK(Need(sizeof(T)));
    *out = Load<T>(data_ + pos_);
    pos_ += sizeof(T);
    return Status::Ok();
  }
  template <typename T>
  static T Load(const char* bytes) {
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(
          v | static_cast<T>(static_cast<unsigned char>(bytes[i])) << (8 * i));
    }
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_WIRE_HPP_
