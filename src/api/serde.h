// Binary serialization for the typed Dataset API.
//
// Partitions move between monotasks as serialized byte buffers (the engine's disks
// and network carry bytes, exactly as in the real system), so every record type needs
// a Serde. Built-in specializations cover integral types, double, std::string, and
// std::pair; user types can specialize monotasks::Serde<T>.
//
// Deserialization cost is real CPU work performed inside compute monotasks — the
// separation the §6.3 what-if depends on.
#ifndef MONOTASKS_SRC_API_SERDE_H_
#define MONOTASKS_SRC_API_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/engine/block_device.h"

namespace monotasks {

// Append-only byte sink.
class ByteWriter {
 public:
  explicit ByteWriter(Buffer* out) : out_(out) { MONO_CHECK(out != nullptr); }

  void PutRaw(const void* data, size_t size) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }
  template <typename T>
  void PutPod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(&value, sizeof(T));
  }
  void PutU64(uint64_t value) { PutPod(value); }

 private:
  Buffer* out_;
};

// Sequential byte source over a Buffer.
class ByteReader {
 public:
  explicit ByteReader(const Buffer& in) : data_(in.data()), size_(in.size()) {}

  void GetRaw(void* out, size_t size) {
    MONO_CHECK_MSG(pos_ + size <= size_, "deserialization ran past the buffer");
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }
  template <typename T>
  T GetPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    GetRaw(&value, sizeof(T));
    return value;
  }
  uint64_t GetU64() { return GetPod<uint64_t>(); }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

template <typename T, typename Enable = void>
struct Serde;

// All trivially-copyable types (ints, double, POD structs).
template <typename T>
struct Serde<T, std::enable_if_t<std::is_trivially_copyable_v<T>>> {
  static void Write(ByteWriter* writer, const T& value) { writer->PutPod(value); }
  static T Read(ByteReader* reader) { return reader->GetPod<T>(); }
};

template <>
struct Serde<std::string> {
  static void Write(ByteWriter* writer, const std::string& value) {
    writer->PutU64(value.size());
    writer->PutRaw(value.data(), value.size());
  }
  static std::string Read(ByteReader* reader) {
    const uint64_t size = reader->GetU64();
    std::string value(size, '\0');
    reader->GetRaw(value.data(), size);
    return value;
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>, std::enable_if_t<!std::is_trivially_copyable_v<std::pair<A, B>>>> {
  static void Write(ByteWriter* writer, const std::pair<A, B>& value) {
    Serde<A>::Write(writer, value.first);
    Serde<B>::Write(writer, value.second);
  }
  static std::pair<A, B> Read(ByteReader* reader) {
    A a = Serde<A>::Read(reader);
    B b = Serde<B>::Read(reader);
    return {std::move(a), std::move(b)};
  }
};

// Serializes a whole record vector: count followed by records.
template <typename T>
Buffer SerializeVector(const std::vector<T>& records) {
  Buffer out;
  ByteWriter writer(&out);
  writer.PutU64(records.size());
  for (const T& record : records) {
    Serde<T>::Write(&writer, record);
  }
  return out;
}

template <typename T>
std::vector<T> DeserializeVector(const Buffer& data) {
  ByteReader reader(data);
  const uint64_t count = reader.GetU64();
  std::vector<T> records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    records.push_back(Serde<T>::Read(&reader));
  }
  return records;
}

}  // namespace monotasks

#endif  // MONOTASKS_SRC_API_SERDE_H_
