#pragma once
// Minimal binary (de)serialization helpers for trivially copyable
// values and vectors thereof. Little-endian host assumed (the only
// target of this library); sizes are written as u64.

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace repute::util {

template <typename T>
    requires std::is_trivially_copyable_v<T>
void write_pod(std::ostream& out, const T& value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
    requires std::is_trivially_copyable_v<T>
T read_pod(std::istream& in) {
    T value{};
    in.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in) throw std::runtime_error("serialize: short read");
    return value;
}

template <typename T>
    requires std::is_trivially_copyable_v<T>
void write_vector(std::ostream& out, const std::vector<T>& values) {
    write_pod<std::uint64_t>(out, values.size());
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
    requires std::is_trivially_copyable_v<T>
std::vector<T> read_vector(std::istream& in) {
    const auto count = read_pod<std::uint64_t>(in);
    std::vector<T> values(count);
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
    if (!in) throw std::runtime_error("serialize: short read");
    return values;
}

/// FNV-1a 64-bit checksum — the integrity check of the .rix index
/// container (index/rix.hpp). Not cryptographic; it exists to catch
/// truncation, bit rot and torn writes at load time, cheaply enough to
/// run over every mapped section (one pass at memory bandwidth).
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                             std::uint64_t seed =
                                 0xCBF29CE484222325ULL) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

} // namespace repute::util
