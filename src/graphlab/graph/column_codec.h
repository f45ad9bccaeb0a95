// Copyright 2026 The Distributed GraphLab Reproduction Authors.
//
// Column codec: compact encodings for id and property columns — static
// edge weights, BP edge potentials, sorted global-id columns in snapshot
// journals, and the sorted key and version columns of every ghost delta
// frame (graph/distributed_graph.h).
//
// A column is written as
//
//     [u8 codec] [u32 count] [payload]
//
// with three codecs, chosen per column by measured encoded size:
//
//   kRaw          count * sizeof(T) value bytes, verbatim.
//   kDict         [u32 dict_size][dict values][codes]: distinct values in
//                 first-occurrence order, then one u8 (dict_size <= 256)
//                 or u16 code per element.  Wins on low-cardinality
//                 columns (uniform edge weights, colors, owner ids).
//   kDeltaVarint  integral columns only: zigzag(v[i] - v[i-1]) in LEB128.
//                 Wins on sorted or clustered id columns (the gvid/src/dst
//                 columns of a columnar snapshot journal or a ghost frame)
//                 and on version columns.
//
// The encoder is deterministic — same input bytes, same output bytes — so
// golden-byte tests can pin the format (property_test.cc).  The decoder
// is fully checked: corrupt or truncated input returns false, and a
// column's allocation is bounded by the bytes it arrived in.  Values are
// encoded in host representation; like the rest of the repo's storage
// formats this targets little-endian LP64 (util/serialization.h holds the
// same assumption for its bulk paths).

#ifndef GRAPHLAB_GRAPH_COLUMN_CODEC_H_
#define GRAPHLAB_GRAPH_COLUMN_CODEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace graphlab {

enum class ColumnCodec : uint8_t {
  kRaw = 0,
  kDict = 1,
  kDeltaVarint = 2,
};

inline const char* ToString(ColumnCodec c) {
  switch (c) {
    case ColumnCodec::kRaw: return "raw";
    case ColumnCodec::kDict: return "dict";
    case ColumnCodec::kDeltaVarint: return "delta_varint";
  }
  return "?";
}

/// What EncodeColumn decided and what it bought.
struct ColumnEncodingStats {
  ColumnCodec codec = ColumnCodec::kRaw;
  size_t raw_bytes = 0;      // count * sizeof(T)
  size_t encoded_bytes = 0;  // total output, header included
  double ratio() const {
    return raw_bytes == 0 ? 1.0
                          : static_cast<double>(encoded_bytes) /
                                static_cast<double>(raw_bytes);
  }
};

namespace codec_internal {

inline void AppendU32(uint32_t v, std::string* out) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

inline bool ReadU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (in.size() - *pos < 4) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

inline void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline bool ReadVarint(std::string_view in, size_t* pos, uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= in.size()) return false;
    const uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // > 10 continuation bytes: corrupt
}

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Delta-varint arithmetic runs on each value's 64-bit two's-complement
/// image (sign- or zero-extended from T) and wraps modulo 2^64, so a
/// column holding INT64_MIN next to INT64_MAX, or unsigned values above
/// INT64_MAX, round-trips without signed overflow.  On every column that
/// never overflowed, the bytes are the ones signed arithmetic produced.
template <typename T>
uint64_t WideImage(T v) {
  return static_cast<uint64_t>(static_cast<int64_t>(v));
}
inline uint64_t ZigZagDelta(uint64_t cur, uint64_t prev) {
  return ZigZag(static_cast<int64_t>(cur - prev));
}

inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace codec_internal

/// Encodes `col` into `*out` (appended), picking the smallest of the
/// applicable codecs.  T must be trivially copyable.
template <typename T>
ColumnEncodingStats EncodeColumn(std::span<const T> col, std::string* out) {
  static_assert(std::is_trivially_copyable_v<T>,
                "cold-column codec requires trivially copyable values");
  static_assert(sizeof(T) <= 8, "the dictionary indexes values by bits");
  namespace ci = codec_internal;
  const uint32_t count = static_cast<uint32_t>(col.size());
  ColumnEncodingStats stats;
  stats.raw_bytes = col.size() * sizeof(T);

  // Candidate: zigzag delta varint (integral values only).
  size_t delta_bytes = SIZE_MAX;
  if constexpr (std::is_integral_v<T>) {
    delta_bytes = 0;
    uint64_t prev = 0;
    for (const T& v : col) {
      const uint64_t cur = ci::WideImage(v);
      delta_bytes += ci::VarintSize(ci::ZigZagDelta(cur, prev));
      prev = cur;
    }
  }

  // Candidate: dictionary.  Its size needs only the number of distinct
  // values, counted on a sorted copy of their bits; the dictionary itself
  // is built below only if it wins.  Give up past 65536 distinct (dict
  // would not win anyway).  A dictionary costs at least
  // 4 + sizeof(T) + count bytes, so when the delta candidate is already
  // strictly smaller the count is skipped: the codec chosen below is the
  // same either way.
  size_t distinct = 0;
  size_t dict_bytes = SIZE_MAX;
  if (!col.empty() && delta_bytes >= 4 + sizeof(T) + col.size()) {
    std::vector<uint64_t> bits(col.size());
    for (size_t i = 0; i < col.size(); ++i) {
      std::memcpy(&bits[i], &col[i], sizeof(T));
    }
    std::sort(bits.begin(), bits.end());
    distinct = static_cast<size_t>(std::unique(bits.begin(), bits.end()) -
                                   bits.begin());
    if (distinct <= 65536) {
      dict_bytes = 4 + distinct * sizeof(T) +
                   col.size() * (distinct <= 256 ? 1 : 2);
    }
  }

  ColumnCodec codec = ColumnCodec::kRaw;
  size_t payload = stats.raw_bytes;
  if (dict_bytes < payload) {
    codec = ColumnCodec::kDict;
    payload = dict_bytes;
  }
  if (delta_bytes < payload) {
    codec = ColumnCodec::kDeltaVarint;
    payload = delta_bytes;
  }

  out->push_back(static_cast<char>(codec));
  ci::AppendU32(count, out);
  switch (codec) {
    case ColumnCodec::kRaw:
      out->append(reinterpret_cast<const char*>(col.data()),
                  col.size() * sizeof(T));
      break;
    case ColumnCodec::kDict: {
      // Distinct values in first-occurrence order, indexed by their bits.
      std::vector<T> dict;
      std::vector<uint32_t> codes;
      std::unordered_map<uint64_t, uint32_t> index;
      dict.reserve(distinct);
      codes.reserve(col.size());
      index.reserve(distinct);
      for (const T& v : col) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        auto [it, inserted] =
            index.try_emplace(bits, static_cast<uint32_t>(dict.size()));
        if (inserted) dict.push_back(v);
        codes.push_back(it->second);
      }
      ci::AppendU32(static_cast<uint32_t>(dict.size()), out);
      out->append(reinterpret_cast<const char*>(dict.data()),
                  dict.size() * sizeof(T));
      if (distinct <= 256) {
        for (uint32_t c : codes) out->push_back(static_cast<char>(c));
      } else {
        for (uint32_t c : codes) {
          const uint16_t c16 = static_cast<uint16_t>(c);
          out->append(reinterpret_cast<const char*>(&c16), 2);
        }
      }
      break;
    }
    case ColumnCodec::kDeltaVarint: {
      if constexpr (std::is_integral_v<T>) {
        uint64_t prev = 0;
        for (const T& v : col) {
          const uint64_t cur = ci::WideImage(v);
          ci::AppendVarint(ci::ZigZagDelta(cur, prev), out);
          prev = cur;
        }
      }
      break;
    }
  }
  stats.codec = codec;
  stats.encoded_bytes = 1 + 4 + payload;
  return stats;
}

/// Decodes one encoded column from the front of `in`.  On success appends
/// the values to `*out`, advances `*pos` past the column, and returns
/// true; on corrupt input returns false with `*out` unspecified.
template <typename T>
bool DecodeColumn(std::string_view in, size_t* pos, std::vector<T>* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  namespace ci = codec_internal;
  if (*pos >= in.size()) return false;
  const uint8_t codec_byte = static_cast<uint8_t>(in[(*pos)++]);
  uint32_t count = 0;
  if (!ci::ReadU32(in, pos, &count)) return false;
  // Every codec spends at least one byte per value, so a count above the
  // bytes left is corrupt; checking first keeps a wire-controlled count
  // from sizing the allocation below.
  if (count > in.size() - *pos) return false;
  out->reserve(out->size() + count);
  switch (static_cast<ColumnCodec>(codec_byte)) {
    case ColumnCodec::kRaw: {
      const size_t need = static_cast<size_t>(count) * sizeof(T);
      if (in.size() - *pos < need) return false;
      const size_t base = out->size();
      out->resize(base + count);
      // An empty column may leave data() null, which memcpy rejects even
      // for zero bytes.
      if (need != 0) std::memcpy(out->data() + base, in.data() + *pos, need);
      *pos += need;
      return true;
    }
    case ColumnCodec::kDict: {
      uint32_t dict_size = 0;
      if (!ci::ReadU32(in, pos, &dict_size)) return false;
      if (dict_size > 65536) return false;
      const size_t dict_need = static_cast<size_t>(dict_size) * sizeof(T);
      if (in.size() - *pos < dict_need) return false;
      if (dict_size == 0) return count == 0;  // no code can index it
      std::vector<T> dict(dict_size);
      std::memcpy(dict.data(), in.data() + *pos, dict_need);
      *pos += dict_need;
      const size_t code_width = dict_size <= 256 ? 1 : 2;
      const size_t codes_need = static_cast<size_t>(count) * code_width;
      if (in.size() - *pos < codes_need) return false;
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t code;
        if (code_width == 1) {
          code = static_cast<uint8_t>(in[*pos + i]);
        } else {
          uint16_t c16;
          std::memcpy(&c16, in.data() + *pos + i * 2, 2);
          code = c16;
        }
        if (code >= dict_size) return false;
        out->push_back(dict[code]);
      }
      *pos += codes_need;
      return true;
    }
    case ColumnCodec::kDeltaVarint: {
      if constexpr (std::is_integral_v<T>) {
        uint64_t prev = 0;
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t z;
          if (!ci::ReadVarint(in, pos, &z)) return false;
          prev += static_cast<uint64_t>(ci::UnZigZag(z));
          out->push_back(static_cast<T>(prev));
        }
        return true;
      }
      return false;  // delta codec on a non-integral column: corrupt
    }
  }
  return false;
}

/// Whole-buffer convenience: decodes exactly one column that spans all of
/// `in`.
template <typename T>
bool DecodeColumn(std::string_view in, std::vector<T>* out) {
  size_t pos = 0;
  return DecodeColumn(in, &pos, out) && pos == in.size();
}

}  // namespace graphlab

#endif  // GRAPHLAB_GRAPH_COLUMN_CODEC_H_
