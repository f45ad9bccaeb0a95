#include "graphlab/graph/ghost_frame.h"

#include <algorithm>

#include "graphlab/graph/column_codec.h"

namespace graphlab {

void GhostFrame::Clear() {
  vgvid_.clear();
  vversion_.clear();
  vblob_.clear();
  esrc_.clear();
  edst_.clear();
  eversion_.clear();
  eblob_.clear();
  arena_.clear();
}

void GhostFrame::AddVertex(VertexId gvid, uint64_t version,
                           std::string_view blob) {
  vgvid_.push_back(gvid);
  vversion_.push_back(version);
  vblob_.push_back(Store(blob));
}

void GhostFrame::AddEdge(VertexId src, VertexId dst, uint64_t version,
                         std::string_view blob) {
  esrc_.push_back(src);
  edst_.push_back(dst);
  eversion_.push_back(version);
  eblob_.push_back(Store(blob));
}

size_t GhostFrame::SetVertex(size_t i, uint64_t version,
                             std::string_view blob) {
  vversion_[i] = version;
  return Overwrite(&vblob_[i], blob);
}

size_t GhostFrame::SetEdge(size_t i, uint64_t version,
                           std::string_view blob) {
  eversion_[i] = version;
  return Overwrite(&eblob_[i], blob);
}

GhostFrame::BlobRef GhostFrame::Store(std::string_view blob) {
  const BlobRef ref{arena_.size(), blob.size()};
  arena_.append(blob);
  return ref;
}

// In place when the size is unchanged, else as a new arena run (the old
// run stays dead until Clear()).
size_t GhostFrame::Overwrite(BlobRef* ref, std::string_view blob) {
  const size_t old_size = ref->size;
  if (blob.size() == old_size) {
    arena_.replace(ref->offset, old_size, blob);
  } else {
    *ref = Store(blob);
  }
  return old_size;
}

template <typename KeyFn>
void GhostFrame::SortBy(size_t n, KeyFn key, Order* order) {
  order->clear();
  for (size_t i = 0; i < n; ++i) {
    order->emplace_back(key(i), static_cast<uint32_t>(i));
  }
  std::sort(order->begin(), order->end());
}

template <typename T>
void GhostFrame::EncodeSorted(const std::vector<T>& col, const Order& order,
                              std::vector<T>* sorted, std::string* out) {
  sorted->clear();
  for (const auto& [key, i] : order) sorted->push_back(col[i]);
  EncodeColumn<T>(*sorted, out);
}

OutArchive GhostFrame::Encode() {
  vcolumns_.clear();
  ecolumns_.clear();
  SortBy(vgvid_.size(), [&](size_t i) { return uint64_t{vgvid_[i]}; },
         &vorder_);
  EncodeSorted(vgvid_, vorder_, &sorted_ids_, &vcolumns_);
  EncodeSorted(vversion_, vorder_, &sorted_versions_, &vcolumns_);
  SortBy(esrc_.size(),
         [&](size_t i) { return (uint64_t{esrc_[i]} << 32) | edst_[i]; },
         &eorder_);
  EncodeSorted(esrc_, eorder_, &sorted_ids_, &ecolumns_);
  EncodeSorted(edst_, eorder_, &sorted_ids_, &ecolumns_);
  EncodeSorted(eversion_, eorder_, &sorted_versions_, &ecolumns_);

  // The blobs go straight from the arena into an archive sized once.
  size_t blob_bytes = 0;
  for (const BlobRef& b : vblob_) blob_bytes += b.size;
  for (const BlobRef& b : eblob_) blob_bytes += b.size;
  OutArchive oa;
  oa.Reserve(1 + vcolumns_.size() + ecolumns_.size() + blob_bytes);
  oa << kGhostFrameVersion;
  auto write_section = [&](const std::string& columns, const Order& order,
                           const std::vector<BlobRef>& blobs) {
    oa.WriteBytes(columns.data(), columns.size());
    for (const auto& [key, i] : order) {
      oa.WriteBytes(arena_.data() + blobs[i].offset, blobs[i].size);
    }
  };
  write_section(vcolumns_, vorder_, vblob_);
  write_section(ecolumns_, eorder_, eblob_);
  return oa;
}

namespace {

// Decodes consecutive columns from the front of `ia`; all must decode and
// hold the same count.
template <typename First, typename... Rest>
bool ReadColumns(InArchive& ia, std::vector<First>* first,
                 std::vector<Rest>*... rest) {
  const std::string_view in = ia.Rest();
  size_t pos = 0;
  first->clear();
  (rest->clear(), ...);
  const bool ok = DecodeColumn(in, &pos, first) &&
                  (DecodeColumn(in, &pos, rest) && ...) &&
                  ((rest->size() == first->size()) && ...);
  return ok && ia.Skip(pos);
}

}  // namespace

bool ReadGhostVertexColumns(InArchive& ia, std::vector<VertexId>* gvid,
                            std::vector<uint64_t>* version) {
  return ReadColumns(ia, gvid, version);
}

bool ReadGhostEdgeColumns(InArchive& ia, std::vector<VertexId>* src,
                          std::vector<VertexId>* dst,
                          std::vector<uint64_t>* version) {
  return ReadColumns(ia, src, dst, version);
}

}  // namespace graphlab
