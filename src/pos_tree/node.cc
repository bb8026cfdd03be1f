#include "pos_tree/node.h"

namespace fb {

void EncodeElement(ChunkType leaf_type, Slice key, Slice value, Bytes* out) {
  switch (leaf_type) {
    case ChunkType::kBlob:
      // Raw bytes; `value` carries the byte run.
      AppendSlice(out, value);
      return;
    case ChunkType::kList:
      PutLengthPrefixed(out, value);
      return;
    case ChunkType::kSet:
      PutLengthPrefixed(out, key);
      return;
    case ChunkType::kMap:
      PutLengthPrefixed(out, key);
      PutLengthPrefixed(out, value);
      return;
    default:
      // Index/meta chunks never encode elements.
      return;
  }
}

Status DecodeLeafElements(ChunkType leaf_type, Slice payload,
                          std::vector<ElementView>* out) {
  out->clear();
  if (leaf_type == ChunkType::kBlob) {
    return Status::InvalidArgument(
        "Blob leaves are accessed as raw bytes, not elements");
  }
  std::vector<uint32_t> bounds;
  FB_RETURN_NOT_OK(LeafElementBounds(leaf_type, payload, &bounds));
  out->reserve(bounds.size() - 1);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    out->push_back(DecodeElement(
        leaf_type, payload.subslice(bounds[i], bounds[i + 1] - bounds[i])));
  }
  return Status::OK();
}

Result<uint64_t> LeafElementCount(ChunkType leaf_type, Slice payload) {
  if (leaf_type == ChunkType::kBlob) return uint64_t{payload.size()};
  std::vector<uint32_t> bounds;
  FB_RETURN_NOT_OK(LeafElementBounds(leaf_type, payload, &bounds));
  return uint64_t{bounds.size() - 1};
}

Status LeafElementBounds(ChunkType leaf_type, Slice payload,
                         std::vector<uint32_t>* bounds) {
  bounds->clear();
  ByteReader reader(payload);
  Slice part;
  while (!reader.AtEnd()) {
    bounds->push_back(static_cast<uint32_t>(reader.position()));
    switch (leaf_type) {
      case ChunkType::kList:
      case ChunkType::kSet:
        FB_RETURN_NOT_OK(reader.ReadLengthPrefixed(&part));
        break;
      case ChunkType::kMap:
        FB_RETURN_NOT_OK(reader.ReadLengthPrefixed(&part));
        FB_RETURN_NOT_OK(reader.ReadLengthPrefixed(&part));
        break;
      default:
        return Status::InvalidArgument("not a leaf type");
    }
  }
  bounds->push_back(static_cast<uint32_t>(payload.size()));
  return Status::OK();
}

ElementView DecodeElement(ChunkType leaf_type, Slice element) {
  ByteReader reader(element);
  ElementView e;
  switch (leaf_type) {
    case ChunkType::kList:
      (void)reader.ReadLengthPrefixed(&e.value);
      break;
    case ChunkType::kSet:
      (void)reader.ReadLengthPrefixed(&e.key);
      break;
    case ChunkType::kMap:
      (void)reader.ReadLengthPrefixed(&e.key);
      (void)reader.ReadLengthPrefixed(&e.value);
      break;
    default:
      break;
  }
  return e;
}

void EncodeEntry(const Hash& cid, uint64_t count, Slice key, Bytes* out) {
  AppendSlice(out, cid.slice());
  PutVarint64(out, count);
  PutLengthPrefixed(out, key);
}

Status DecodeIndexEntryViews(Slice payload, std::vector<EntryView>* out) {
  out->clear();
  ByteReader reader(payload);
  while (!reader.AtEnd()) {
    EntryView e;
    Slice cid_bytes;
    FB_RETURN_NOT_OK(reader.ReadRaw(Hash::kSize, &cid_bytes));
    Sha256::Digest d;
    std::copy(cid_bytes.begin(), cid_bytes.end(), d.begin());
    e.cid = Hash(d);
    FB_RETURN_NOT_OK(reader.ReadVarint64(&e.count));
    FB_RETURN_NOT_OK(reader.ReadLengthPrefixed(&e.key));
    out->push_back(e);
  }
  return Status::OK();
}

Status DecodeIndexEntries(Slice payload, std::vector<Entry>* out) {
  std::vector<EntryView> views;
  FB_RETURN_NOT_OK(DecodeIndexEntryViews(payload, &views));
  out->clear();
  out->reserve(views.size());
  for (const EntryView& v : views) {
    out->push_back(Entry{v.cid, v.count, v.key.ToBytes()});
  }
  return Status::OK();
}

size_t ChildForKey(const std::vector<EntryView>& entries, Slice key,
                   uint64_t* skipped) {
  uint64_t before = 0;
  size_t i = 0;
  for (; i + 1 < entries.size(); ++i) {
    if (entries[i].key >= key) break;
    before += entries[i].count;
  }
  *skipped = before;
  return i;
}

size_t ChildForPos(const std::vector<EntryView>& entries, uint64_t pos,
                   uint64_t* skipped) {
  uint64_t before = 0;
  size_t i = 0;
  for (; i + 1 < entries.size(); ++i) {
    if (before + entries[i].count > pos) break;
    before += entries[i].count;
  }
  *skipped = before;
  return i;
}

}  // namespace fb
