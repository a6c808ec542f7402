#include "ckpt/store.hpp"

#include <algorithm>
#include <cstring>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace spbc::ckpt {

sim::Time StorageCostModel::write_time(StorageLevel level, uint64_t bytes) const {
  switch (level) {
    case StorageLevel::kNone:
      return 0.0;
    case StorageLevel::kLocal:
      return local_latency + static_cast<double>(bytes) / local_bw;
    case StorageLevel::kPartner:
      return base_latency + static_cast<double>(bytes) / partner_bw;
    case StorageLevel::kPfs:
      return base_latency + static_cast<double>(bytes) / pfs_bw;
  }
  return 0.0;
}

sim::Time StorageCostModel::read_time(StorageLevel level, uint64_t bytes) const {
  // Reads are symmetric in this model.
  return write_time(level, bytes);
}

namespace {
// The payload save() builds when it cannot hand over the tail as it is: one
// buffer per thread (the threaded shard executor saves on several threads
// at once), reused so a capture allocates nothing of its own size.
thread_local std::vector<unsigned char> t_payload;
}  // namespace

SaveInfo Store::save(int rank, Snapshot snap, bool force_full) {
  Row& r = row(rank);
  const uint32_t bb = reduction_.block_bytes ? reduction_.block_bytes : 4096;
  StoredSnapshot s;
  const StateImage* image = snap.image;
  if (image != nullptr) {
    s.image_versions = image->versions();
    // The image stays a separate segment only where its blocks are whole
    // capture blocks, diffed by version; anywhere else it joins the tail.
    if (!reduction_.delta || image->size() % bb != 0) {
      snap.bytes.insert(snap.bytes.begin(), image->size(), 0);
      image->write(0, image->size(), snap.bytes.data());
      image = nullptr;
    }
  }
  const uint64_t image_size = image ? image->size() : 0;
  const uint32_t image_blocks = static_cast<uint32_t>(image_size / bb);
  const std::span<const unsigned char> tail = snap.bytes;

  SaveInfo info;
  info.raw_bytes = image_size + tail.size();

  s.taken_at = snap.taken_at;
  s.epoch = snap.epoch;
  s.raw_size = info.raw_bytes;
  s.chain_base = snap.epoch;

  const uint32_t nblocks = static_cast<uint32_t>((s.raw_size + bb - 1) / bb);
  info.blocks_total = nblocks;
  info.blocks_changed = nblocks;

  // Logical bytes [off, off + len) from whichever segment holds them: a
  // block lies wholly in one, since the image is block-aligned.
  std::vector<unsigned char>& payload = t_payload;
  payload.clear();
  auto append = [&](uint64_t off, uint64_t len) {
    const size_t at = payload.size();
    payload.resize(at + len);
    if (off < image_size)
      image->write(off, len, payload.data() + at);
    else
      std::memcpy(payload.data() + at, tail.data() + (off - image_size), len);
  };
  bool have_payload = false;
  if (reduction_.delta) {
    s.block_bytes = bb;
    // Only the tail's blocks are hashed: the image's are diffed by version.
    s.block_hashes = hash_blocks(tail, bb);
    // Delta eligibility: the immediately-preceding epoch is still stored at
    // the same granularity, and appending to its chain stays within the
    // full-capture stride. A replaced same-epoch snapshot re-diffs against
    // the same predecessor.
    const StoredSnapshot* prev = nullptr;
    if (!force_full && snap.epoch > 0) {
      auto it = r.snaps.find(snap.epoch - 1);
      if (it != r.snaps.end() && it->second.block_bytes == bb) prev = &it->second;
    }
    if (prev != nullptr &&
        (reduction_.full_stride == 0 ||
         snap.epoch - prev->chain_base < reduction_.full_stride)) {
      if (image) s.changed = image->changed_blocks(prev->image_versions, bb);
      // The predecessor hashed its blocks from `first` on (past its own
      // image's, when that rode by reference); block b is compared with
      // the predecessor's block b.
      const size_t prev_n = prev->block_hashes.size();
      const uint64_t first = (prev->raw_size + bb - 1) / bb - prev_n;
      for (uint32_t b = image_blocks; b < nblocks; ++b) {
        if (b >= first && b - first < prev_n &&
            prev->block_hashes[b - first] == s.block_hashes[b - image_blocks])
          continue;
        s.changed.push_back(b);
      }
      if (s.changed.size() < nblocks) {
        s.chain_base = prev->chain_base;
        info.blocks_changed = static_cast<uint32_t>(s.changed.size());
        for (uint32_t b : s.changed) {
          const uint64_t off = static_cast<uint64_t>(b) * bb;
          append(off, std::min<uint64_t>(bb, s.raw_size - off));
        }
        have_payload = true;
      } else {
        s.changed.clear();  // everything changed: a full capture is smaller
      }
    }
  }
  if (!have_payload && image) {
    append(0, image_size);
    append(image_size, tail.size());
    have_payload = true;
  }
  // Otherwise the tail is the whole full capture and is stored as it is.
  const std::span<const unsigned char> raw =
      have_payload ? std::span<const unsigned char>(payload) : tail;

  if (reduction_.compress) {
    std::vector<unsigned char> enc = util::codec::lz_compress(raw.data(), raw.size());
    if (enc.size() < raw.size()) {
      s.compressed = true;
      s.enc = std::move(enc);
    }
  }
  if (!s.compressed) {
    if (have_payload)
      s.enc.assign(payload.begin(), payload.end());
    else
      s.enc = std::move(snap.bytes);
  }

  info.stored_bytes = s.enc.size();
  info.chain_base = s.chain_base;
  info.full = s.full();
  r.bytes_written += info.stored_bytes;
  r.raw_bytes += info.raw_bytes;
  ++r.snapshots;
  if (!info.full) ++r.delta_snapshots;
  r.snaps[s.epoch] = std::move(s);
  return info;
}

bool Store::has(int rank) const {
  const Row* r = row(rank);
  return r && !r->snaps.empty();
}

const StoredSnapshot& Store::latest(int rank) const {
  const Row* r = row(rank);
  SPBC_ASSERT_MSG(r && !r->snaps.empty(), "no checkpoint for rank " << rank);
  return r->snaps.rbegin()->second;
}

bool Store::has_epoch(int rank, uint64_t epoch) const {
  const Row* r = row(rank);
  return r && r->snaps.count(epoch) > 0;
}

const StoredSnapshot& Store::at_epoch(int rank, uint64_t epoch) const {
  const Row* r = row(rank);
  SPBC_ASSERT_MSG(r && r->snaps.count(epoch) > 0,
                  "no epoch-" << epoch << " checkpoint for rank " << rank);
  return r->snaps.at(epoch);
}

std::span<const unsigned char> Store::decode_payload(
    const StoredSnapshot& s, std::vector<unsigned char>& buf) {
  if (!s.compressed) return s.enc;
  // Delta payload size: full blocks plus a possibly-short tail block.
  uint64_t out_n = s.raw_size;
  if (!s.full()) {
    out_n = 0;
    for (uint32_t b : s.changed) {
      const uint64_t off = static_cast<uint64_t>(b) * s.block_bytes;
      out_n += std::min<uint64_t>(s.block_bytes, s.raw_size - off);
    }
  }
  buf.resize(out_n);
  const bool ok =
      util::codec::lz_decompress(s.enc.data(), s.enc.size(), buf.data(), out_n);
  SPBC_ASSERT_MSG(ok, "corrupt stored snapshot at epoch " << s.epoch);
  return buf;
}

const std::vector<unsigned char>& Store::materialize(
    int rank, uint64_t epoch, std::vector<unsigned char>& scratch) const {
  const StoredSnapshot& head = at_epoch(rank, epoch);
  if (head.full() && !head.compressed) return head.enc;  // raw path: no copy
  const StoredSnapshot& base = at_epoch(rank, head.chain_base);
  SPBC_ASSERT_MSG(base.full(), "chain base epoch " << head.chain_base
                                                   << " of rank " << rank
                                                   << " is not a full capture");
  if (base.compressed)
    decode_payload(base, scratch);  // decodes straight into scratch
  else
    scratch = base.enc;
  // Roll the deltas forward, base + 1 .. epoch. Every element must still be
  // stored: prune_epochs_below never removes a live chain's interior.
  std::vector<unsigned char> buf;  // shared by every compressed delta
  for (uint64_t e = head.chain_base + 1; e <= epoch; ++e) {
    const StoredSnapshot& d = at_epoch(rank, e);
    SPBC_ASSERT_MSG(d.chain_base == head.chain_base,
                    "broken delta chain at epoch " << e << " of rank " << rank);
    const std::span<const unsigned char> payload = decode_payload(d, buf);
    scratch.resize(d.raw_size);
    uint64_t src = 0;
    for (uint32_t b : d.changed) {
      const uint64_t off = static_cast<uint64_t>(b) * d.block_bytes;
      const uint64_t len = std::min<uint64_t>(d.block_bytes, d.raw_size - off);
      SPBC_ASSERT(src + len <= payload.size());
      std::memcpy(scratch.data() + off, payload.data() + src, len);
      src += len;
    }
  }
  SPBC_ASSERT_MSG(scratch.size() == head.raw_size,
                  "materialized size mismatch for rank " << rank);
  return scratch;
}

void Store::release_captures(Row& r, uint64_t bytes) {
  r.capture_live -= bytes < r.capture_live ? bytes : r.capture_live;
}

void Store::drop_epochs_above(int rank, uint64_t epoch) {
  Row& r = row(rank);
  r.snaps.erase(r.snaps.upper_bound(epoch), r.snaps.end());
  auto cap = r.caps.upper_bound(epoch);
  while (cap != r.caps.end()) {
    for (const CapturedMsg& cm : cap->second)
      if (!cm.spilled) release_captures(r, cm.env.bytes);
    cap = r.caps.erase(cap);
  }
}

uint64_t Store::prune_epochs_below(int rank, uint64_t epoch) {
  Row& r = row(rank);
  // Chain clamp: the oldest epoch we keep may be a delta whose base (and
  // interior deltas) sit below the nominal floor — they back its restore, so
  // they survive too. chain_base is monotone non-decreasing in epoch, so the
  // first retained epoch's base bounds every later one's.
  uint64_t floor = epoch;
  auto it = r.snaps.lower_bound(epoch);
  if (it != r.snaps.end()) floor = std::min(floor, it->second.chain_base);
  r.snaps.erase(r.snaps.begin(), r.snaps.lower_bound(floor));
  auto cap = r.caps.begin();
  while (cap != r.caps.end() && cap->first < floor) {
    for (const CapturedMsg& cm : cap->second)
      if (!cm.spilled) release_captures(r, cm.env.bytes);
    cap = r.caps.erase(cap);
  }
  return floor;
}

void Store::rename_epoch(int rank, uint64_t from, uint64_t to) {
  if (from == to) return;
  Row& r = row(rank);
  auto snap = r.snaps.find(from);
  if (snap != r.snaps.end()) {
    StoredSnapshot moved = std::move(snap->second);
    // Migration forces the boundary/pin epochs full at save time precisely
    // so this re-key cannot orphan a delta from its chain.
    SPBC_ASSERT_MSG(moved.full(), "rename_epoch on a delta capture (rank "
                                      << rank << ", epoch " << from << ")");
    moved.epoch = to;
    moved.chain_base = to;
    r.snaps.erase(snap);
    r.snaps[to] = std::move(moved);
  }
  auto cap = r.caps.find(from);
  if (cap != r.caps.end()) {
    std::vector<CapturedMsg> moved = std::move(cap->second);
    r.caps.erase(cap);
    r.caps[to] = std::move(moved);
  }
}

uint64_t Store::spill_captures(int rank, uint64_t target_bytes) {
  Row& r = row(rank);
  if (r.capture_live <= target_bytes) return 0;
  uint64_t spilled = 0;
  // Oldest epochs first: they have waited longest for a commit to reclaim
  // them, so they are the least likely to leave memory any other way.
  for (auto cap = r.caps.begin();
       cap != r.caps.end() && r.capture_live > target_bytes; ++cap) {
    for (CapturedMsg& cm : cap->second) {
      if (cm.spilled) continue;
      cm.spilled = true;
      const uint64_t b =
          cm.env.bytes < r.capture_live ? cm.env.bytes : r.capture_live;
      r.capture_live -= b;
      spilled += cm.env.bytes;
      ++r.captures_spilled;
      if (r.capture_live <= target_bytes) break;
    }
  }
  r.capture_spilled_bytes += spilled;
  return spilled;
}

uint64_t Store::record_in_flight(int rank, uint64_t first_epoch, uint64_t last_epoch,
                                 const mpi::Envelope& env, const mpi::Payload& payload) {
  auto shared = std::make_shared<const mpi::Payload>(payload);
  Row& r = row(rank);
  for (uint64_t e = first_epoch; e <= last_epoch; ++e) {
    r.caps[e].push_back(CapturedMsg{env, shared});
    ++r.in_flight_captured;
    r.capture_live += env.bytes;
  }
  r.capture_hwm = r.capture_live > r.capture_hwm ? r.capture_live : r.capture_hwm;
  return r.capture_live;
}

uint64_t Store::capture_live_bytes(int rank) const {
  const Row* r = row(rank);
  return r ? r->capture_live : 0;
}

const std::vector<CapturedMsg>& Store::in_flight(int rank, uint64_t epoch) const {
  static const std::vector<CapturedMsg> kEmpty;
  const Row* r = row(rank);
  if (!r) return kEmpty;
  auto it = r->caps.find(epoch);
  return it == r->caps.end() ? kEmpty : it->second;
}

}  // namespace spbc::ckpt
