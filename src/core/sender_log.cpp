#include "core/sender_log.hpp"

namespace spbc::core {

void SenderLog::append(const mpi::Envelope& env, const mpi::Payload& payload) {
  LogEntry e;
  e.env = env;
  e.payload = payload;  // copy; synthetic payloads copy only the descriptor
  entries_.push_back(std::move(e));
  bytes_appended_ += env.bytes;
  bytes_retained_ += env.bytes;
  if (bytes_retained_ > retained_hwm_) retained_hwm_ = bytes_retained_;
  ++messages_appended_;
}

bool SenderLog::has_entries_to(int dst) const {
  for (const auto& e : entries_)
    if (e.env.dst == dst) return true;
  return false;
}

uint64_t SenderLog::gc_received(int dst, int ctx, const mpi::SeqWindow& captured,
                                int stream) {
  uint64_t freed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->env.dst == dst && it->env.ctx == ctx &&
        (stream == -1 || it->env.tag == stream) &&
        captured.contains(it->env.seqnum)) {
      freed += it->env.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  bytes_retained_ -= freed;
  bytes_reclaimed_ += freed;
  return freed;
}

void SenderLog::serialize(util::ByteWriter& w) const {
  w.put<uint64_t>(entries_.size());
  for (const auto& e : entries_) {
    mpi::put_canonical_envelope(w, e.env);
    w.put<uint64_t>(e.payload.bytes);
    w.put<uint64_t>(e.payload.hash);
    w.put_vector(e.payload.data);
  }
}

void SenderLog::restore(util::ByteReader& r) {
  entries_.clear();
  bytes_retained_ = 0;
  auto n = r.get<uint64_t>();
  for (uint64_t i = 0; i < n; ++i) {
    LogEntry e;
    e.env = r.get<mpi::Envelope>();
    e.payload.bytes = r.get<uint64_t>();
    e.payload.hash = r.get<uint64_t>();
    e.payload.data = r.get_vector<unsigned char>();
    bytes_retained_ += e.env.bytes;
    entries_.push_back(std::move(e));
  }
}

void SenderLog::clear() {
  entries_.clear();
  bytes_retained_ = 0;
}

}  // namespace spbc::core
