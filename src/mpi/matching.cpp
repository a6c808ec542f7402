#include "mpi/matching.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace spbc::mpi {

bool MatchEngine::matches(const RequestState& req, const Envelope& env,
                          bool match_pattern_ids) {
  if (req.ctx != env.ctx) return false;
  if (req.match_src != kAnySource && req.match_src != env.src) return false;
  if (req.match_tag != kAnyTag && req.match_tag != env.tag) return false;
  if (req.bound_seq != 0 && req.bound_seq != env.seqnum) return false;
  if (match_pattern_ids && !(req.pid == env.pid)) return false;
  return true;
}

std::shared_ptr<RequestState> MatchEngine::on_envelope(const Envelope& env,
                                                       Payload& payload,
                                                       bool payload_ready,
                                                       uint64_t sender_req) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(**it, env, match_pattern_ids_)) {
      auto req = *it;
      posted_.erase(it);
      return req;
    }
  }
  UnexpectedMsg um;
  um.env = env;
  um.payload = std::move(payload);
  um.payload_ready = payload_ready;
  um.sender_req = sender_req;
  unexpected_.push_back(std::move(um));
  ++arrivals_;
  return nullptr;
}

MatchEngine::PostResult MatchEngine::on_post(std::shared_ptr<RequestState> req) {
  PostResult res;
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(*req, it->env, match_pattern_ids_)) {
      res.matched = true;
      res.msg = std::move(*it);
      unexpected_.erase(it);
      return res;
    }
  }
  posted_.push_back(std::move(req));
  return res;
}

void MatchEngine::repost(std::shared_ptr<RequestState> req) {
  auto it = posted_.begin();
  while (it != posted_.end() && (*it)->post_seq < req->post_seq) ++it;
  posted_.insert(it, std::move(req));
}

size_t MatchEngine::purge_pending_rts_if(const std::function<bool(int)>& pred) {
  size_t purged = 0;
  for (auto it = unexpected_.begin(); it != unexpected_.end();) {
    if (!it->payload_ready && pred(it->env.src)) {
      it = unexpected_.erase(it);
      ++purged;
    } else {
      ++it;
    }
  }
  return purged;
}

MatchEngine::PostResult MatchEngine::take_bound(const RequestState& req) {
  PostResult res;
  SPBC_ASSERT_MSG(req.bound_seq != 0, "take_bound on unbound request");
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(req, it->env, match_pattern_ids_)) {
      res.matched = true;
      res.msg = std::move(*it);
      unexpected_.erase(it);
      return res;
    }
  }
  return res;
}

bool MatchEngine::iprobe(const RequestState& probe_req, Status* status) const {
  for (const auto& um : unexpected_) {
    if (matches(probe_req, um.env, match_pattern_ids_)) {
      if (status) {
        status->source = um.env.src;
        status->tag = um.env.tag;
        status->bytes = um.env.bytes;
      }
      return true;
    }
  }
  return false;
}

bool MatchEngine::complete_unexpected_payload(uint64_t sender_req, int src,
                                              Payload payload) {
  for (auto& um : unexpected_) {
    if (um.sender_req == sender_req && um.env.src == src && !um.payload_ready) {
      um.payload = std::move(payload);
      um.payload_ready = true;
      return true;
    }
  }
  return false;
}

bool MatchEngine::adopt_pending_rts(const Envelope& env, Payload& payload,
                                    uint64_t* stale_req) {
  for (auto& um : unexpected_) {
    if (!um.payload_ready && um.env.src == env.src && um.env.ctx == env.ctx &&
        um.env.tag == env.tag && um.env.seqnum == env.seqnum) {
      *stale_req = um.sender_req;
      um.payload = std::move(payload);
      um.payload_ready = true;
      um.sender_req = 0;
      return true;
    }
  }
  return false;
}

void MatchEngine::cancel_posted(const RequestState* req) {
  posted_.erase(std::remove_if(posted_.begin(), posted_.end(),
                               [req](const auto& p) { return p.get() == req; }),
                posted_.end());
}

void MatchEngine::serialize(util::ByteWriter& w) const {
  SPBC_ASSERT_MSG(posted_.empty(),
                  "checkpoint with outstanding reception requests is not "
                  "supported (application-level checkpoint restriction)");
  uint64_t ready = 0;
  for (const auto& um : unexpected_)
    if (um.payload_ready) ++ready;
  w.put<uint64_t>(ready);
  for (const auto& um : unexpected_) {
    if (!um.payload_ready) continue;
    put_canonical_envelope(w, um.env);
    w.put<uint64_t>(um.payload.bytes);
    w.put<uint64_t>(um.payload.hash);
    w.put_vector(um.payload.data);
  }
}

void MatchEngine::restore(util::ByteReader& r) {
  posted_.clear();
  unexpected_.clear();
  auto n = r.get<uint64_t>();
  for (uint64_t i = 0; i < n; ++i) {
    UnexpectedMsg um;
    um.env = r.get<Envelope>();
    um.payload.bytes = r.get<uint64_t>();
    um.payload.hash = r.get<uint64_t>();
    um.payload.data = r.get_vector<unsigned char>();
    um.payload_ready = true;
    unexpected_.push_back(std::move(um));
  }
  ++arrivals_;
}

void MatchEngine::clear() {
  posted_.clear();
  unexpected_.clear();
}

}  // namespace spbc::mpi
