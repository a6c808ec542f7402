#include "ckpt/staging.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "mpi/machine.hpp"
#include "util/assert.hpp"

namespace spbc::ckpt {

StagingArea::StagingArea(StagingConfig cfg) : cfg_(std::move(cfg)) {
  SPBC_ASSERT_MSG(cfg_.async || cfg_.level != StorageLevel::kPartner,
                  "sync staging writes LOCAL or PFS; PARTNER needs async");
}

void StagingArea::attach(mpi::Machine& machine) {
  machine_ = &machine;
  scheme_ = RedundancyScheme::make(cfg_.redundancy, machine);
  if (cfg_.escalated)
    escalated_scheme_ = RedundancyScheme::make(*cfg_.escalated, machine);
  // Node-indexed state covers the spare pool too: a spare that swaps in
  // hosts fragments and queues like any compute node.
  const int nodes = machine.topology().total_nodes();
  const size_t nranks = static_cast<size_t>(machine.nranks());
  node_storage_gen_.assign(static_cast<size_t>(nodes), 0);
  node_down_ = std::vector<std::atomic<uint8_t>>(static_cast<size_t>(nodes));
  node_local_q_.assign(static_cast<size_t>(nodes), {});
  node_pfs_q_.assign(static_cast<size_t>(nodes), {});
  pfs_q_depth_.assign(static_cast<size_t>(nodes), 0);
  pfs_frontier_.assign(nranks, 0);
  entries_.assign(nranks, {});
  stats_rows_ = std::vector<StagingStats>(nranks > 0 ? nranks : 1);
}

const RedundancyScheme& StagingArea::active_scheme() const {
  return active_scheme_ == 1 && escalated_scheme_ != nullptr
             ? *escalated_scheme_
             : *scheme_;
}

void StagingArea::set_scheme_escalated(bool escalated) {
  if (escalated_scheme_ == nullptr) return;
  active_scheme_ = escalated ? 1 : 0;
}

const RedundancyScheme& StagingArea::scheme_of(const Entry& e) const {
  return e.scheme_idx == 1 && escalated_scheme_ != nullptr ? *escalated_scheme_
                                                           : *scheme_;
}

int StagingArea::partner_of(int rank) const {
  SPBC_ASSERT(machine_ != nullptr);
  // The PARTNER scheme memoizes the mapping; other schemes don't use it, so
  // introspection computes it directly.
  if (scheme_->kind() == SchemeKind::kPartner) {
    std::vector<int> group = scheme_->group_of(rank);
    return group.empty() ? -1 : group.front();
  }
  return cross_domain_partner(*machine_, rank);
}

uint64_t StagingArea::node_gen(int node) const {
  return node_storage_gen_[static_cast<size_t>(node)];
}

StagingArea::Entry* StagingArea::find(int rank, uint64_t epoch) {
  if (static_cast<size_t>(rank) >= entries_.size()) return nullptr;
  auto& row = entries_[static_cast<size_t>(rank)];
  auto it = row.find(epoch);
  return it == row.end() ? nullptr : &it->second;
}
const StagingArea::Entry* StagingArea::find(int rank, uint64_t epoch) const {
  if (static_cast<size_t>(rank) >= entries_.size()) return nullptr;
  const auto& row = entries_[static_cast<size_t>(rank)];
  auto it = row.find(epoch);
  return it == row.end() ? nullptr : &it->second;
}

// ---- ResidencyView ---------------------------------------------------------

bool StagingArea::has_local(int rank, uint64_t epoch) const {
  const Entry* e = find(rank, epoch);
  return e != nullptr && (e->levels & kAtLocal) != 0;
}

bool StagingArea::has_pfs(int rank, uint64_t epoch) const {
  const Entry* e = find(rank, epoch);
  return e != nullptr && (e->levels & kAtPfs) != 0;
}

const std::vector<Fragment>* StagingArea::fragments(int rank,
                                                    uint64_t epoch) const {
  const Entry* e = find(rank, epoch);
  return e == nullptr ? nullptr : &e->fragments;
}

uint64_t StagingArea::snapshot_bytes(int rank, uint64_t epoch) const {
  const Entry* e = find(rank, epoch);
  return e == nullptr ? 0 : e->bytes;
}

bool StagingArea::node_in_service(int node) const {
  return node_down_[static_cast<size_t>(node)].load(
             std::memory_order_relaxed) == 0;
}

// ---- write path ------------------------------------------------------------

sim::Time StagingArea::write(int rank, uint64_t epoch, uint64_t bytes,
                             LevelPlan plan, uint64_t chain_base) {
  if (!enabled()) return 0.0;
  SPBC_ASSERT(machine_ != nullptr);
  const int node = machine_->node_of(rank);
  const sim::Time now = machine_->engine().now();
  // The scrub cadence starts at the first staged write: before that there is
  // nothing to audit, and the machine's engine shard plan may not be final
  // yet at attach time (set_cluster_of reshapes the queues). Before the app
  // runs, writes cannot race; afterwards the atomic exchange keeps the
  // kick-off single-shot across shard events.
  if (scrub_period_ > 0 && !scrub_started_.exchange(true))
    schedule_scrub();
  // A resident is writing again: the node is back in service.
  node_down_[static_cast<size_t>(node)].store(0, std::memory_order_relaxed);
  SPBC_ASSERT(static_cast<size_t>(rank) < entries_.size());
  Entry& e = entries_[static_cast<size_t>(rank)][epoch];
  e.bytes = bytes;
  e.chain_base = chain_base;
  e.levels = 0;
  e.retries_left = 3;
  e.scheme_idx = active_scheme_;
  e.want_redundancy = plan.redundancy;
  e.want_pfs = plan.pfs;
  e.chain_id = next_chain_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  e.fragments.clear();

  if (!cfg_.async && cfg_.level == StorageLevel::kPfs) {
    // Sync-PFS, the pre-staging write: straight to the PFS, charged in full
    // to the member's fiber. The cost model's PFS bandwidth is already a
    // per-process share, so co-resident writes do not queue.
    e.levels = kAtPfs;
    finish_pfs(rank, epoch);
    return cfg_.model.write_time(StorageLevel::kPfs, bytes);
  }
  // Every other mode charges the fiber the LOCAL write; co-resident ranks'
  // writes serialize on the node's device.
  e.levels = kAtLocal;
  srow(rank).bytes_to_local += bytes;
  const sim::Time done = node_local_q_[static_cast<size_t>(node)].reserve(
      now, cfg_.model.write_time(StorageLevel::kLocal, bytes));
  // A LOCAL chain ends at the device. An async chain that reaches further
  // promotes in the background once the LOCAL write completes.
  if (cfg_.async && cfg_.level != StorageLevel::kLocal) {
    ++srow(rank).drains_started;
    machine_->engine().at(done, [this, rank, epoch] {
      start_protection(rank, epoch, /*then_flush=*/true);
    });
  }
  return done - now;
}

void StagingArea::start_protection(int rank, uint64_t epoch, bool then_flush) {
  Entry* e = find(rank, epoch);
  if (e == nullptr || (e->levels & kAtLocal) == 0) {
    ++srow(rank).drains_aborted;  // rolled back or died before the drain ran
    return;
  }
  // A LOCAL-only plan ends the chain here (or skips straight to the PFS
  // flush when the plan keeps that level).
  PlacementPlan plan = e->want_redundancy
                           ? scheme_of(*e).encode(rank, epoch, e->bytes, *this)
                           : PlacementPlan{};
  if (plan.steps.empty()) {
    // Nothing placeable (kSingle, single-node topology, or every viable
    // host is out of service): promote straight from the LOCAL copy.
    if (then_flush)
      start_pfs_flush(rank, epoch, machine_->node_of(rank), -1);
    return;
  }
  auto pending = std::make_shared<int>(static_cast<int>(plan.steps.size()));
  for (const PlacementStep& step : plan.steps)
    place_fragment(rank, epoch, step, pending, then_flush);
}

void StagingArea::place_fragment(int rank, uint64_t epoch,
                                 const PlacementStep& step,
                                 std::shared_ptr<int> pending,
                                 bool then_flush) {
  Entry* e = find(rank, epoch);
  SPBC_ASSERT(e != nullptr);
  const int hnode = machine_->node_of(step.host_rank);
  const uint64_t hgen = node_gen(hnode);
  const uint64_t chain = e->chain_id;
  const size_t frag_idx = e->fragments.size();
  e->fragments.push_back(Fragment{step.host_rank, hnode, step.bytes,
                                  step.parity, false, step.share});
  // The placement rides the real network, so it shares the home node's NIC
  // with application traffic and arrives after genuine transfer time. The
  // arrival is routed to the *home* rank's shard (not the fragment host's):
  // the callback mutates the home rank's entry row.
  machine_->network().submit_routed(
      net::Transfer{rank, step.host_rank, step.bytes}, /*route_rank=*/rank,
      [this, rank, epoch, hnode, hgen, chain, frag_idx, pending, then_flush] {
        Entry* entry = find(rank, epoch);
        if (entry == nullptr) {
          ++srow(rank).drains_aborted;  // rolled back while in flight
          return;
        }
        if (entry->chain_id != chain) return;  // superseded by a re-write
        if ((entry->levels & kAtLocal) == 0 || node_gen(hnode) != hgen) {
          // Source or destination died in flight: re-issue from whatever
          // level still holds a copy instead of abandoning the chain.
          retry_from_surviving(rank, epoch);
          return;
        }
        Fragment& f = entry->fragments[frag_idx];
        f.live = true;
        if (f.parity) {
          ++srow(rank).parity_fragments;
          srow(rank).bytes_to_parity += f.bytes;
        } else {
          ++srow(rank).partner_copies;
          srow(rank).bytes_to_partner += f.bytes;
        }
        if (--*pending != 0 || !then_flush) return;
        // Promote onward: a full copy flushes from its host's node (freeing
        // the home node's PFS share); parity is not the data, so the flush
        // streams from the home node's LOCAL copy.
        if (!f.parity)
          start_pfs_flush(rank, epoch, f.host_node, static_cast<int>(frag_idx));
        else
          start_pfs_flush(rank, epoch, machine_->node_of(rank), -1);
      });
}

double StagingArea::pfs_available_frac(sim::Time now) const {
  double frac = 1.0;
  for (const PfsInterferencePhase& p : cfg_.pfs_interference) {
    if (now < p.start || now >= p.end) continue;
    const double f = p.available_frac <= 0.0   ? 1e-3
                     : p.available_frac > 1.0 ? 1.0
                                              : p.available_frac;
    frac = std::min(frac, f);
  }
  return frac;
}

void StagingArea::start_pfs_flush(int rank, uint64_t epoch, int from_node,
                                  int source_frag) {
  if (cfg_.level != StorageLevel::kPfs) return;  // chain ends at redundancy
  Entry* e = find(rank, epoch);
  if (e == nullptr) return;
  if (!e->want_pfs) return;  // the epoch's plan ends the chain before PFS
  const sim::Time now = machine_->engine().now();
  // Multi-job PFS interference: the flush sees only its available share of
  // the ingest bandwidth, sampled piecewise-constant at flush start.
  const sim::Time base_cost =
      cfg_.model.write_time(StorageLevel::kPfs, e->bytes);
  const double frac = pfs_available_frac(now);
  const sim::Time cost = base_cost / frac;
  if (frac < 1.0) {
    ++srow(rank).pfs_contended_flushes;
    srow(rank).pfs_interference_time += cost - base_cost;
  }
  const sim::Time done =
      node_pfs_q_[static_cast<size_t>(from_node)].reserve(now, cost);
  const int depth = ++pfs_q_depth_[static_cast<size_t>(from_node)];
  srow(rank).pfs_queue_depth_hwm = std::max(
      srow(rank).pfs_queue_depth_hwm, static_cast<uint64_t>(depth));
  const uint64_t gen = node_gen(from_node);
  const uint64_t chain = e->chain_id;
  machine_->engine().at(done, [this, rank, epoch, from_node, gen, chain,
                               source_frag] {
    --pfs_q_depth_[static_cast<size_t>(from_node)];
    Entry* entry = find(rank, epoch);
    if (entry == nullptr) {
      ++srow(rank).drains_aborted;  // rolled back while the flush was queued
      return;
    }
    if (entry->chain_id != chain) return;  // superseded by a re-write
    const bool src_ok =
        source_frag < 0
            ? (entry->levels & kAtLocal) != 0
            : entry->fragments[static_cast<size_t>(source_frag)].live;
    if (!src_ok || node_gen(from_node) != gen) {
      // The flush's source copy died mid-write (e.g. the host node was
      // lost): retry from the cheapest surviving level — usually the home
      // node's LOCAL copy, which also re-establishes redundancy.
      retry_from_surviving(rank, epoch);
      return;
    }
    entry->levels |= kAtPfs;
    ++srow(rank).pfs_flushes;
    srow(rank).bytes_to_pfs += entry->bytes;
    finish_pfs(rank, epoch);
  });
}

void StagingArea::retry_from_surviving(int rank, uint64_t epoch) {
  Entry* e = find(rank, epoch);
  bool any_fragment = false;
  const Fragment* copy = nullptr;
  int copy_idx = -1;
  if (e != nullptr) {
    for (size_t i = 0; i < e->fragments.size(); ++i) {
      const Fragment& f = e->fragments[i];
      if (!f.live) continue;
      any_fragment = true;
      if (!f.parity && copy == nullptr) {
        copy = &f;
        copy_idx = static_cast<int>(i);
      }
    }
  }
  if (e == nullptr || ((e->levels & (kAtLocal | kAtPfs)) == 0 && !any_fragment)) {
    ++srow(rank).drains_aborted;  // every copy is gone; the chain is lost
    return;
  }
  if (e->levels & kAtPfs) return;  // already durable; nothing to promote
  if (e->retries_left == 0) {
    // A copy survives (the snapshot stays recoverable from it) but the
    // promotion budget is spent: the chain stalls short of PFS.
    ++srow(rank).retries_exhausted;
    return;
  }
  --e->retries_left;
  ++srow(rank).hop_retries;
  if (e->levels & kAtLocal) {
    // Cheapest surviving copy: the home node's LOCAL write. Restart the
    // remaining chain there (missing fragments re-placed when a viable host
    // is in service, else a direct PFS flush).
    start_protection(rank, epoch, /*then_flush=*/true);
    return;
  }
  if (copy != nullptr) {
    // LOCAL is gone but a full-copy fragment survives: flush from its host.
    start_pfs_flush(rank, epoch, copy->host_node, copy_idx);
    return;
  }
  // Only parity fragments survive: flushable data requires a full copy, so
  // the chain stalls short of PFS. The snapshot remains recoverable through
  // the scheme's rebuild path until the group loses a second member.
  ++srow(rank).retries_exhausted;
}

void StagingArea::finish_pfs(int rank, uint64_t epoch) {
  uint64_t& frontier = pfs_frontier_[static_cast<size_t>(rank)];
  frontier = std::max(frontier, epoch);
}

// ---- residency / restore ---------------------------------------------------

uint8_t StagingArea::levels(int rank, uint64_t epoch) const {
  const Entry* e = find(rank, epoch);
  if (e == nullptr) return 0;
  uint8_t mask = e->levels;
  for (const Fragment& f : e->fragments)
    if (f.live) mask |= kAtPartner;
  return mask;
}

bool StagingArea::element_recoverable(const Entry& e, int rank,
                                      uint64_t epoch) const {
  if (e.levels & kAtPfs) return true;
  return scheme_of(e).recoverable_without_pfs(rank, epoch, *this);
}

bool StagingArea::recoverable(int rank, uint64_t epoch) const {
  if (!enabled()) return true;
  const Entry* head = find(rank, epoch);
  if (head == nullptr) return false;
  // Every element of the delta chain must be restorable: materializing the
  // head epoch reads the base and every interior delta. A full capture
  // (chain_base == epoch; always the case with reduction off) degenerates to
  // the single-element check.
  for (uint64_t e = epoch;; --e) {
    const Entry* en = find(rank, e);
    if (en == nullptr || !element_recoverable(*en, rank, e)) return false;
    if (e <= head->chain_base || e == 0) break;
  }
  return true;
}

std::vector<uint64_t> StagingArea::restore_chain(int rank,
                                                 uint64_t epoch) const {
  const Entry* head = find(rank, epoch);
  if (head == nullptr || head->chain_base >= epoch) return {epoch};
  std::vector<uint64_t> chain;
  chain.reserve(static_cast<size_t>(epoch - head->chain_base + 1));
  for (uint64_t e = head->chain_base; e <= epoch; ++e) chain.push_back(e);
  return chain;
}

RestorePlan StagingArea::plan_restore(int rank, uint64_t epoch) const {
  if (!enabled()) return {};
  const Entry* e = find(rank, epoch);
  if (e == nullptr) return {};
  return scheme_of(*e).restore_plan(rank, epoch, *this);
}

void StagingArea::execute_restore(const std::vector<int>& members,
                                  uint64_t epoch,
                                  std::function<void(bool)> done) {
  // Nothing to read: the store is free and reliable (the paper's
  // measurement mode), or the restore is sigma_0.
  if (!enabled() || epoch == 0) {
    done(true);
    return;
  }
  // Every element of every member's chain is read from its own cheapest
  // source, overlapped; the pass succeeds only if all of them do. Every
  // element's outcome runs in serial context, so the shared counters are
  // race-free.
  std::vector<std::pair<int, uint64_t>> reads;
  for (int r : members)
    for (uint64_t e : restore_chain(r, epoch)) reads.emplace_back(r, e);
  auto remaining = std::make_shared<size_t>(reads.size());
  auto all_ok = std::make_shared<bool>(true);
  auto shared_done =
      std::make_shared<std::function<void(bool)>>(std::move(done));
  for (const auto& [r, e] : reads) {
    do_restore(
        r, e,
        [remaining, all_ok, shared_done](bool ok) {
          if (!ok) *all_ok = false;
          if (--*remaining == 0) (*shared_done)(*all_ok);
        },
        /*budget=*/2);
  }
}

void StagingArea::do_restore(int rank, uint64_t epoch,
                             std::function<void(bool)> done, int budget) {
  // Audit on read: the restore checksums its sources before trusting them,
  // so silently-lost fragments are discovered here at the latest — the plan
  // below only ever reads genuinely live copies.
  audit_for_restore(rank, epoch);
  const RestorePlan plan = plan_restore(rank, epoch);
  if (plan.source == RestorePlan::Source::kNone) {
    done(false);
    return;
  }
  SPBC_ASSERT(!plan.reads.empty());
  const bool rebuild = plan.source == RestorePlan::Source::kRebuild;
  // A direct plan's one read names its level; index = StorageLevel - kLocal.
  const size_t level_idx = static_cast<size_t>(plan.reads.front().level) - 1;
  uint64_t total = 0;
  for (const RestorePlan::Read& rd : plan.reads) total += rd.bytes;
  auto remaining = std::make_shared<size_t>(plan.reads.size());
  auto failed = std::make_shared<bool>(false);
  for (const RestorePlan::Read& rd : plan.reads) {
    // A read from a node's storage fails if that node died before it
    // landed; the PFS outlives every failure.
    const int snode =
        rd.level == StorageLevel::kPfs ? -1 : machine_->node_of(rd.src_rank);
    const uint64_t sgen = snode < 0 ? 0 : node_gen(snode);
    // One landing handler for every read. An element's reads all land in
    // one context (serial, or the restoring rank's shard for network
    // reads), so remaining/failed are race-free. The outcome runs in serial
    // context, which runs alone: a re-plan may read any node, row 0 of the
    // stats is safe and `done` resumes recovery orchestration.
    auto land = [this, rank, epoch, done, snode, sgen, remaining, failed,
                 rebuild, level_idx, total, budget] {
      if (snode >= 0 && node_gen(snode) != sgen) *failed = true;
      if (--*remaining != 0) return;
      machine_->engine().run_serial([this, rank, epoch, done, rebuild,
                                     level_idx, total, budget,
                                     f = *failed] {
        StagingStats& st = stats_rows_[0];
        if (f) {
          // A source died mid-read: re-plan from what still survives
          // (another copy, a rebuild, the PFS), within a bounded budget.
          if (budget == 0) {
            done(false);
            return;
          }
          ++st.restore_retries;
          do_restore(rank, epoch, done, budget - 1);
          return;
        }
        if (rebuild) {
          ++st.rebuild_restores;
          st.rebuild_bytes_read += total;
        } else {
          ++st.restores_by_level[level_idx];
        }
        done(true);
      });
    };
    // Cross-node reads ride the network and contend with application and
    // drain traffic; LOCAL and PFS reads take their device time.
    if (rd.level == StorageLevel::kPartner)
      machine_->network().submit(net::Transfer{rd.src_rank, rank, rd.bytes},
                                 std::move(land));
    else
      machine_->engine().after(cfg_.model.read_time(rd.level, rd.bytes),
                               std::move(land));
  }
}

uint64_t StagingArea::pfs_frontier(int rank) const {
  if (pfs_frontier_.empty()) return 0;
  return pfs_frontier_[static_cast<size_t>(rank)];
}

// ---- failure / pruning -----------------------------------------------------

void StagingArea::invalidate_node(int node) {
  if (!enabled()) return;
  // A cluster failure kills every rank of a node back-to-back; only the
  // first kill does the work. The flag is cleared when a respawned resident
  // writes again (the node is back in service with empty storage).
  if (node_down_[static_cast<size_t>(node)].load(std::memory_order_relaxed))
    return;
  node_down_[static_cast<size_t>(node)].store(1, std::memory_order_relaxed);
  ++node_storage_gen_[static_cast<size_t>(node)];
  std::vector<std::pair<int, uint64_t>> reprotect;
  for (size_t r = 0; r < entries_.size(); ++r) {
    // Residency follows the PHYSICAL binding: after a hot-swap the logical
    // layout still maps the rank to its dead birth node.
    const bool resident = machine_->node_of(static_cast<int>(r)) == node;
    for (auto& [epoch, e] : entries_[r]) {
      if (resident) e.levels &= static_cast<uint8_t>(~kAtLocal);
      bool lost_fragment = false;
      for (Fragment& f : e.fragments) {
        if (f.live && f.host_node == node) {
          f.live = false;
          lost_fragment = true;
        }
      }
      // Proactive re-protection: the snapshot's data survives at LOCAL but a
      // landed fragment just died with its host — re-encode onto a
      // replacement host so the scheme's coverage is restored before the
      // next failure.
      if (lost_fragment && (e.levels & kAtLocal) != 0 &&
          (e.levels & kAtPfs) == 0 && e.retries_left > 0)
        reprotect.emplace_back(static_cast<int>(r), epoch);
    }
  }
  if (reprotect.empty()) return;
  // Deferred one event: a cluster failure takes several nodes down in one
  // call stack, and the replacement host must be chosen after the whole
  // batch is marked down.
  machine_->engine().after(0.0, [this, reprotect] {
    for (const auto& [rank, epoch] : reprotect) {
      Entry* e = find(rank, epoch);
      if (e == nullptr || (e->levels & kAtLocal) == 0 ||
          (e->levels & kAtPfs) != 0 || e->retries_left == 0)
        continue;
      PlacementPlan plan = scheme_of(*e).encode(rank, epoch, e->bytes, *this);
      if (plan.steps.empty()) continue;  // no viable replacement host
      --e->retries_left;
      ++srow(rank).reprotections;
      auto pending = std::make_shared<int>(static_cast<int>(plan.steps.size()));
      for (const PlacementStep& step : plan.steps)
        place_fragment(rank, epoch, step, pending, /*then_flush=*/false);
    }
  });
}

// ---- silent loss / background scrubbing ------------------------------------

void StagingArea::audit_for_restore(int rank, uint64_t epoch) {
  if (!enabled()) return;
  const Entry* head = find(rank, epoch);
  const uint64_t base = head == nullptr ? epoch : head->chain_base;
  // Audit the whole chain: a restore of a delta epoch reads every element,
  // so corrupt copies anywhere in it must be dropped before recoverability
  // is believed.
  for (uint64_t ee = epoch;; --ee) {
    Entry* e = find(rank, ee);
    if (e != nullptr) {
      for (Fragment& f : e->fragments) {
        if (f.live && f.corrupt) {
          // The corrupt bit stays set: on a dead fragment it means
          // "confirmed lost", which keeps the RS encode from treating the
          // share as still in flight to its (alive) host.
          f.live = false;
          ++srow(rank).corrupt_read_drops;
        }
      }
    }
    if (ee <= base || ee == 0) break;
  }
}

bool StagingArea::corrupt_fragment(int rank, uint64_t epoch, size_t frag_idx) {
  Entry* e = find(rank, epoch);
  if (e == nullptr || frag_idx >= e->fragments.size()) return false;
  Fragment& f = e->fragments[frag_idx];
  if (!f.live || f.corrupt || !node_in_service(f.host_node)) return false;
  f.corrupt = true;
  ++srow(rank).silent_losses_injected;
  return true;
}

bool StagingArea::corrupt_one_fragment(uint64_t salt) {
  // Deterministic pick over the row-ordered live candidates; the caller's
  // serial context makes the scan itself layout-independent.
  std::vector<std::tuple<int, uint64_t, size_t>> cands;
  for (size_t r = 0; r < entries_.size(); ++r) {
    for (const auto& [epoch, e] : entries_[r]) {
      for (size_t i = 0; i < e.fragments.size(); ++i) {
        const Fragment& f = e.fragments[i];
        if (f.live && !f.corrupt && node_in_service(f.host_node))
          cands.emplace_back(static_cast<int>(r), epoch, i);
      }
    }
  }
  if (cands.empty()) return false;
  const auto& [rank, epoch, idx] = cands[salt % cands.size()];
  return corrupt_fragment(rank, epoch, idx);
}

uint64_t StagingArea::corrupt_live_fragments() const {
  uint64_t n = 0;
  for (const auto& row : entries_)
    for (const auto& [epoch, e] : row)
      for (const Fragment& f : e.fragments)
        if (f.live && f.corrupt) ++n;
  return n;
}

namespace {
/// Wire size of one scrub digest probe: a content hash plus metadata, not
/// the fragment itself — the audit is cheap but it still rides the network.
constexpr uint64_t kScrubDigestBytes = 256;
}  // namespace

void StagingArea::run_scrub_wave() {
  if (!enabled()) return;
  ++stats_rows_[0].scrub_waves;
  for (size_t r = 0; r < entries_.size(); ++r) {
    for (const auto& [epoch, e] : entries_[r]) {
      for (size_t i = 0; i < e.fragments.size(); ++i) {
        const Fragment& f = e.fragments[i];
        if (!f.live || !node_in_service(f.host_node)) continue;
        scrub_probe(static_cast<int>(r), epoch, i);
      }
    }
  }
}

void StagingArea::scrub_probe(int rank, uint64_t epoch, size_t frag_idx) {
  Entry* e = find(rank, epoch);
  SPBC_ASSERT(e != nullptr);
  const Fragment& f = e->fragments[frag_idx];
  const uint64_t chain = e->chain_id;
  const int hnode = f.host_node;
  const uint64_t hgen = node_gen(hnode);
  ++srow(rank).scrub_probes;
  // The digest streams from the fragment's host to the owner over the real
  // network, so scrub traffic contends honestly with the application. The
  // arrival is routed to the owner's shard (the callback mutates the
  // owner's entry row).
  machine_->network().submit_routed(
      net::Transfer{f.host_rank, rank, kScrubDigestBytes}, /*route_rank=*/rank,
      [this, rank, epoch, chain, frag_idx, hnode, hgen] {
        Entry* entry = find(rank, epoch);
        if (entry == nullptr || entry->chain_id != chain) return;
        if (frag_idx >= entry->fragments.size()) return;
        Fragment& fr = entry->fragments[frag_idx];
        if (!fr.live || node_gen(hnode) != hgen) return;  // died meanwhile
        if (!fr.corrupt) return;  // digest matched: the copy is healthy
        // Silent loss found: drop the belief and re-encode through the
        // re-protection path while the LOCAL data still exists — before a
        // real failure turns the silent loss into an unrecoverable one. The
        // corrupt bit stays set on the dead fragment ("confirmed lost"), so
        // the RS encode re-places the share instead of assuming it is still
        // in flight to its in-service host.
        fr.live = false;
        ++srow(rank).scrubs_detected;
        if ((entry->levels & kAtLocal) == 0 || (entry->levels & kAtPfs) != 0)
          return;  // nothing to re-encode from, or already durable anyway
        PlacementPlan plan =
            scheme_of(*entry).encode(rank, epoch, entry->bytes, *this);
        if (plan.steps.empty()) return;  // no viable replacement host
        ++srow(rank).scrubs_repaired;
        auto pending =
            std::make_shared<int>(static_cast<int>(plan.steps.size()));
        for (const PlacementStep& step : plan.steps)
          place_fragment(rank, epoch, step, pending, /*then_flush=*/false);
      });
}

void StagingArea::schedule_scrub() {
  if (scrub_period_ <= 0 || !async()) return;
  machine_->engine().after_serial(scrub_period_, [this] {
    // Stop when the machine wound down: run() ends only once the event
    // queues drain, so an unconditional self-reschedule would never let it.
    if (machine_->engine().live_task_count() == 0) return;
    if (scrub_tick_) scrub_tick_(machine_->engine().now());
    run_scrub_wave();
    schedule_scrub();
  });
}

void StagingArea::charge_local_spill(int rank, uint64_t bytes) {
  if (!enabled() || machine_ == nullptr) return;
  const int node = machine_->node_of(rank);
  if (node_down_[static_cast<size_t>(node)].load(std::memory_order_relaxed))
    return;
  // Background write: it occupies the node's snapshot device (future LOCAL
  // writes queue behind it) but charges no fiber.
  node_local_q_[static_cast<size_t>(node)].reserve(
      machine_->engine().now(),
      cfg_.model.write_time(StorageLevel::kLocal, bytes));
}

void StagingArea::drop_epochs_above(int rank, uint64_t epoch) {
  if (static_cast<size_t>(rank) >= entries_.size()) return;
  auto& row = entries_[static_cast<size_t>(rank)];
  row.erase(row.upper_bound(epoch), row.end());
  // The frontier must not claim dropped epochs: commit uses it as the
  // retention floor, and a stale high frontier would let a re-executed
  // commit prune the real fallback epochs. Recompute it from the surviving
  // PFS-resident entries.
  if (!pfs_frontier_.empty() && pfs_frontier_[static_cast<size_t>(rank)] > epoch) {
    uint64_t frontier = 0;
    for (const auto& [ep, e] : row)
      if (e.levels & kAtPfs) frontier = ep;
    pfs_frontier_[static_cast<size_t>(rank)] = frontier;
  }
}

void StagingArea::rename_epoch(int rank, uint64_t from, uint64_t to) {
  if (!enabled()) return;
  if (static_cast<size_t>(rank) >= entries_.size() || from == to) return;
  auto& row = entries_[static_cast<size_t>(rank)];
  auto it = row.find(from);
  if (it == row.end()) return;
  Entry moved = std::move(it->second);
  // Migration renames only full captures (the store asserts the same): the
  // re-keyed entry stays self-anchored in the destination's epoch space.
  if (moved.chain_base == from) moved.chain_base = to;
  row.erase(it);
  row[to] = std::move(moved);
  // Keep the retention floor keyed to the surviving epoch numbers. Stale
  // chain callbacks keyed to `from` now find no entry and abort harmlessly
  // (the flip preconditions already saw the chain reach PFS).
  if (!pfs_frontier_.empty()) {
    uint64_t frontier = 0;
    for (const auto& [ep, e] : row)
      if (e.levels & kAtPfs) frontier = std::max(frontier, ep);
    pfs_frontier_[static_cast<size_t>(rank)] = frontier;
  }
}

void StagingArea::on_topology_change() {
  if (scheme_ != nullptr) scheme_->on_topology_change();
  if (escalated_scheme_ != nullptr) escalated_scheme_->on_topology_change();
}

void StagingArea::prune_epochs_below(int rank, uint64_t epoch) {
  if (static_cast<size_t>(rank) >= entries_.size()) return;
  auto& row = entries_[static_cast<size_t>(rank)];
  row.erase(row.begin(), row.lower_bound(epoch));
}

StagingStats StagingArea::stats() const {
  StagingStats out;
  for (const StagingStats& s : stats_rows_) {
    out.drains_started += s.drains_started;
    out.partner_copies += s.partner_copies;
    out.pfs_flushes += s.pfs_flushes;
    out.drains_aborted += s.drains_aborted;
    out.hop_retries += s.hop_retries;
    out.retries_exhausted += s.retries_exhausted;
    out.bytes_to_local += s.bytes_to_local;
    out.bytes_to_partner += s.bytes_to_partner;
    out.bytes_to_pfs += s.bytes_to_pfs;
    out.parity_fragments += s.parity_fragments;
    out.bytes_to_parity += s.bytes_to_parity;
    out.reprotections += s.reprotections;
    for (size_t i = 0; i < out.restores_by_level.size(); ++i)
      out.restores_by_level[i] += s.restores_by_level[i];
    out.rebuild_restores += s.rebuild_restores;
    out.rebuild_bytes_read += s.rebuild_bytes_read;
    out.restore_retries += s.restore_retries;
    out.epoch_fallbacks += s.epoch_fallbacks;
    out.scrub_waves += s.scrub_waves;
    out.scrub_probes += s.scrub_probes;
    out.scrubs_detected += s.scrubs_detected;
    out.scrubs_repaired += s.scrubs_repaired;
    out.silent_losses_injected += s.silent_losses_injected;
    out.corrupt_read_drops += s.corrupt_read_drops;
    out.pfs_contended_flushes += s.pfs_contended_flushes;
    out.pfs_interference_time += s.pfs_interference_time;
    out.pfs_queue_depth_hwm =
        std::max(out.pfs_queue_depth_hwm, s.pfs_queue_depth_hwm);
  }
  return out;
}

}  // namespace spbc::ckpt
