#include <algorithm>
#include <mutex>

#include "apps/app.hpp"
#include "apps/decomp.hpp"
#include "util/rng.hpp"

namespace spbc::apps {

std::vector<int> dims_create(int n, int ndims) {
  SPBC_ASSERT(n >= 1 && ndims >= 1);
  std::vector<int> dims(static_cast<size_t>(ndims), 1);
  // Repeatedly peel the largest prime factor onto the smallest dimension.
  int rest = n;
  std::vector<int> factors;
  for (int p = 2; p * p <= rest; ++p) {
    while (rest % p == 0) {
      factors.push_back(p);
      rest /= p;
    }
  }
  if (rest > 1) factors.push_back(rest);
  std::sort(factors.rbegin(), factors.rend());
  for (int f : factors) {
    auto it = std::min_element(dims.begin(), dims.end());
    *it *= f;
  }
  std::sort(dims.rbegin(), dims.rend());
  return dims;
}

uint64_t synthetic_hash(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  util::Fnv1a64 h;
  h.update_u64(a);
  h.update_u64(b);
  h.update_u64(c);
  h.update_u64(d);
  return h.digest();
}

mpi::Payload make_payload(const AppConfig& cfg, uint64_t bytes, uint64_t hash,
                          const std::vector<double>* fill) {
  if (!cfg.validate) return mpi::Payload::make_synthetic(std::max<uint64_t>(bytes, 8), hash);
  if (fill != nullptr && !fill->empty()) return mpi::Payload::from_vector(*fill);
  // Derive deterministic content from the hash so both sides can verify.
  uint64_t n = std::max<uint64_t>(bytes / sizeof(double), 1);
  n = std::min<uint64_t>(n, 512);  // keep validate-mode payloads small
  std::vector<double> data(n);
  uint64_t x = hash;
  for (auto& v : data) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<double>(x >> 16) / 1e12;
  }
  return mpi::Payload::from_vector(data);
}

void fold_checksum(uint64_t& acc, const mpi::RecvResult& rr) {
  util::Fnv1a64 h;
  h.update_u64(acc);
  h.update_u64(rr.hash);
  h.update_u64(rr.bytes);
  h.update_u64(static_cast<uint64_t>(rr.tag));
  acc = h.digest();
}

void fold_checksum_commutative(uint64_t& acc, const mpi::RecvResult& rr) {
  util::Fnv1a64 h;
  h.update_u64(rr.hash);
  h.update_u64(rr.bytes);
  h.update_u64(static_cast<uint64_t>(rr.tag));
  acc += h.digest();  // wrapping addition commutes
}

void publish_checksum(mpi::Rank& rank, const AppConfig& cfg, uint64_t checksum) {
  if (cfg.checksums == nullptr) return;
  static std::mutex mu;  // ranks finish on several engine threads
  std::lock_guard<std::mutex> g(mu);
  (*cfg.checksums)[rank.rank()] = checksum;
}

const AppInfo& find_app(const std::string& name) {
  for (const auto& info : registry())
    if (info.name == name) return info;
  std::string known;
  for (const auto& info : registry()) known += info.name + " ";
  SPBC_ASSERT_MSG(false, "unknown app '" << name << "'; known: " << known);
  __builtin_unreachable();
}

const std::vector<AppInfo>& registry() {
  static const std::vector<AppInfo> apps = {
      {"AMG", amg_main, true,
       "BoomerAMG skeleton: V-cycle with assumed-partition ANY_SOURCE exchanges"},
      {"CM1", cm1_main, false,
       "CM1 skeleton: 2D halo exchange, compute-heavy, one silent rank"},
      {"GTC", gtc_main, true,
       "GTC skeleton: toroidal particle shift ring + partdom reductions"},
      {"MILC", milc_main, true,
       "MILC skeleton: 4D lattice CG with gather-from-directions"},
      {"MiniFE", minife_main, true,
       "MiniFE skeleton: CG solve, halo + dot products, ANY_SOURCE setup"},
      {"MiniGhost", minighost_main, false,
       "MiniGhost skeleton: BSPMA 7-point stencil halo exchange"},
      {"MiniFE-facade", minife_facade_main, true,
       "MiniFE ported to the four-call facade (core/facade.hpp)"},
      {"BT", nas_bt_main, false, "NAS BT skeleton: multi-partition ADI sweeps"},
      {"BT-facade", nas_bt_facade_main, false,
       "NAS BT ported to the four-call facade (core/facade.hpp)"},
      {"LU", nas_lu_main, false, "NAS LU skeleton: SSOR pipelined wavefront"},
      {"MG", nas_mg_main, false, "NAS MG skeleton: V-cycle geometric multigrid"},
      {"SP", nas_sp_main, false, "NAS SP skeleton: scalar penta-diagonal sweeps"},
  };
  return apps;
}

}  // namespace spbc::apps
