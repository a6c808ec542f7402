// Driver for the randomized failure-matrix harness (failure_matrix.hpp).
//
// Sweeps seed-derived cases over (scheme x group shape x loss count x loss
// timing x correlation x PFS speed) and asserts the shared invariants. The
// sweep is reproducible: SPBC_FM_SEED picks the base seed (default 1),
// SPBC_FM_CASES the case count (default 48; CI runs 200). Any violation
// prints the exact failing seed — replay it alone with
// `SPBC_FM_SEED=<seed> SPBC_FM_CASES=1 ./test_failure_matrix`.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>

#include "failure_matrix.hpp"

namespace spbc {
namespace {

// The pinned schemes: XOR parity over 4-node groups is RS(3, 1).
const ckpt::RedundancyConfig kSingle{ckpt::SchemeKind::kSingle};
const ckpt::RedundancyConfig kPartner{ckpt::SchemeKind::kPartner};
const ckpt::RedundancyConfig kXor{ckpt::SchemeKind::kReedSolomon, 3, 1};
const ckpt::RedundancyConfig kRs{ckpt::SchemeKind::kReedSolomon, 4, 2};

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

TEST(FailureMatrix, RandomizedSweep) {
  const uint64_t base_seed = env_u64("SPBC_FM_SEED", 1);
  const uint64_t cases = env_u64("SPBC_FM_CASES", 48);
  uint64_t failures = 0;
  for (uint64_t i = 0; i < cases; ++i) {
    const uint64_t seed = base_seed + i;
    testing::FailureCase c = testing::sample_case(seed);
    testing::CaseResult res = testing::run_case(c);
    if (!res.ok) {
      ++failures;
      ADD_FAILURE() << "failure-matrix counterexample at seed " << seed
                    << "\n  case: " << testing::describe_case(c)
                    << "\n  replay: SPBC_FM_SEED=" << seed
                    << " SPBC_FM_CASES=1 ./test_failure_matrix";
      for (const std::string& v : res.violations)
        ADD_FAILURE() << "  violated: " << v;
    }
  }
  EXPECT_EQ(failures, 0u) << failures << "/" << cases << " cases failed";
}

// The four corners the sweep must keep covering regardless of the sampled
// distribution: one hand-pinned case per scheme — in-tolerance losses,
// settled timing, lagging PFS — so a sampler change can never silently
// drop a scheme from coverage.
TEST(FailureMatrix, PinnedSchemeCorners) {
  struct Corner {
    ckpt::RedundancyConfig red;
    int nodes;
    int losses;
  };
  for (const Corner& k : {Corner{kSingle, 4, 1}, Corner{kPartner, 4, 1},
                          Corner{kXor, 4, 1},  // one G=4 group
                          // one k+m group; both tolerated losses at once
                          Corner{kRs, 6, 2}}) {
    testing::FailureCase c;
    c.seed = 0;  // hand-built, not sampled
    c.redundancy = k.red;
    c.nodes = k.nodes;
    c.losses = k.losses;
    c.nclusters = 3;
    c.bytes = 2048;
    c.correlated = false;
    c.timing = testing::FailureCase::Timing::kSettled;
    c.flush_pfs = false;
    testing::CaseResult res = testing::run_case(c);
    EXPECT_TRUE(res.ok) << testing::describe_case(c);
    if (!res.ok)
      for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

// Node-never-returns corners pinned the same way: hot-swap with the pool
// holding (spares > losses), shrunk restart with the pool empty, and a
// permanent loss landing while an earlier victim's spare rebuild is still
// in flight (losses=2 reserves one). The randomized sweep samples this
// bucket too; the pins keep each path covered under any sampler change.
TEST(FailureMatrix, PinnedSpareSwapCorners) {
  struct Corner {
    ckpt::RedundancyConfig red;
    int nodes;
    int losses;
    int spares;
  };
  for (const Corner& k : {Corner{kXor, 4, 1, 2}, Corner{kXor, 4, 1, 0},
                          Corner{kRs, 6, 2, 1}}) {
    testing::FailureCase c;
    c.seed = 0;  // hand-built, not sampled
    c.redundancy = k.red;
    c.nodes = k.nodes;
    c.nclusters = 2;
    c.bytes = 2048;
    c.losses = k.losses;
    c.correlated = false;
    c.timing = testing::FailureCase::Timing::kSpareSwap;
    c.flush_pfs = false;
    c.spares = k.spares;
    testing::CaseResult res = testing::run_case(c);
    EXPECT_TRUE(res.ok) << testing::describe_case(c);
    if (!res.ok)
      for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

// Hostile-shape corners (DESIGN.md §16): one hand-pinned case per Hostile
// bucket over a representative scheme, so every adversarial shape stays
// covered regardless of the sampled distribution. Straggler skew and the
// healing partition replay the settled XOR corner; the three hardware
// domains (rack / switch / PSU) draw the victims from their own blast
// geometry with enough nodes that the domain fits the loss count.
TEST(FailureMatrix, PinnedHostileCorners) {
  struct Corner {
    testing::FailureCase::Hostile hostile;
    ckpt::RedundancyConfig red;
    int nodes;
    int losses;
    testing::FailureCase::Timing timing;
  };
  using H = testing::FailureCase::Hostile;
  using T = testing::FailureCase::Timing;
  for (const Corner& k :
       {Corner{H::kStragglerSkew, kXor, 4, 1, T::kSettled},
        // Straggler + mid-drain: the skewed epoch-2 writes straddle the kill.
        Corner{H::kStragglerSkew, kRs, 6, 2, T::kMidDrain},
        Corner{H::kPartitionHeal, kXor, 4, 1, T::kMidDrain},
        Corner{H::kPartitionHeal, kPartner, 4, 1, T::kSettled},
        Corner{H::kRackDomain, kRs, 12, 2, T::kSettled},
        Corner{H::kSwitchDomain, kXor, 8, 1, T::kSettled},
        Corner{H::kPsuDomain, kRs, 6, 2, T::kSettled}}) {
    testing::FailureCase c;
    c.seed = 0;  // hand-built, not sampled
    c.redundancy = k.red;
    c.nodes = k.nodes;
    c.nclusters = 2;
    c.bytes = 2048;
    c.losses = k.losses;
    c.correlated = false;
    c.timing = k.timing;
    c.flush_pfs = false;
    c.hostile = k.hostile;
    testing::CaseResult res = testing::run_case(c);
    EXPECT_TRUE(res.ok) << testing::describe_case(c);
    if (!res.ok)
      for (const std::string& v : res.violations) ADD_FAILURE() << v;
  }
}

// The CI sweep must actually sample every hostile and every timing bucket:
// scan the seed range CI uses (SPBC_FM_SEED=1, 300 cases) and assert each
// Hostile and each Timing value appears. Sampling only — no cases are run —
// so this stays cheap and fails the moment a sampler change starves a
// bucket.
TEST(FailureMatrix, SweepCoversEveryHostileBucket) {
  const uint64_t base_seed = env_u64("SPBC_FM_SEED", 1);
  const uint64_t cases = std::max<uint64_t>(env_u64("SPBC_FM_CASES", 48), 300);
  std::array<uint64_t, 6> hostile_hits{};
  std::array<uint64_t, 8> timing_hits{};
  for (uint64_t i = 0; i < cases; ++i) {
    testing::FailureCase c = testing::sample_case(base_seed + i);
    ++hostile_hits[static_cast<size_t>(c.hostile)];
    ++timing_hits[static_cast<size_t>(c.timing)];
  }
  for (size_t b = 0; b < hostile_hits.size(); ++b)
    EXPECT_GT(hostile_hits[b], 0u)
        << "hostile bucket '"
        << testing::hostile_name(static_cast<testing::FailureCase::Hostile>(b))
        << "' never sampled in " << cases << " cases from seed " << base_seed;
  for (size_t b = 0; b < timing_hits.size(); ++b)
    EXPECT_GT(timing_hits[b], 0u)
        << "timing bucket '"
        << testing::timing_name(static_cast<testing::FailureCase::Timing>(b))
        << "' never sampled in " << cases << " cases from seed " << base_seed;
}

}  // namespace
}  // namespace spbc
