// Core S-PATCH / V-PATCH tests: filter bank construction, the two-round
// engines, kernel/ISA equivalence, chunking, tails, stats instrumentation,
// and ablation option sanity.
#include <gtest/gtest.h>

#include "core/filter_bank.hpp"
#include "core/matcher_factory.hpp"
#include "core/naive.hpp"
#include "core/spatch.hpp"
#include "core/vpatch.hpp"
#include "helpers.hpp"
#include "simd/cpu_features.hpp"
#include "util/hash.hpp"

namespace vpm::core {
namespace {

using testutil::expect_matches_naive;

// ---- FilterBank -----------------------------------------------------------

TEST(FilterBank, ShortPatternsGoToF1Only) {
  pattern::PatternSet set;
  set.add("ab");
  const FilterBank bank(set);
  const auto w = util::load_u16(util::to_bytes("ab").data());
  EXPECT_TRUE(bank.test_f1(w));
  EXPECT_FALSE(bank.test_f2(w));
  EXPECT_TRUE(bank.has_short_patterns());
  EXPECT_FALSE(bank.has_long_patterns());
}

TEST(FilterBank, LongPatternsGoToF2AndF3) {
  pattern::PatternSet set;
  set.add("abcdef");
  const FilterBank bank(set);
  const auto w2 = util::load_u16(util::to_bytes("ab").data());
  const auto w4 = util::load_u32(util::to_bytes("abcd").data());
  EXPECT_FALSE(bank.test_f1(w2));
  EXPECT_TRUE(bank.test_f2(w2));
  EXPECT_TRUE(bank.test_f3(w4));
}

TEST(FilterBank, MergedLayoutInterleavesF1F2) {
  pattern::PatternSet set;
  set.add("ab");      // F1
  set.add("cdef");    // F2
  const FilterBank bank(set);
  const std::uint8_t* merged = bank.merged_data();
  for (std::uint32_t v : {util::load_u16(util::to_bytes("ab").data()),
                          util::load_u16(util::to_bytes("cd").data())}) {
    const std::uint8_t f1_byte = merged[2 * (v >> 3)];
    const std::uint8_t f2_byte = merged[2 * (v >> 3) + 1];
    EXPECT_EQ(((f1_byte >> (v & 7)) & 1) != 0, bank.test_f1(v));
    EXPECT_EQ(((f2_byte >> (v & 7)) & 1) != 0, bank.test_f2(v));
  }
}

TEST(FilterBank, MergedMatchesSeparateEverywhere) {
  const auto set = testutil::random_set(300, 10, 42, 26);
  const FilterBank bank(set);
  const std::uint8_t* merged = bank.merged_data();
  for (std::uint32_t v = 0; v < (1u << 16); ++v) {
    const bool f1 = (merged[2 * (v >> 3)] >> (v & 7)) & 1;
    const bool f2 = (merged[2 * (v >> 3) + 1] >> (v & 7)) & 1;
    ASSERT_EQ(f1, bank.test_f1(v)) << v;
    ASSERT_EQ(f2, bank.test_f2(v)) << v;
  }
}

TEST(FilterBank, F3SizeConfigurable) {
  pattern::PatternSet set;
  set.add("abcdefgh");
  FilterBankConfig cfg;
  cfg.f3_bits_log2 = 12;
  const FilterBank bank(set, cfg);
  EXPECT_EQ(bank.f3_bits_log2(), 12u);
  EXPECT_TRUE(bank.test_f3(util::load_u32(util::to_bytes("abcd").data())));
}

TEST(FilterBank, OccupancyGrowsWithPatterns) {
  const auto small = testutil::random_set(50, 10, 1, 26);
  const auto large = testutil::random_set(2000, 10, 2, 26);
  const FilterBank a(small), b(large);
  EXPECT_GT(b.f2_occupancy(), a.f2_occupancy());
  EXPECT_GT(b.f3_occupancy(), a.f3_occupancy());
}

// ---- S-PATCH ------------------------------------------------------------------

TEST(Spatch, BoundarySetAgainstOracle) {
  const auto set = testutil::boundary_set();
  const SpatchMatcher m(set);
  expect_matches_naive(m, set, util::as_view("a ab abc abcd abcde GET HtTp/1.1 xx"));
}

TEST(Spatch, RandomizedDifferential) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto set = testutil::random_set(80, 8, seed);
    const SpatchMatcher m(set);
    const auto text = testutil::random_text(4000, seed + 30);
    expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
  }
}

TEST(Spatch, ChunkBoundariesDoNotLoseMatches) {
  pattern::PatternSet set;
  set.add("boundary-crossing-pattern");
  SpatchConfig cfg;
  cfg.chunk_size = 64;  // force many chunks
  const SpatchMatcher m(set, cfg);
  std::string text(1000, '.');
  text.replace(60, 25, "boundary-crossing-pattern");   // straddles chunk 0/1
  text.replace(640, 25, "boundary-crossing-pattern");  // chunk 10
  EXPECT_EQ(m.count_matches(util::as_view(text)), 2u);
}

TEST(Spatch, ChunkSizeDoesNotChangeResults) {
  const auto set = testutil::random_set(50, 8, 5);
  const auto text = testutil::random_text(5000, 6);
  std::vector<Match> reference;
  for (std::size_t chunk : {7u, 64u, 333u, 4096u, 1u << 20}) {
    SpatchConfig cfg;
    cfg.chunk_size = chunk;
    const SpatchMatcher m(set, cfg);
    const auto got = m.find_matches(text);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "chunk=" << chunk;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(Spatch, TailPositions) {
  pattern::PatternSet set;
  set.add("x");
  set.add("yz");
  set.add("wxyz");
  const SpatchMatcher m(set);
  EXPECT_EQ(m.count_matches(util::as_view("x")), 1u);       // 1-byte input
  EXPECT_EQ(m.count_matches(util::as_view("yz")), 1u);      // exact 2-byte
  EXPECT_EQ(m.count_matches(util::as_view("wxyz")), 3u);    // wxyz@0, x@1, yz@2
  EXPECT_EQ(m.count_matches(util::as_view("aax")), 1u);     // match at last byte
}

TEST(Spatch, EmptyAndDegenerateInputs) {
  const auto set = testutil::boundary_set();
  const SpatchMatcher m(set);
  EXPECT_EQ(m.count_matches({}), 0u);
  for (std::size_t len = 1; len <= 8; ++len) {
    const auto text = testutil::random_text(len, len);
    expect_matches_naive(m, set, text, "len=" + std::to_string(len));
  }
}

TEST(Spatch, StatsSplitFilteringAndVerification) {
  const auto set = testutil::random_set(100, 8, 7);
  const SpatchMatcher m(set);
  const auto text = testutil::random_text(1 << 16, 8);
  ScanStats stats;
  CountingSink sink;
  m.scan_with_stats(text, sink, stats);
  EXPECT_GT(stats.filter_seconds, 0.0);
  EXPECT_EQ(stats.matches, sink.count());
  EXPECT_GT(stats.short_candidates + stats.long_candidates, 0u);
  EXPECT_GE(stats.filter_time_fraction(), 0.0);
  EXPECT_LE(stats.filter_time_fraction(), 1.0);
}

TEST(Spatch, FilterOnlyCountsAgreeWithStores) {
  const auto set = testutil::random_set(100, 8, 9);
  const SpatchMatcher m(set);
  const auto text = testutil::random_text(20000, 10);
  const auto with = m.filter_only(text, true);
  const auto without = m.filter_only(text, false);
  EXPECT_EQ(with.short_candidates, without.short_candidates);
  EXPECT_EQ(with.long_candidates, without.long_candidates);
}

TEST(Spatch, FewerLongCandidatesThanDfcStyleF2Alone) {
  // Filter 3 must strictly reduce candidates vs Filter 2 alone on random
  // input — the design point of the third filter.
  const auto set = testutil::random_set(200, 10, 11);
  const SpatchMatcher m(set);
  const auto text = testutil::random_text(50000, 12);
  const auto& bank = m.filter_bank();
  std::uint64_t f2_hits = 0;
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (bank.test_f2(util::load_u16(text.data() + i))) ++f2_hits;
  }
  const auto result = m.filter_only(text, false);
  EXPECT_LT(result.long_candidates, f2_hits);
}

// ---- V-PATCH ------------------------------------------------------------------

std::vector<Isa> testable_isas() {
  std::vector<Isa> isas{Isa::scalar};
  if (simd::cpu().has_avx2_kernel()) isas.push_back(Isa::avx2);
  if (simd::cpu().has_avx512_kernel()) isas.push_back(Isa::avx512);
  return isas;
}

class VpatchIsa : public ::testing::TestWithParam<Isa> {
 protected:
  VpatchConfig config() const {
    VpatchConfig cfg;
    cfg.isa = GetParam();
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(AllIsas, VpatchIsa, ::testing::ValuesIn(testable_isas()),
                         [](const auto& info) { return std::string(isa_name(info.param)); });

TEST_P(VpatchIsa, BoundarySetAgainstOracle) {
  const auto set = testutil::boundary_set();
  const VpatchMatcher m(set, config());
  expect_matches_naive(m, set, util::as_view("a ab abc abcd abcde GET HtTp/1.1 xx"));
}

TEST_P(VpatchIsa, RandomizedDifferential) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto set = testutil::random_set(80, 8, seed);
    const VpatchMatcher m(set, config());
    const auto text = testutil::random_text(4000, seed + 40);
    expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
  }
}

TEST_P(VpatchIsa, AgreesWithSpatchOnHttpLikeText) {
  const auto set = testutil::random_set(150, 10, 13);
  const SpatchMatcher scalar(set);
  const VpatchMatcher vec(set, config());
  const auto text = testutil::random_text(100000, 14);
  EXPECT_EQ(vec.find_matches(text), scalar.find_matches(text));
}

TEST_P(VpatchIsa, AllLengthsNearVectorBoundaries) {
  pattern::PatternSet set;
  set.add("ab");
  set.add("a");
  set.add("bcde");
  set.add("deadbeef");
  const VpatchMatcher m(set, config());
  for (std::size_t len = 0; len <= 80; ++len) {
    const auto text = testutil::random_text(len, len * 13 + 1, 5);
    expect_matches_naive(m, set, text, "len=" + std::to_string(len));
  }
}

TEST_P(VpatchIsa, MatchesAtChunkAndVectorSeams) {
  pattern::PatternSet set;
  set.add("seam");
  VpatchConfig cfg = config();
  cfg.chunk_size = 128;
  const VpatchMatcher m(set, cfg);
  // Place "seam" across every offset near the chunk boundary.
  for (std::size_t pos = 120; pos <= 136; ++pos) {
    std::string text(300, '.');
    text.replace(pos, 4, "seam");
    EXPECT_EQ(m.count_matches(util::as_view(text)), 1u) << "pos=" << pos;
  }
}

TEST_P(VpatchIsa, StatsTrackLaneUtilization) {
  const auto set = testutil::random_set(200, 10, 15);
  const VpatchMatcher m(set, config());
  const auto text = testutil::random_text(1 << 16, 16);
  ScanStats stats;
  CountingSink sink;
  m.scan_with_stats(text, sink, stats);
  EXPECT_EQ(stats.vector_width, m.vector_width());
  if (GetParam() != Isa::scalar) {
    EXPECT_GT(stats.f3_blocks, 0u);
    EXPECT_GT(stats.f3_lane_utilization(), 0.0);
    EXPECT_LE(stats.f3_lane_utilization(), 1.0);
  }
}

TEST_P(VpatchIsa, FilterOnlyMatchesScalarCounts) {
  const auto set = testutil::random_set(120, 10, 17);
  const SpatchMatcher scalar(set);
  const VpatchMatcher vec(set, config());
  const auto text = testutil::random_text(50000, 18);
  const auto s = scalar.filter_only(text, true);
  const auto v_stores = vec.filter_only(text, true);
  const auto v_nostores = vec.filter_only(text, false);
  EXPECT_EQ(v_stores.short_candidates, s.short_candidates);
  EXPECT_EQ(v_stores.long_candidates, s.long_candidates);
  EXPECT_EQ(v_nostores.short_candidates, s.short_candidates);
  EXPECT_EQ(v_nostores.long_candidates, s.long_candidates);
}

TEST_P(VpatchIsa, KernelOptionCombinationsAreEquivalent) {
  const auto set = testutil::random_set(100, 10, 19);
  const auto text = testutil::random_text(30000, 20);
  const SpatchMatcher reference(set);
  const auto expected = reference.find_matches(text);
  for (bool unroll : {false, true}) {
    for (bool merged : {false, true}) {
      for (bool spec : {false, true}) {
        VpatchConfig cfg = config();
        cfg.kernel.unroll2 = unroll;
        cfg.kernel.merged_filters = merged;
        cfg.kernel.speculative_f3 = spec;
        const VpatchMatcher m(set, cfg);
        EXPECT_EQ(m.find_matches(text), expected)
            << "unroll=" << unroll << " merged=" << merged << " spec=" << spec;
      }
    }
  }
}

TEST(Vpatch, BestIsaResolvesToWidestAvailable) {
  const Isa best = resolve_isa(Isa::best);
  if (simd::cpu().has_avx512_kernel()) {
    EXPECT_EQ(best, Isa::avx512);
  } else if (simd::cpu().has_avx2_kernel()) {
    EXPECT_EQ(best, Isa::avx2);
  } else {
    EXPECT_EQ(best, Isa::scalar);
  }
}

// available_algorithms() is the factory's advertised contract: every entry
// must construct and scan without throwing on the current feature set.  This
// suite is also re-run with VPM_FORCE_ISA=scalar (see tests/CMakeLists.txt),
// which exercises the same assertion with the vector engines masked out.
TEST(MatcherFactory, AvailableAlgorithmsAllConstructAndScan) {
  const auto set = testutil::boundary_set();
  const auto algos = available_algorithms();
  ASSERT_FALSE(algos.empty());
  for (const Algorithm a : algos) {
    EXPECT_TRUE(algorithm_available(a)) << algorithm_name(a);
    MatcherPtr m;
    ASSERT_NO_THROW(m = make_matcher(a, set)) << algorithm_name(a);
    testutil::expect_matches_naive(*m, set, util::as_view("xyzabcdexyz GET abc"),
                                   std::string(algorithm_name(a)));
  }
}

TEST(MatcherFactory, UnavailableAlgorithmsThrowInsteadOfMisbehaving) {
  const auto set = testutil::boundary_set();
  if (!algorithm_available(Algorithm::vector_dfc)) {
    EXPECT_THROW((void)make_matcher(Algorithm::vector_dfc, set), std::runtime_error);
  }
  // A V-PATCH width this CPU (or VPM_FORCE_ISA) cannot run is refused at
  // construction, not silently narrowed.
  for (const Isa isa : {Isa::avx2, Isa::avx512}) {
    if (isa_supported(isa)) continue;
    VpatchConfig cfg;
    cfg.isa = isa;
    EXPECT_THROW((VpatchMatcher{set, cfg}), std::runtime_error) << isa_name(isa);
  }
}

TEST(MatcherFactory, VpatchConstructsOnScalarAndBestIsa) {
  // Isa::scalar must work everywhere; Isa::best must resolve to something
  // constructible whatever the CPU (or VPM_FORCE_ISA) says.
  const auto set = testutil::boundary_set();
  for (const Isa isa : {Isa::scalar, Isa::best}) {
    VpatchConfig cfg;
    cfg.isa = isa;
    ASSERT_NO_THROW((VpatchMatcher{set, cfg})) << isa_name(isa);
    VpatchMatcher m(set, cfg);
    testutil::expect_matches_naive(m, set, util::as_view("she sells abcde shells"),
                                   std::string(isa_name(isa)));
  }
}

TEST(Vpatch, NameReflectsIsa) {
  const auto set = testutil::boundary_set();
  if (simd::cpu().has_avx2_kernel()) {
    VpatchConfig cfg;
    cfg.isa = Isa::avx2;
    EXPECT_EQ(VpatchMatcher(set, cfg).name(), "V-PATCH");
  }
  if (simd::cpu().has_avx512_kernel()) {
    VpatchConfig cfg;
    cfg.isa = Isa::avx512;
    EXPECT_EQ(VpatchMatcher(set, cfg).name(), "V-PATCH-512");
  }
}

// ---- factory ---------------------------------------------------------------------

TEST(Factory, NamesRoundTrip) {
  for (Algorithm a : available_algorithms()) {
    const auto name = algorithm_name(a);
    const auto parsed = algorithm_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(algorithm_from_name("nonsense").has_value());
}

TEST(Factory, BuildsEveryAvailableAlgorithm) {
  const auto set = testutil::boundary_set();
  for (Algorithm a : available_algorithms()) {
    const MatcherPtr m = make_matcher(a, set);
    ASSERT_NE(m, nullptr);
    EXPECT_FALSE(m->name().empty());
    // Smoke scan.
    EXPECT_EQ(m->count_matches(util::as_view("abcd GET")),
              make_matcher(Algorithm::naive, set)->count_matches(util::as_view("abcd GET")))
        << m->name();
  }
}

// ---- naive ------------------------------------------------------------------------

TEST(Naive, FindsOverlapsAndDuplicates) {
  pattern::PatternSet set;
  set.add("aa");
  set.add("a");
  const NaiveMatcher m(set);
  // "aaa": a@0,1,2 and aa@0,1 = 5 matches.
  EXPECT_EQ(m.count_matches(util::as_view("aaa")), 5u);
}

}  // namespace
}  // namespace vpm::core
