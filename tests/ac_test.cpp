// Aho-Corasick tests: trie construction, the two automaton variants
// (full-matrix, compressed interleaved), textbook
// cases, overlap semantics, randomized differential checks vs naive, and
// the lane-parallel batch kernel vs scalar full-table AC.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "ac/ac_compact.hpp"
#include "ac/ac_full.hpp"
#include "ac/trie.hpp"
#include "helpers.hpp"
#include "simd/cpu_features.hpp"

namespace vpm::ac {
namespace {

using testutil::classic_set;
using testutil::expect_matches_naive;

TEST(Trie, StateCountMatchesDistinctPrefixes) {
  // he, she, his, hers -> root + h,e | s,h,e | i,s | r,s = 10 states.
  const Trie trie(classic_set());
  EXPECT_EQ(trie.state_count(), 10u);
}

TEST(Trie, RootFallbackOnUnknownByte) {
  const Trie trie(classic_set());
  EXPECT_EQ(trie.next_state(0, 'z'), 0u);
}

TEST(Trie, GotoFollowsPatternBytes) {
  const Trie trie(classic_set());
  std::uint32_t s = 0;
  for (char c : std::string("she")) {
    s = trie.next_state(s, static_cast<std::uint8_t>(c));
    EXPECT_NE(s, 0u);
  }
  // "she" end state must output both "she" and (via fail) "he".
  std::size_t outputs = 0;
  for (std::uint32_t n = s; n != kNoState; n = trie.nodes()[n].report_link) {
    outputs += trie.nodes()[n].outputs.size();
  }
  EXPECT_EQ(outputs, 2u);
}

template <typename M>
class AcVariants : public ::testing::Test {};

using Variants = ::testing::Types<AcFullMatcher, AcCompactMatcher>;
TYPED_TEST_SUITE(AcVariants, Variants);

TYPED_TEST(AcVariants, ClassicUshersExample) {
  pattern::PatternSet set;
  const auto he = set.add("he");
  const auto she = set.add("she");
  set.add("his");
  const auto hers = set.add("hers");
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("ushers"));
  // "ushers" contains she@1, he@2, hers@2; sorted by (id, pos):
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (Match{he, 2}));
  EXPECT_EQ(matches[1], (Match{she, 1}));
  EXPECT_EQ(matches[2], (Match{hers, 2}));
}

TYPED_TEST(AcVariants, ClassicExampleAgainstOracle) {
  const auto set = classic_set();
  const TypeParam m(set);
  expect_matches_naive(m, set, util::as_view("ushers"));
  expect_matches_naive(m, set, util::as_view("shishers"));
  expect_matches_naive(m, set, util::as_view("hehehehe"));
}

TYPED_TEST(AcVariants, EmptyInputNoMatches) {
  const auto set = classic_set();
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches({}), 0u);
}

TYPED_TEST(AcVariants, InputShorterThanAnyPattern) {
  pattern::PatternSet set;
  set.add("abcdef");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("abc")), 0u);
}

TYPED_TEST(AcVariants, SingleBytePatterns) {
  pattern::PatternSet set;
  set.add("a");
  set.add("z");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("banana")), 3u);
  expect_matches_naive(m, set, util::as_view("azazaz"));
}

TYPED_TEST(AcVariants, OverlappingOccurrences) {
  pattern::PatternSet set;
  set.add("aa");
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("aaaa")), 3u);
}

TYPED_TEST(AcVariants, PatternIsSuffixOfAnother) {
  pattern::PatternSet set;
  set.add("dabc");
  set.add("abc");
  set.add("bc");
  set.add("c");
  const TypeParam m(set);
  expect_matches_naive(m, set, util::as_view("xdabcx"));
}

TYPED_TEST(AcVariants, NocaseMatchesAllCases) {
  pattern::PatternSet set;
  set.add("Attack", true);
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("ATTACK attack AtTaCk")), 3u);
}

TYPED_TEST(AcVariants, CaseSensitiveRejectsWrongCase) {
  pattern::PatternSet set;
  set.add("Attack", false);
  const TypeParam m(set);
  EXPECT_EQ(m.count_matches(util::as_view("ATTACK attack Attack")), 1u);
}

TYPED_TEST(AcVariants, MixedCaseSensitivitySameBytes) {
  pattern::PatternSet set;
  const auto exact = set.add("get", false);
  const auto folded = set.add("get", true);
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("GET get"));
  // "GET" matches only the nocase pattern; "get" matches both.
  // Sorted by (pattern_id, pos): exact@4, folded@0, folded@4.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0], (Match{exact, 4}));
  EXPECT_EQ(matches[1], (Match{folded, 0}));
  EXPECT_EQ(matches[2], (Match{folded, 4}));
}

TYPED_TEST(AcVariants, BinaryPatternsWithNulAndHighBytes) {
  pattern::PatternSet set;
  set.add(util::Bytes{0x00, 0x90, 0xFF});
  set.add(util::Bytes{0x90, 0x90});
  const TypeParam m(set);
  const util::Bytes data{0x41, 0x00, 0x90, 0xFF, 0x90, 0x90, 0x90};
  expect_matches_naive(m, set, data);
}

TYPED_TEST(AcVariants, MatchAtVeryStartAndEnd) {
  pattern::PatternSet set;
  set.add("begin");
  set.add("end");
  const TypeParam m(set);
  const auto matches = m.find_matches(util::as_view("beginxxxend"));
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].pos, 0u);
  EXPECT_EQ(matches[1].pos, 8u);
}

TYPED_TEST(AcVariants, LongPattern) {
  pattern::PatternSet set;
  const std::string longpat(300, 'x');
  set.add(longpat);
  const TypeParam m(set);
  const std::string hay = "yy" + longpat + "yy";
  EXPECT_EQ(m.count_matches(util::as_view(hay)), 1u);
}

TYPED_TEST(AcVariants, RandomizedDifferentialSmall) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto set = testutil::random_set(40, 6, testutil::case_seed(seed));
    const TypeParam m(set);
    const auto text = testutil::random_text(2000, testutil::case_seed(seed + 100));
    expect_matches_naive(m, set, text, "seed=" + std::to_string(seed));
  }
}

TEST(AcFull, MemoryGrowsWithPatternCount) {
  const auto small = testutil::random_set(50, 12, testutil::case_seed(1), 26);
  const auto large = testutil::random_set(500, 12, testutil::case_seed(2), 26);
  const AcFullMatcher a(small);
  const AcFullMatcher b(large);
  EXPECT_GT(b.memory_bytes(), a.memory_bytes()) << testutil::seed_note();
  EXPECT_GT(b.state_count(), a.state_count()) << testutil::seed_note();
}

// ---- compact layout ---------------------------------------------------------------

TEST(AcCompact, CompressesTheFullMatrix) {
  const auto set = testutil::random_set(500, 16, testutil::case_seed(6), 26);
  const AcFullMatcher full(set);
  const AcCompactMatcher compact(set);
  ASSERT_EQ(full.state_count(), compact.state_count());
  // The compression claim: well under a quarter of the full matrix (in
  // practice ~3-5%: most states diff from the root row at only a few bytes).
  EXPECT_LT(compact.memory_bytes() * 4, full.memory_bytes()) << testutil::seed_note();
  EXPECT_LT(compact.dense_states(), compact.state_count() / 10 + 2)
      << testutil::seed_note();
}

TEST(AcCompact, DenseStatesStillMatchExactly) {
  // A state whose row differs from the root row on more than half the
  // folded alphabet (>= 128 bytes) must be laid out dense: give state "a"
  // children on every byte value (~230 distinct folded bytes).
  pattern::PatternSet set;
  set.add("a");
  for (unsigned b = 0; b < 256; ++b) {
    set.add(util::Bytes{static_cast<std::uint8_t>('a'), static_cast<std::uint8_t>(b)});
  }
  const AcCompactMatcher compact(set);
  EXPECT_GE(compact.dense_states(), 2u);  // root + state "a" at least
  util::Bytes text;
  util::Rng rng(testutil::case_seed(7));
  for (int i = 0; i < 4096; ++i) {
    text.push_back(rng.chance(0.4) ? std::uint8_t{'a'} : static_cast<std::uint8_t>(rng.below(256)));
  }
  testutil::expect_matches_naive(compact, set, text, "dense-row mix");
}

TEST(AcCompact, ArenaIsContiguousAndOffsetAddressed) {
  const auto set = testutil::classic_set();
  const AcCompactMatcher compact(set);
  // Root row is dense at offset 0 and every ref's offset stays in-arena.
  ASSERT_GE(compact.arena_words(), 256u);
  for (unsigned b = 0; b < 256; ++b) {
    const std::uint32_t ref = compact.arena()[b];
    EXPECT_LT(ref & kAcOffsetMask, compact.arena_words());
  }
}

// ---- lane-parallel batch kernel ---------------------------------------------------

using PacketMatch = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

struct CollectingBatchSink final : BatchSink {
  std::vector<PacketMatch> out;
  void on_match(std::uint32_t packet, const Match& m) override {
    out.emplace_back(packet, m.pattern_id, m.pos);
  }
};

std::vector<util::ByteView> views_of(const std::vector<util::Bytes>& payloads) {
  std::vector<util::ByteView> v;
  for (const util::Bytes& p : payloads) v.emplace_back(p.data(), p.size());
  return v;
}

// The satellite contract: AC-lanes (compact scan_batch) must report the
// multiset scalar full-table AC reports per payload — across batch sizes,
// ragged payload mixes (lane refill), and random seed universes.
void expect_lanes_match_scalar_ac(const pattern::PatternSet& set,
                                  const std::vector<util::Bytes>& payloads,
                                  const std::string& context) {
  const AcFullMatcher reference(set);
  std::vector<PacketMatch> expected;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    for (const Match& m : reference.find_matches(payloads[i])) {
      expected.emplace_back(static_cast<std::uint32_t>(i), m.pattern_id, m.pos);
    }
  }
  std::sort(expected.begin(), expected.end());

  const AcCompactMatcher compact(set);
  const auto views = views_of(payloads);
  ScanScratch scratch;
  for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    CollectingBatchSink sink;
    for (std::size_t begin = 0; begin < views.size(); begin += batch) {
      const std::size_t count = std::min(batch, views.size() - begin);
      struct Shift final : BatchSink {
        CollectingBatchSink* inner;
        std::uint32_t base;
        void on_match(std::uint32_t packet, const Match& m) override {
          inner->on_match(base + packet, m);
        }
      } shifted;
      shifted.inner = &sink;
      shifted.base = static_cast<std::uint32_t>(begin);
      compact.scan_batch({views.data() + begin, count}, shifted, scratch);
    }
    std::sort(sink.out.begin(), sink.out.end());
    EXPECT_EQ(sink.out, expected)
        << context << " batch=" << batch << " (" << testutil::seed_note() << ")";
  }
}

TEST(AcLanes, MatchesScalarAcOnAdversarialPayloadMix) {
  const auto set = testutil::boundary_set();
  std::vector<util::Bytes> payloads;
  payloads.push_back({});                        // empty (skipped at staging)
  payloads.push_back(util::to_bytes("a"));       // 1-byte match
  payloads.push_back(util::to_bytes("xxab"));    // prefix ends at the edge...
  payloads.push_back(util::to_bytes("cdexx"));   // ...suffix opens the next payload
  payloads.push_back(util::to_bytes("abcde"));   // exact fit against both edges
  payloads.push_back({});
  payloads.push_back(util::to_bytes("GEt hTtP/1.1"));            // nocase
  payloads.push_back({0x00, 0x01, 0xFF, 0xFE, 0xFD, 0xFC, 0xFB});  // binary + NUL
  payloads.push_back(util::to_bytes("z"));
  payloads.push_back(testutil::random_text(3, testutil::case_seed(8)));
  payloads.push_back(testutil::random_text(129, testutil::case_seed(9)));  // odd tail
  expect_lanes_match_scalar_ac(set, payloads, "adversarial");
}

TEST(AcLanes, MatchesScalarAcAcrossRaggedRandomPayloads) {
  const auto set = testutil::random_set(300, 6, testutil::case_seed(10));
  util::Rng rng(testutil::case_seed(11));
  std::vector<util::Bytes> payloads;
  for (int i = 0; i < 64; ++i) {
    // Ragged lengths exercise the dynamic lane-refill path: lanes finish at
    // wildly different times and must pick up fresh payloads mid-batch.
    const std::size_t len = rng.below(400);
    payloads.push_back(testutil::random_text(len, testutil::case_seed(12) + i));
  }
  expect_lanes_match_scalar_ac(set, payloads, "ragged");
}

TEST(AcLanes, MatchesScalarAcOnDenseHeavyAutomaton) {
  // Force dense records into the lane kernel's gather path.
  pattern::PatternSet set;
  set.add("a");
  for (unsigned b = 0; b < 256; ++b) {
    set.add(util::Bytes{static_cast<std::uint8_t>('a'), static_cast<std::uint8_t>(b)}, (b % 3) == 0);
  }
  util::Rng rng(testutil::case_seed(13));
  std::vector<util::Bytes> payloads;
  for (int i = 0; i < 24; ++i) {
    util::Bytes text;
    const std::size_t len = 1 + rng.below(200);
    for (std::size_t k = 0; k < len; ++k) {
      text.push_back(rng.chance(0.5) ? std::uint8_t{'a'} : static_cast<std::uint8_t>(rng.below(256)));
    }
    payloads.push_back(std::move(text));
  }
  expect_lanes_match_scalar_ac(set, payloads, "dense-heavy");
}

}  // namespace
}  // namespace vpm::ac
