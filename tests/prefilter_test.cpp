// The approximate-prefilter contract: rejection is exact (ZERO false
// negatives — any payload containing a pattern occurrence must pass the
// screen), passing is approximate, and engaging the screen anywhere in the
// stack (engine flush path, pipeline workers, serialized databases) must
// leave the alert multiset bit-identical to prefilter-off.  The batch screen
// must agree with the scalar screen verdict-for-verdict on every ISA (the
// _scalar rerun of this suite forces the portable kernel).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "core/naive.hpp"
#include "core/prefilter.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "net/flowgen.hpp"
#include "pattern/serialize.hpp"
#include "pipeline/runtime.hpp"

namespace vpm {
namespace {

using testutil::case_seed;
using testutil::seed_note;

// Like testutil::random_set but with a length floor, so the set is
// prefilter-eligible (no sub-3-byte pattern nulls the signature) and the
// threshold is predictable from min_len.
pattern::PatternSet random_long_set(std::size_t count, std::size_t min_len,
                                    std::size_t max_len, std::uint64_t seed,
                                    unsigned alphabet = 4) {
  pattern::PatternSet set;
  util::Rng rng(seed);
  std::size_t guard = 0;
  while (set.size() < count && guard++ < count * 50) {
    const std::size_t len = min_len + rng.below(max_len - min_len + 1);
    util::Bytes b(len);
    for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(alphabet));
    set.add(std::move(b), rng.chance(0.3));
  }
  return set;
}

void plant(util::Bytes& text, const util::Bytes& pattern, std::size_t pos) {
  ASSERT_LE(pos + pattern.size(), text.size());
  std::copy(pattern.begin(), pattern.end(), text.begin() + pos);
}

// ---- construction --------------------------------------------------------

TEST(PrefilterBuild, RejectsUnusableSets) {
  EXPECT_EQ(core::build_prefilter(pattern::PatternSet{}), nullptr);

  pattern::PatternSet two_byte;
  two_byte.add("ab");
  two_byte.add("abcdefgh");  // one long pattern does not rescue a 2-byte one
  EXPECT_EQ(core::build_prefilter(two_byte), nullptr);

  pattern::PatternSet ok;
  ok.add("abc");
  ok.add("xyz");
  const auto pf = core::build_prefilter(ok);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->q(), 3u);
  EXPECT_EQ(pf->threshold(), 1u);
}

TEST(PrefilterBuild, SelectsQAndThresholdFromShortestPattern) {
  pattern::PatternSet longset;
  longset.add("abcdefgh");
  const auto pf = core::build_prefilter(longset);
  ASSERT_NE(pf, nullptr);
  EXPECT_EQ(pf->q(), 4u);
  EXPECT_EQ(pf->threshold(), 4u);  // min(8 - 4 + 1, 4)
  EXPECT_EQ(pf->min_payload(), 7u);
  EXPECT_EQ(pf->pattern_count(), 1u);
  EXPECT_EQ(pf->gram_count(), 5u);  // abcd bcde cdef defg efgh
  EXPECT_GE(pf->bits_log2(), 10u);
  EXPECT_EQ(pf->memory_bytes(), (std::size_t{1} << pf->bits_log2()) / 8);
  EXPECT_GT(pf->occupancy(), 0.0);
  EXPECT_LT(pf->occupancy(), 1.0);

  pattern::PatternSet four;
  four.add("abcd");
  const auto pf4 = core::build_prefilter(four);
  ASSERT_NE(pf4, nullptr);
  EXPECT_EQ(pf4->q(), 4u);
  EXPECT_EQ(pf4->threshold(), 1u);

  pattern::PatternSet mixed;
  mixed.add("abc");
  mixed.add("abcdefgh");
  const auto pf3 = core::build_prefilter(mixed);
  ASSERT_NE(pf3, nullptr);
  EXPECT_EQ(pf3->q(), 3u);  // shortest pattern forces q=3
  EXPECT_EQ(pf3->threshold(), 1u);

  core::PrefilterConfig capped;
  capped.max_threshold = 2;
  const auto pfc = core::build_prefilter(longset, capped);
  ASSERT_NE(pfc, nullptr);
  EXPECT_EQ(pfc->threshold(), 2u);

  core::PrefilterConfig forced_q;
  forced_q.q = 3;
  const auto pfq = core::build_prefilter(longset, forced_q);
  ASSERT_NE(pfq, nullptr);
  EXPECT_EQ(pfq->q(), 3u);
  EXPECT_EQ(pfq->threshold(), 4u);  // min(8 - 3 + 1, 4)
}

TEST(PrefilterBuild, AdvisedRequiresEnoughPatterns) {
  pattern::PatternSet one;
  one.add("abcdefgh");
  const auto pf = core::build_prefilter(one);
  ASSERT_NE(pf, nullptr);
  EXPECT_FALSE(pf->advised());  // 1 pattern < default min_patterns

  core::PrefilterConfig eager;
  eager.min_patterns = 1;
  const auto pfe = core::build_prefilter(one, eager);
  ASSERT_NE(pfe, nullptr);
  EXPECT_TRUE(pfe->advised());

  const auto many = random_long_set(12, 4, 8, case_seed(400));
  const auto pfm = core::build_prefilter(many);
  ASSERT_NE(pfm, nullptr);
  EXPECT_TRUE(pfm->advised());
}

TEST(PrefilterBuild, ModeNamesRoundTrip) {
  using core::PrefilterMode;
  EXPECT_EQ(core::prefilter_mode_name(PrefilterMode::off), "off");
  EXPECT_EQ(core::prefilter_mode_name(PrefilterMode::on), "on");
  EXPECT_EQ(core::prefilter_mode_name(PrefilterMode::automatic), "auto");
  EXPECT_EQ(core::prefilter_mode_from_name("off"), PrefilterMode::off);
  EXPECT_EQ(core::prefilter_mode_from_name("on"), PrefilterMode::on);
  EXPECT_EQ(core::prefilter_mode_from_name("auto"), PrefilterMode::automatic);
  EXPECT_EQ(core::prefilter_mode_from_name("automatic"), PrefilterMode::automatic);
  EXPECT_EQ(core::prefilter_mode_from_name("bogus"), std::nullopt);
}

// ---- scalar screen semantics ---------------------------------------------

TEST(PrefilterScreen, ExactRejectBelowMinPayloadAndTailPass) {
  pattern::PatternSet set;
  set.add("abcdef");  // q=4, threshold=3, min_payload=6
  const auto pf = core::build_prefilter(set);
  ASSERT_NE(pf, nullptr);
  ASSERT_EQ(pf->min_payload(), 6u);

  const util::Bytes exact = util::to_bytes("abcdef");
  EXPECT_TRUE(pf->screen(exact));
  EXPECT_FALSE(pf->screen(util::ByteView(exact.data(), 5)));  // too short: exact reject
  EXPECT_FALSE(pf->screen(util::ByteView{}));

  // Occurrence flush against the end of the payload must pass (the tail
  // windows are where a blocked kernel is most likely to cut corners).
  util::Bytes tail(200, std::uint8_t{'z'});
  plant(tail, exact, tail.size() - exact.size());
  EXPECT_TRUE(pf->screen(tail));

  const util::Bytes filler(200, std::uint8_t{'z'});
  EXPECT_FALSE(pf->screen(filler));
}

TEST(PrefilterScreen, CaseFoldingNeverCostsAnOccurrence) {
  pattern::PatternSet nocase;
  nocase.add("AbCdEfGh", true);
  const auto pf = core::build_prefilter(nocase);
  ASSERT_NE(pf, nullptr);
  EXPECT_TRUE(pf->screen(util::to_bytes("xx..abcdefgh..xx")));
  EXPECT_TRUE(pf->screen(util::to_bytes("xx..ABCDEFGH..xx")));
  EXPECT_TRUE(pf->screen(util::to_bytes("xx..aBcDeFgH..xx")));

  pattern::PatternSet exact_case;
  exact_case.add("MixedCaseSig");
  const auto pfe = core::build_prefilter(exact_case);
  ASSERT_NE(pfe, nullptr);
  EXPECT_TRUE(pfe->screen(util::to_bytes("zzz MixedCaseSig zzz")));
}

TEST(PrefilterScreen, NoFalseNegativesFuzz) {
  for (std::uint64_t salt = 410; salt < 414; ++salt) {
    const std::uint64_t seed = case_seed(salt);
    const auto set = random_long_set(50, 3, 10, seed);
    const auto pf = core::build_prefilter(set);
    ASSERT_NE(pf, nullptr) << seed_note();
    const core::NaiveMatcher oracle(set);

    util::Rng rng(seed ^ 0xF00D);
    for (int i = 0; i < 150; ++i) {
      const std::size_t len = rng.below(600);
      util::Bytes text = testutil::random_text(len, seed + 7 * i + 1);
      if (oracle.count_matches(text) > 0) {
        EXPECT_TRUE(pf->screen(text))
            << "false negative on random text, salt " << salt << " iter " << i << " ("
            << seed_note() << ")";
      }
      // Plant a verbatim occurrence (exact bytes match regardless of the
      // nocase flag) at a random position, biased toward the tail.
      const auto& pat = set.patterns()[rng.below(set.size())];
      if (text.size() < pat.bytes.size()) continue;
      const std::size_t room = text.size() - pat.bytes.size();
      const std::size_t pos = rng.chance(0.3) ? room : rng.below(room + 1);
      plant(text, pat.bytes, pos);
      EXPECT_TRUE(pf->screen(text))
          << "false negative on planted pattern " << pat.id << " at " << pos
          << ", salt " << salt << " (" << seed_note() << ")";
    }
  }
}

// ---- batch screen == scalar screen ---------------------------------------

TEST(PrefilterScreen, BatchVerdictsMatchScalarScreen) {
  const std::uint64_t seed = case_seed(420);
  const auto set = random_long_set(40, 3, 9, seed);
  const auto pf = core::build_prefilter(set);
  ASSERT_NE(pf, nullptr) << seed_note();

  // Every size class the kernels treat differently: empty, below
  // min_payload, block-boundary straddlers, and full MTU payloads.
  const std::size_t sizes[] = {0,  1,  2,   3,   5,   7,   8,    15,  16,  17,
                               31, 32, 33,  63,  64,  65,  127,  128, 129, 255,
                               256, 600, 1024, 1499, 1500};
  std::vector<util::Bytes> store;
  util::Rng rng(seed ^ 0xBEEF);
  for (std::size_t len : sizes) {
    for (int rep = 0; rep < 4; ++rep) {
      // Mix of far-alphabet text (mostly rejects), near-alphabet text, and
      // planted occurrences (must pass).
      util::Bytes text = testutil::random_text(len, seed + 13 * store.size() + 1,
                                               rep % 2 == 0 ? 8 : 4);
      const auto& pat = set.patterns()[rng.below(set.size())];
      if (rep == 3 && text.size() >= pat.bytes.size()) {
        plant(text, pat.bytes, rng.below(text.size() - pat.bytes.size() + 1));
      }
      store.push_back(std::move(text));
    }
  }
  std::vector<util::ByteView> views(store.begin(), store.end());

  ScanScratch scratch;
  std::vector<std::uint8_t> verdicts(views.size(), 0xFF);
  // Two passes over the same scratch: the second exercises steady-state
  // staging reuse, and both must agree with the scalar screen.
  for (int pass = 0; pass < 2; ++pass) {
    pf->screen_batch(views, verdicts.data(), scratch);
    std::size_t passed = 0;
    for (std::size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(verdicts[i] != 0, pf->screen(views[i]))
          << "batch/scalar divergence at payload " << i << " size " << views[i].size()
          << " pass " << pass << " (" << seed_note() << ")";
      passed += verdicts[i] != 0 ? 1 : 0;
    }
    // The workload must exercise both verdicts to be meaningful.
    EXPECT_GT(passed, 0u) << seed_note();
    EXPECT_LT(passed, views.size()) << seed_note();
  }
}

// ---- serialization -------------------------------------------------------

TEST(PrefilterSerialize, SectionRoundTripsAndChecksCorruption) {
  core::GroupPrefilters filters{};
  filters[static_cast<std::size_t>(pattern::Group::http)] =
      core::build_prefilter(random_long_set(20, 4, 9, case_seed(430)));
  filters[static_cast<std::size_t>(pattern::Group::dns)] =
      core::build_prefilter(random_long_set(10, 3, 6, case_seed(431)));
  ASSERT_NE(filters[1], nullptr);
  ASSERT_NE(filters[2], nullptr);

  const std::uint64_t fp = 0x1234'5678'9ABC'DEF0ull;
  util::Bytes out;
  core::append_prefilter_section(out, filters, fp);
  ASSERT_GT(out.size(), 0u);

  const auto parsed = core::parse_prefilter_section(out, fp);
  for (std::size_t g = 0; g < core::kPrefilterGroupCount; ++g) {
    ASSERT_EQ(parsed[g] == nullptr, filters[g] == nullptr) << "group " << g;
    if (filters[g] == nullptr) continue;
    EXPECT_EQ(parsed[g]->q(), filters[g]->q());
    EXPECT_EQ(parsed[g]->threshold(), filters[g]->threshold());
    EXPECT_EQ(parsed[g]->bits_log2(), filters[g]->bits_log2());
    EXPECT_EQ(parsed[g]->pattern_count(), filters[g]->pattern_count());
    EXPECT_EQ(parsed[g]->gram_count(), filters[g]->gram_count());
    EXPECT_EQ(parsed[g]->words(), filters[g]->words()) << "group " << g;
  }

  EXPECT_THROW(core::parse_prefilter_section(out, fp + 1), std::invalid_argument)
      << "fingerprint mismatch must be rejected";

  // Every truncation point must throw, never crash or mis-parse.
  for (std::size_t cut = 0; cut < out.size(); ++cut) {
    EXPECT_THROW(core::parse_prefilter_section({out.data(), cut}, fp),
                 std::invalid_argument)
        << "truncation at " << cut;
  }
  // Every single-byte corruption must be caught (structure or checksum).
  for (std::size_t i = 0; i < out.size(); ++i) {
    util::Bytes bad = out;
    bad[i] ^= 0x40;
    EXPECT_THROW(core::parse_prefilter_section(bad, fp), std::invalid_argument)
        << "flip at byte " << i;
  }
}

pattern::PatternSet grouped_long_rules(std::uint64_t seed) {
  pattern::PatternSet rules;
  util::Rng rng(seed);
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::dns,
                                   pattern::Group::generic};
  std::size_t n = 0;
  while (rules.size() < 36) {
    const std::size_t len = 5 + rng.below(5);  // 5..9: threshold > 1 everywhere
    util::Bytes b(len);
    for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(4));
    rules.add(std::move(b), rng.chance(0.3), groups[n++ % std::size(groups)]);
  }
  return rules;
}

TEST(PrefilterSerialize, DatabaseRoundTripPreservesSignatures) {
  const auto rules = grouped_long_rules(case_seed(432));
  const auto db = compile(core::Algorithm::aho_corasick, rules);
  const util::Bytes blob = db->save_patterns();
  const auto db2 = Database::from_serialized(blob);
  EXPECT_EQ(db2->fingerprint(), db->fingerprint());
  for (std::size_t g = 0; g < core::kPrefilterGroupCount; ++g) {
    const auto& a = db->prefilters()[g];
    const auto& b = db2->prefilters()[g];
    ASSERT_EQ(a == nullptr, b == nullptr) << "group " << g;
    if (a == nullptr) continue;
    EXPECT_EQ(a->q(), b->q());
    EXPECT_EQ(a->threshold(), b->threshold());
    EXPECT_EQ(a->words(), b->words()) << "group " << g;
  }

  // v1 blobs predate the section: loading rebuilds identical signatures.
  const util::Bytes v1 = pattern::serialize_patterns(rules);
  const auto db1 = Database::from_serialized(v1, core::Algorithm::aho_corasick);
  for (std::size_t g = 0; g < core::kPrefilterGroupCount; ++g) {
    const auto& a = db->prefilters()[g];
    const auto& b = db1->prefilters()[g];
    ASSERT_EQ(a == nullptr, b == nullptr) << "group " << g;
    if (a != nullptr) {
      EXPECT_EQ(a->words(), b->words()) << "group " << g;
    }
  }

  // The v2 section is mandatory: truncating anywhere inside it (including
  // dropping it entirely) must be rejected, as must any byte flip.
  const std::array<std::uint8_t, 6> magic = {'V', 'P', 'M', 'P', 'F', '1'};
  const auto it = std::search(blob.begin(), blob.end(), magic.begin(), magic.end());
  ASSERT_NE(it, blob.end()) << "v2 blob must carry the prefilter section";
  const auto section_start = static_cast<std::size_t>(it - blob.begin());
  for (std::size_t cut = section_start; cut < blob.size(); ++cut) {
    EXPECT_THROW(Database::from_serialized({blob.data(), cut}), std::invalid_argument)
        << "truncation at " << cut;
  }
  for (std::size_t i = section_start; i < blob.size(); ++i) {
    util::Bytes bad = blob;
    bad[i] ^= 0x20;
    EXPECT_THROW(Database::from_serialized(bad), std::invalid_argument)
        << "flip at byte " << i;
  }
}

TEST(PrefilterSerialize, DatabaseMemoryAndGating) {
  const auto rules = grouped_long_rules(case_seed(433));
  const auto db = compile(core::Algorithm::aho_corasick, rules);
  std::size_t signature_bytes = 0;
  for (const auto& pf : db->prefilters()) {
    if (pf != nullptr) signature_bytes += pf->memory_bytes();
  }
  EXPECT_GT(signature_bytes, 0u);
  EXPECT_GE(db->memory_bytes(), signature_bytes);

  // One sub-3-byte generic pattern poisons every group's composed set.
  pattern::PatternSet poisoned = rules;
  poisoned.add("a", false, pattern::Group::generic);
  const auto db_null = compile(core::Algorithm::aho_corasick, poisoned);
  for (const auto& pf : db_null->prefilters()) EXPECT_EQ(pf, nullptr);
}

// ---- engine differential: alerts are mode-independent --------------------

struct Chunk {
  std::uint64_t flow = 0;
  pattern::Group protocol{};
  util::ByteView view;
};

// Per-flow streams over a WIDER alphabet than the rules (so random text
// mostly rejects), with verbatim occurrences planted before chunking (so
// some straddle chunk boundaries and ride the stream carry), sliced into
// churny chunk sizes and interleaved round-robin across flows.
std::vector<Chunk> make_chunks(const pattern::PatternSet& rules, std::uint64_t seed,
                               std::vector<util::Bytes>& streams) {
  const pattern::Group protocols[] = {pattern::Group::http, pattern::Group::dns,
                                      pattern::Group::generic};
  util::Rng rng(seed);
  streams.clear();
  std::vector<std::vector<Chunk>> per_flow;
  for (std::uint64_t f = 0; f < 6; ++f) {
    util::Bytes stream = testutil::random_text(16000, seed + f, 8);
    for (int k = 0; k < 8; ++k) {
      const auto& pat = rules.patterns()[rng.below(rules.size())];
      const std::size_t pos = rng.below(stream.size() - pat.bytes.size());
      std::copy(pat.bytes.begin(), pat.bytes.end(), stream.begin() + pos);
    }
    streams.push_back(std::move(stream));
  }
  const std::size_t cuts[] = {1, 2, 37, 63, 64, 256, 700, 1500};
  for (std::uint64_t f = 0; f < streams.size(); ++f) {
    std::vector<Chunk> chunks;
    std::size_t off = 0;
    while (off < streams[f].size()) {
      const std::size_t want = cuts[rng.below(std::size(cuts))];
      const std::size_t len = std::min(want, streams[f].size() - off);
      chunks.push_back({f, protocols[f % std::size(protocols)],
                        util::ByteView{streams[f].data() + off, len}});
      off += len;
    }
    per_flow.push_back(std::move(chunks));
  }
  std::vector<Chunk> interleaved;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& chunks : per_flow) {
      if (i >= chunks.size()) continue;
      interleaved.push_back(chunks[i]);
      any = true;
    }
    if (!any) break;
  }
  return interleaved;
}

// Runs are compared alert-for-alert, generation included, so every run of
// one comparison shares `db`.
std::vector<ids::Alert> drive_engine(const DatabasePtr& db, core::PrefilterMode mode,
                                     std::size_t batch, const std::vector<Chunk>& chunks,
                                     ids::EngineCounters& counters_out) {
  ids::IdsEngine engine(db);
  engine.set_prefilter_mode(mode);
  std::vector<ids::Alert> alerts;
  ids::AlertBuffer sink(alerts);
  std::size_t staged = 0;
  for (const Chunk& c : chunks) {
    engine.stage(c.flow, c.protocol, c.view, sink);
    if (++staged % batch == 0) engine.flush_batch(sink);
  }
  engine.flush_batch(sink);
  counters_out = engine.counters();
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

TEST(PrefilterEngineDifferential, AlertsIdenticalWithScreenOnAcrossEngines) {
  const auto rules = grouped_long_rules(case_seed(440));
  std::vector<util::Bytes> streams;
  const auto chunks = make_chunks(rules, case_seed(441), streams);

  for (core::Algorithm algo :
       {core::Algorithm::aho_corasick, core::Algorithm::aho_corasick_compact,
        core::Algorithm::vpatch, core::Algorithm::dfc, core::Algorithm::wu_manber}) {
    if (!core::algorithm_available(algo)) continue;
    const DatabasePtr db = compile(algo, rules);
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      ids::EngineCounters off_counters, on_counters;
      const auto off = drive_engine(db, core::PrefilterMode::off, batch, chunks, off_counters);
      const auto on = drive_engine(db, core::PrefilterMode::on, batch, chunks, on_counters);
      ASSERT_GT(off.size(), 0u)
          << "workload must alert (" << core::algorithm_name(algo) << ", "
          << seed_note() << ")";
      ASSERT_EQ(on, off) << "prefilter changed the alert multiset ("
                         << core::algorithm_name(algo) << ", batch " << batch << ", "
                         << seed_note() << ")";
      // The stream accounting is screen-independent...
      EXPECT_EQ(on_counters.chunks, off_counters.chunks);
      EXPECT_EQ(on_counters.bytes_inspected, off_counters.bytes_inspected);
      EXPECT_EQ(on_counters.alerts, off_counters.alerts);
      // ...and the screen must have both rejected and passed something.
      EXPECT_EQ(off_counters.prefilter_pass_payloads, 0u);
      EXPECT_EQ(off_counters.prefilter_reject_payloads, 0u);
      EXPECT_GT(on_counters.prefilter_pass_payloads, 0u);
      EXPECT_GT(on_counters.prefilter_reject_payloads, 0u);
      EXPECT_GT(on_counters.prefilter_reject_bytes, 0u);
    }
  }
}

// The per-chunk inspect() API is a one-chunk stage()/flush_batch(), so the
// single-threaded surface (inspect_pcap, example sensors without --workers)
// gets the same screening — and the same alert multiset — as batched
// staging.
TEST(PrefilterEngineDifferential, InspectPathScreensIdentically) {
  const auto rules = grouped_long_rules(case_seed(444));
  std::vector<util::Bytes> streams;
  const auto chunks = make_chunks(rules, case_seed(445), streams);

  const DatabasePtr db = compile(core::Algorithm::aho_corasick_compact, rules);
  const auto drive_inspect = [&](core::PrefilterMode mode,
                                 ids::EngineCounters& counters_out) {
    ids::IdsEngine engine(db);
    engine.set_prefilter_mode(mode);
    std::vector<ids::Alert> alerts;
    ids::AlertBuffer sink(alerts);
    for (const Chunk& c : chunks) engine.inspect(c.flow, c.protocol, c.view, sink);
    counters_out = engine.counters();
    std::sort(alerts.begin(), alerts.end());
    return alerts;
  };

  ids::EngineCounters off_counters, on_counters, staged_counters;
  const auto off = drive_inspect(core::PrefilterMode::off, off_counters);
  const auto on = drive_inspect(core::PrefilterMode::on, on_counters);
  const auto staged = drive_engine(db, core::PrefilterMode::on, 32, chunks, staged_counters);
  ASSERT_GT(off.size(), 0u) << "workload must alert (" << seed_note() << ")";
  ASSERT_EQ(on, off) << "screened inspect() changed the alert multiset ("
                     << seed_note() << ")";
  ASSERT_EQ(on, staged) << "inspect() and stage()/flush_batch() diverged ("
                        << seed_note() << ")";
  EXPECT_EQ(on_counters.chunks, off_counters.chunks);
  EXPECT_EQ(on_counters.bytes_inspected, off_counters.bytes_inspected);
  EXPECT_EQ(off_counters.prefilter_pass_payloads, 0u);
  EXPECT_EQ(off_counters.prefilter_reject_payloads, 0u);
  EXPECT_GT(on_counters.prefilter_pass_payloads, 0u);
  EXPECT_GT(on_counters.prefilter_reject_payloads, 0u);
}

TEST(PrefilterEngineAuto, BypassesMatchHeavyTrafficWithoutLosingAlerts) {
  // >= min_patterns so `automatic` engages, and every payload contains a
  // pattern so the sampled pass ratio is 1: the screen must stand down after
  // the first sample window instead of taxing hopeless traffic forever.
  const auto rules = random_long_set(10, 8, 8, case_seed(450));
  std::vector<util::Bytes> store;
  std::vector<Chunk> chunks;
  util::Rng rng(case_seed(451));
  for (std::uint64_t i = 0; i < 480; ++i) {
    util::Bytes text = testutil::random_text(1024, case_seed(452) + i, 8);
    const auto& pat = rules.patterns()[rng.below(rules.size())];
    std::copy(pat.bytes.begin(), pat.bytes.end(),
              text.begin() + rng.below(text.size() - pat.bytes.size()));
    store.push_back(std::move(text));
  }
  for (std::uint64_t i = 0; i < store.size(); ++i) {
    chunks.push_back({i, pattern::Group::http, util::ByteView(store[i])});
  }

  ids::EngineCounters off_counters, auto_counters;
  const DatabasePtr db = compile(core::Algorithm::aho_corasick, rules);
  const auto off = drive_engine(db, core::PrefilterMode::off, 32, chunks, off_counters);
  const auto adaptive =
      drive_engine(db, core::PrefilterMode::automatic, 32, chunks, auto_counters);
  ASSERT_GT(off.size(), 0u) << seed_note();
  EXPECT_EQ(adaptive, off) << seed_note();

  const std::uint64_t screened = auto_counters.prefilter_pass_payloads +
                                 auto_counters.prefilter_reject_payloads;
  EXPECT_GE(screened, 64u) << "the sample window must have run (" << seed_note() << ")";
  EXPECT_LT(screened, chunks.size())
      << "pass-ratio bypass never engaged on match-heavy traffic (" << seed_note()
      << ")";
}

TEST(PrefilterEngineAuto, DoesNotEngageBelowPatternFloor) {
  // 4 patterns < min_patterns: `automatic` must leave the screen cold while
  // `on` still engages the (built) signature.
  pattern::PatternSet rules;
  rules.add("abcdefgh", false, pattern::Group::http);
  rules.add("aabbccdd", false, pattern::Group::http);
  rules.add("ddccbbaa", true, pattern::Group::http);
  rules.add("abababab", false, pattern::Group::http);

  std::vector<util::Bytes> store;
  std::vector<Chunk> chunks;
  for (std::uint64_t i = 0; i < 64; ++i) {
    store.push_back(testutil::random_text(512, case_seed(453) + i, 8));
  }
  for (std::uint64_t i = 0; i < store.size(); ++i) {
    chunks.push_back({i, pattern::Group::http, util::ByteView(store[i])});
  }

  ids::EngineCounters auto_counters, on_counters;
  const DatabasePtr db = compile(core::Algorithm::aho_corasick, rules);
  drive_engine(db, core::PrefilterMode::automatic, 32, chunks, auto_counters);
  drive_engine(db, core::PrefilterMode::on, 32, chunks, on_counters);
  EXPECT_EQ(auto_counters.prefilter_pass_payloads +
                auto_counters.prefilter_reject_payloads,
            0u);
  EXPECT_GT(on_counters.prefilter_pass_payloads +
                on_counters.prefilter_reject_payloads,
            0u);
}

// ---- pipeline differential: sharded workers, all modes -------------------

TEST(PrefilterPipelineDifferential, ShardedAlertsIdenticalAcrossModes) {
  pattern::PatternSet rules;
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("/etc/passwd", false, pattern::Group::http);
  rules.add("Content-Length", true, pattern::Group::http);
  rules.add("User-Agent", true, pattern::Group::http);
  rules.add("wp-admin", false, pattern::Group::http);
  rules.add("X-Forwarded-For", true, pattern::Group::http);
  rules.add("ion", false, pattern::Group::generic);
  rules.add("admin", true, pattern::Group::generic);
  rules.add("session", false, pattern::Group::generic);

  net::FlowGenConfig fcfg;
  fcfg.flow_count = 8;
  fcfg.bytes_per_flow = 30000;
  fcfg.reorder_fraction = 0.3;
  fcfg.seed = case_seed(460);
  fcfg.dst_port = 80;
  auto flows = net::generate_flows(fcfg);

  const DatabasePtr db = compile(core::Algorithm::aho_corasick, rules);
  auto run = [&](core::PrefilterMode mode, unsigned workers,
                 pipeline::WorkerStats& totals_out) {
    pipeline::PipelineConfig cfg;
    cfg.prefilter = mode;
    cfg.workers = workers;
    cfg.batch_packets = 32;
    pipeline::PipelineRuntime rt(db, cfg);
    rt.start();
    rt.submit(std::span<const net::Packet>(flows.packets));
    rt.stop();
    std::vector<ids::Alert> alerts = rt.alerts();
    std::sort(alerts.begin(), alerts.end());
    totals_out = rt.stats().totals();
    return alerts;
  };

  pipeline::WorkerStats off_totals;
  const auto expected = run(core::PrefilterMode::off, 1, off_totals);
  ASSERT_GT(expected.size(), 0u) << seed_note();
  EXPECT_EQ(off_totals.prefilter_pass_payloads, 0u);
  EXPECT_EQ(off_totals.prefilter_reject_payloads, 0u);

  for (core::PrefilterMode mode :
       {core::PrefilterMode::on, core::PrefilterMode::automatic}) {
    for (unsigned workers : {1u, 4u}) {
      pipeline::WorkerStats totals;
      const auto actual = run(mode, workers, totals);
      ASSERT_EQ(actual, expected)
          << core::prefilter_mode_name(mode) << " with " << workers << " workers ("
          << seed_note() << ")";
      EXPECT_EQ(totals.bytes_inspected, off_totals.bytes_inspected);
      EXPECT_EQ(totals.alerts, off_totals.alerts);
      if (mode == core::PrefilterMode::on) {
        EXPECT_GT(totals.prefilter_pass_payloads + totals.prefilter_reject_payloads,
                  0u)
            << workers << " workers (" << seed_note() << ")";
      }
    }
  }
}

}  // namespace
}  // namespace vpm
