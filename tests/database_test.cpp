// The compile/runtime API split: vpm::Database owns its pattern copy (the
// source PatternSet may die the moment compile() returns — the lifetime test
// below runs under ASan in CI), vpm::Scanner is the per-thread session, and
// the v2 serialized form round-trips the fingerprint + algorithm hint.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "core/database.hpp"
#include "helpers.hpp"
#include "pattern/serialize.hpp"

namespace vpm {
namespace {

using core::Algorithm;

pattern::PatternSet small_set() {
  pattern::PatternSet set;
  set.add("he");
  set.add("she", true);
  set.add("/etc/passwd");
  set.add("HTTP/1.1", true, pattern::Group::http);
  return set;
}

// The lifetime contract the redesign exists for: the Database must scan
// correctly after the set it was compiled from is gone.  Heap-allocating the
// source set and freeing it before the scan makes a retained reference an
// ASan use-after-free, not just flaky reads.
TEST(Database, CompiledDatabaseOutlivesSourceSet) {
  for (const Algorithm algo : core::available_algorithms()) {
    DatabasePtr db;
    {
      auto doomed = std::make_unique<pattern::PatternSet>(testutil::boundary_set());
      db = compile(algo, *doomed);
    }  // source set destroyed here
    const auto survivors = testutil::boundary_set();  // oracle needs live patterns
    testutil::expect_matches_naive(db->engine(), survivors,
                                   util::as_view("xxabcdexx GET http/1.1 a"),
                                   std::string("post-free [") +
                                       std::string(core::algorithm_name(algo)) + "]");
    EXPECT_EQ(db->pattern_count(), survivors.size());
    EXPECT_EQ(db->algorithm(), algo);
  }
}

TEST(Database, ScannerEqualsDirectEngineAndIsPerThread) {
  const auto set = testutil::random_set(200, 8, testutil::case_seed(900));
  const auto text = testutil::random_text(64 * 1024, testutil::case_seed(901));
  const DatabasePtr db = compile(Algorithm::vpatch, set);

  Scanner scanner(db);
  testutil::expect_matches_naive(db->engine(), set, text, "scanner-db");
  EXPECT_EQ(scanner.find_matches(text), db->engine().find_matches(text));

  // One Database, many concurrent Scanner sessions: identical results.
  const auto expected = scanner.find_matches(text);
  std::vector<std::vector<Match>> results(4);
  {
    std::vector<std::thread> threads;
    for (auto& out : results) {
      threads.emplace_back([&db, &text, &out] {
        Scanner s(db);
        out = s.find_matches(text);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST(Database, ScannerBatchEqualsPerPayloadScan) {
  const auto set = testutil::random_set(100, 6, testutil::case_seed(902));
  const DatabasePtr db = compile(Algorithm::vpatch, set);
  Scanner scanner(db);

  std::vector<util::Bytes> payloads;
  for (std::uint64_t i = 0; i < 16; ++i) {
    payloads.push_back(testutil::random_text(200 + 37 * i, testutil::case_seed(903 + i)));
  }
  std::vector<util::ByteView> views(payloads.begin(), payloads.end());

  struct Collect final : BatchSink {
    std::vector<std::vector<Match>> per_packet;
    void on_match(std::uint32_t packet, const Match& m) override {
      per_packet.resize(std::max<std::size_t>(per_packet.size(), packet + 1));
      per_packet[packet].push_back(m);
    }
  } sink;
  sink.per_packet.resize(views.size());
  scanner.scan_batch(views, sink);

  for (std::size_t i = 0; i < views.size(); ++i) {
    std::sort(sink.per_packet[i].begin(), sink.per_packet[i].end());
    EXPECT_EQ(sink.per_packet[i], scanner.find_matches(views[i])) << "payload " << i;
  }
}

TEST(Database, GenerationsAreUniqueAndMonotonic) {
  const auto set = small_set();
  const DatabasePtr a = compile(Algorithm::aho_corasick, set);
  const DatabasePtr b = compile(Algorithm::aho_corasick, set);
  EXPECT_LT(a->generation(), b->generation());
  // Same content: same fingerprint, regardless of generation or algorithm.
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  const DatabasePtr c = compile(Algorithm::dfc, set);
  EXPECT_EQ(a->fingerprint(), c->fingerprint());

  pattern::PatternSet other = small_set();
  other.add("one more pattern");
  const DatabasePtr d = compile(Algorithm::aho_corasick, other);
  EXPECT_NE(a->fingerprint(), d->fingerprint());
}

TEST(Database, MemoryBytesCoversEngineAndPatterns) {
  const auto set = small_set();
  const DatabasePtr db = compile(Algorithm::aho_corasick, set);
  EXPECT_GT(db->memory_bytes(), db->engine().memory_bytes());
}

TEST(Database, SaveLoadRoundTripsFingerprintAndAlgorithm) {
  const auto set = testutil::random_set(64, 7, testutil::case_seed(905));
  const auto text = testutil::random_text(8 * 1024, testutil::case_seed(906));
  const DatabasePtr db = compile(Algorithm::spatch, set);

  const util::Bytes blob = db->save_patterns();
  const DatabasePtr loaded = Database::from_serialized(blob);
  EXPECT_EQ(loaded->algorithm(), Algorithm::spatch);
  EXPECT_EQ(loaded->fingerprint(), db->fingerprint());
  EXPECT_GT(loaded->generation(), db->generation());  // a new compile
  EXPECT_EQ(loaded->pattern_count(), db->pattern_count());
  EXPECT_EQ(loaded->engine().find_matches(text), db->engine().find_matches(text));

  // Explicit algorithm override.
  const DatabasePtr overridden = Database::from_serialized(blob, Algorithm::wu_manber);
  EXPECT_EQ(overridden->algorithm(), Algorithm::wu_manber);
  EXPECT_EQ(overridden->engine().find_matches(text), db->engine().find_matches(text));
}

TEST(Database, FromSerializedV1NeedsExplicitAlgorithm) {
  const auto set = small_set();
  const util::Bytes v1 = pattern::serialize_patterns(set);  // header-less legacy blob
  EXPECT_THROW(Database::from_serialized(v1), std::invalid_argument);
  const DatabasePtr db = Database::from_serialized(v1, Algorithm::aho_corasick);
  EXPECT_EQ(db->pattern_count(), set.size());
  EXPECT_EQ(db->fingerprint(), Database::fingerprint_of(set));
}

TEST(Database, FromSerializedRejectsRetiredAlgorithmHint) {
  // Enumerator values 2, 8 and 9 named engines that no longer exist; a blob
  // carrying one must not load as whichever engine holds a nearby value.
  util::Bytes blob = compile(Algorithm::naive, small_set())->save_patterns();
  for (const int retired : {2, 8, 9}) {
    blob[12] = static_cast<std::uint8_t>(retired);  // v2: magic (8) | version u32 | hint u8
    try {
      (void)Database::from_serialized(blob);
      ADD_FAILURE() << "hint " << retired << " loaded";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("no usable algorithm hint"), std::string::npos)
          << "hint " << retired << ": " << e.what();
    }
  }
}

TEST(Database, FromSerializedRejectsCorruptPayload) {
  const DatabasePtr db = compile(Algorithm::naive, small_set());
  util::Bytes blob = db->save_patterns();

  // Flip one pattern byte: content no longer matches the stored fingerprint.
  blob[blob.size() - 1] ^= 0x01;
  EXPECT_THROW(Database::from_serialized(blob), std::invalid_argument);

  // Zeroing the fingerprint field must not disable the integrity check: a
  // v2 blob without a matching fingerprint is rejected outright.
  util::Bytes zeroed = db->save_patterns();
  for (std::size_t i = 16; i < 24; ++i) zeroed[i] = 0;
  EXPECT_THROW(Database::from_serialized(zeroed), std::invalid_argument);

  // Truncation at EVERY prefix length must throw, never crash or misparse
  // (the v2 header is 28 bytes; cuts inside header, counts, and pattern
  // records all land here).
  const util::Bytes good = db->save_patterns();
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_THROW(Database::from_serialized(util::ByteView(good.data(), cut)),
                 std::invalid_argument)
        << "cut=" << cut;
  }

  // Bad magic / unsupported version.
  util::Bytes bad_magic = good;
  bad_magic[5] = '9';
  EXPECT_THROW(Database::from_serialized(bad_magic), std::invalid_argument);
  util::Bytes bad_version = good;
  bad_version[8] = 99;
  EXPECT_THROW(Database::from_serialized(bad_version), std::invalid_argument);
}

TEST(Scanner, RebindMovesSessionToNewDatabase) {
  pattern::PatternSet first;
  first.add("alpha");
  pattern::PatternSet second;
  second.add("beta");

  Scanner scanner(compile(Algorithm::vpatch, first));
  const auto text = util::as_view("alpha beta alpha");
  EXPECT_EQ(scanner.count_matches(text), 2u);

  scanner.rebind(compile(Algorithm::vpatch, second));
  EXPECT_EQ(scanner.count_matches(text), 1u);
  EXPECT_THROW(scanner.rebind(nullptr), std::invalid_argument);
}

TEST(Scanner, NullDatabaseRejected) {
  EXPECT_THROW(Scanner{nullptr}, std::invalid_argument);
}

}  // namespace
}  // namespace vpm
