// Mini-NIDS layer tests: streaming scan with carry, rule grouping, and the
// end-to-end engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "ids/rule_group.hpp"

namespace vpm::ids {
namespace {

// Alerts as stream matches (master id, absolute offset), sorted — comparable
// with Matcher::find_matches over the whole stream.
std::vector<Match> matches_of(const std::vector<Alert>& alerts) {
  std::vector<Match> out;
  for (const Alert& a : alerts) out.push_back({a.pattern_id, a.stream_offset});
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Streaming scan (per-flow carry) -----------------------------------------

TEST(IdsEngineStream, WholeBufferEqualsSingleChunk) {
  const auto set = testutil::boundary_set();
  const auto m = core::make_matcher(core::Algorithm::spatch, set);
  const auto text = testutil::random_text(5000, 1);

  IdsEngine engine(compile(core::Algorithm::spatch, set));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::generic, text, alerts);
  EXPECT_EQ(matches_of(alerts), m->find_matches(text));
}

TEST(IdsEngineStream, ChunkedEqualsWholeBuffer) {
  const auto set = testutil::random_set(60, 8, 2);
  const auto m = core::make_matcher(core::Algorithm::vpatch, set);
  const auto text = testutil::random_text(20000, 3);
  const auto expected = m->find_matches(text);

  const DatabasePtr db = compile(core::Algorithm::vpatch, set);
  for (std::size_t chunk_len : {1u, 7u, 100u, 1024u, 9999u}) {
    IdsEngine engine(db);
    std::vector<Alert> alerts;
    for (std::size_t off = 0; off < text.size(); off += chunk_len) {
      const std::size_t len = std::min(chunk_len, text.size() - off);
      engine.inspect(1, pattern::Group::generic, {text.data() + off, len}, alerts);
    }
    EXPECT_EQ(matches_of(alerts), expected) << "chunk_len=" << chunk_len;
  }
}

TEST(IdsEngineStream, MatchStraddlingChunkBoundaryFoundOnce) {
  pattern::PatternSet set;
  set.add("straddle");
  IdsEngine engine(compile(core::Algorithm::spatch, set));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::generic, util::as_view("xxxxstra"), alerts);
  engine.inspect(1, pattern::Group::generic, util::as_view("ddlexxxx"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stream_offset, 4u);
}

TEST(IdsEngineStream, MatchInsideCarryNotDuplicated) {
  pattern::PatternSet set;
  set.add("dup");
  set.add("abcdefghij");  // long max-len -> deep carry
  IdsEngine engine(compile(core::Algorithm::spatch, set));
  std::vector<Alert> alerts;
  // Match fully in the first chunk; the carry re-scan must not re-report it.
  engine.inspect(1, pattern::Group::generic, util::as_view("xxdupxx"), alerts);
  engine.inspect(1, pattern::Group::generic, util::as_view("yyyyyyy"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stream_offset, 2u);
}

TEST(IdsEngineStream, OffsetsAreAbsolute) {
  pattern::PatternSet set;
  set.add("mark");
  IdsEngine engine(compile(core::Algorithm::spatch, set));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::generic, util::as_view("0123456789"), alerts);
  engine.inspect(1, pattern::Group::generic, util::as_view("0123mark89"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].stream_offset, 14u);
  EXPECT_EQ(engine.counters().bytes_inspected, 20u);
}

// ---- GroupedRules -------------------------------------------------------------

pattern::PatternSet grouped_set() {
  pattern::PatternSet set;
  set.add("GET /evil", false, pattern::Group::http);
  set.add("generic-attack", false, pattern::Group::generic);
  set.add("EHLO spam", false, pattern::Group::smtp);
  set.add("RETR secret", false, pattern::Group::ftp);
  return set;
}

TEST(GroupedRules, HttpGroupSeesHttpAndGeneric) {
  const auto master = grouped_set();
  const GroupedRules rules(compile(core::Algorithm::spatch, master));
  const auto& http = rules.patterns_for(pattern::Group::http);
  EXPECT_EQ(http.size(), 2u);
  EXPECT_TRUE(http.contains(util::as_view("GET /evil"), false));
  EXPECT_TRUE(http.contains(util::as_view("generic-attack"), false));
  EXPECT_FALSE(http.contains(util::as_view("EHLO spam"), false));
}

TEST(GroupedRules, GenericGroupSeesOnlyGeneric) {
  const auto master = grouped_set();
  const GroupedRules rules(compile(core::Algorithm::spatch, master));
  EXPECT_EQ(rules.patterns_for(pattern::Group::generic).size(), 1u);
}

TEST(GroupedRules, MasterIdMappingRoundTrips) {
  const auto master = grouped_set();
  const GroupedRules rules(compile(core::Algorithm::spatch, master));
  const auto& smtp = rules.patterns_for(pattern::Group::smtp);
  for (std::uint32_t local = 0; local < smtp.size(); ++local) {
    const auto master_id = rules.master_id(pattern::Group::smtp, local);
    EXPECT_EQ(master[master_id].bytes, smtp[local].bytes);
  }
}

TEST(GroupedRules, HttpMatcherIgnoresSmtpPattern) {
  const auto master = grouped_set();
  const GroupedRules rules(compile(core::Algorithm::spatch, master));
  const auto& m = rules.matcher_for(pattern::Group::http);
  EXPECT_EQ(m.count_matches(util::as_view("EHLO spam")), 0u);
  EXPECT_EQ(m.count_matches(util::as_view("GET /evil generic-attack")), 2u);
}

// ---- IdsEngine --------------------------------------------------------------------

TEST(IdsEngine, ProducesAlertsWithMasterIds) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("zz GET /evil zz"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
  EXPECT_EQ(alerts[0].pattern_id, 0u);  // master id of "GET /evil"
  EXPECT_EQ(alerts[0].stream_offset, 3u);
  EXPECT_EQ(alerts[0].group, pattern::Group::http);
}

TEST(IdsEngine, RoutesByProtocol) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  // SMTP pattern inside an HTTP flow: not matched (different group).
  engine.inspect(1, pattern::Group::http, util::as_view("EHLO spam"), alerts);
  EXPECT_TRUE(alerts.empty());
  engine.inspect(2, pattern::Group::smtp, util::as_view("EHLO spam"), alerts);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(IdsEngine, FlowsKeepIndependentStreams) {
  pattern::PatternSet master;
  master.add("crossflow", false, pattern::Group::http);
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("xxcross"), alerts);
  engine.inspect(2, pattern::Group::http, util::as_view("flowxx"), alerts);
  EXPECT_TRUE(alerts.empty()) << "halves in different flows must not join";
  engine.inspect(1, pattern::Group::http, util::as_view("flowxx"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
}

TEST(IdsEngine, CloseFlowDropsCarry) {
  pattern::PatternSet master;
  master.add("severed", false, pattern::Group::http);
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(5, pattern::Group::http, util::as_view("xxseve"), alerts);
  engine.close_flow(5);
  engine.inspect(5, pattern::Group::http, util::as_view("redxx"), alerts);
  EXPECT_TRUE(alerts.empty());
}

TEST(IdsEngine, CountersAccumulate) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(1, pattern::Group::http, util::as_view("GET /evil"), alerts);
  engine.inspect(1, pattern::Group::http, util::as_view("generic-attack"), alerts);
  engine.inspect(9, pattern::Group::ftp, util::as_view("RETR secret"), alerts);
  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.chunks, 3u);
  EXPECT_EQ(c.flows, 2u);
  EXPECT_EQ(c.alerts, 3u);
  EXPECT_EQ(c.bytes_inspected, 9u + 14u + 11u);
}

TEST(IdsEngine, FormatAlertIsReadable) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  engine.inspect(3, pattern::Group::http, util::as_view("GET /evil"), alerts);
  ASSERT_EQ(alerts.size(), 1u);
  const std::string line = format_alert(alerts[0], master);
  EXPECT_NE(line.find("flow=3"), std::string::npos);
  EXPECT_NE(line.find("group=http"), std::string::npos);
  EXPECT_NE(line.find("GET /evil"), std::string::npos);
}

}  // namespace
}  // namespace vpm::ids
