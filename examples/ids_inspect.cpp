// Mini-NIDS demo: the scenario from the paper's introduction — thousands of
// Snort-style rules, protocol rule groups, reassembled flows inspected
// chunk-by-chunk, alerts on matches.
//
//   ./ids_inspect [ruleset.rules]
//
// With no argument, a synthetic S1-like ruleset (~2.5 K patterns) and an
// ISCX-like HTTP traffic mix with injected attacks are generated.
#include <cstdio>
#include <exception>
#include <string>

#include "ids/engine.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/snort_rules.hpp"
#include "traffic/match_injector.hpp"
#include "traffic/trace.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace vpm;

  // 1. Rules: parse a real Snort rules file if given, else generate.
  pattern::PatternSet rules;
  if (argc > 1) {
    try {
      rules = pattern::patterns_from_rules(util::to_string(util::read_file(argv[1])));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ids_inspect: %s\n", e.what());
      return 1;
    }
    std::printf("loaded %zu patterns from %s\n", rules.size(), argv[1]);
  } else {
    rules = pattern::generate_ruleset(pattern::s1_config(42));
    std::printf("generated %zu synthetic patterns (S1-like)\n", rules.size());
  }
  const auto stats = rules.length_stats();
  std::printf("  short family (1-3B): %zu, long family (>=4B): %zu, 1-4B fraction: %.0f%%\n",
              stats.short_family, stats.long_family, stats.frac_len_1_to_4 * 100);

  // 2. Traffic: 8 flows of HTTP with injected attack patterns.
  constexpr std::size_t kFlowBytes = 2 << 20;
  constexpr int kFlows = 8;
  std::vector<util::Bytes> flows;
  for (int f = 0; f < kFlows; ++f) {
    auto stream = traffic::generate_trace(traffic::TraceKind::iscx_day2, kFlowBytes, 100 + f);
    traffic::inject_matches(stream, rules.web_patterns(), 0.0005, 200 + f);
    flows.push_back(std::move(stream));
  }

  // 3. Inspect: chunked feed through the engine (HTTP protocol group).
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  std::vector<ids::Alert> alerts;
  util::Rng rng(7);
  util::Timer timer;
  for (int f = 0; f < kFlows; ++f) {
    std::size_t off = 0;
    while (off < flows[f].size()) {
      const auto len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.between(512, 9000)), flows[f].size() - off);
      engine.inspect(static_cast<std::uint64_t>(f), pattern::Group::http,
                     {flows[f].data() + off, len}, alerts);
      off += len;
    }
    engine.close_flow(static_cast<std::uint64_t>(f));
  }
  const double secs = timer.seconds();

  // 4. Report.
  const auto& c = engine.counters();
  std::printf("\ninspected %llu bytes in %llu chunks across %llu flows in %.3f s (%.2f Gbps)\n",
              static_cast<unsigned long long>(c.bytes_inspected),
              static_cast<unsigned long long>(c.chunks),
              static_cast<unsigned long long>(c.flows), secs,
              util::gbps(c.bytes_inspected, secs));
  std::printf("%llu alerts; first 10:\n", static_cast<unsigned long long>(c.alerts));
  for (std::size_t i = 0; i < alerts.size() && i < 10; ++i) {
    std::printf("  %s\n", format_alert(alerts[i], rules).c_str());
  }
  return 0;
}
