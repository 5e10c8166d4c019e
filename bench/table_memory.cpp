// Memory & build-cost comparison (supports the paper's §II motivation: "as
// the number of patterns increases, the size of the state automaton
// increases ... and does not fit in the cache", vs the filter engines' few
// KB of cache-resident state).  Reports search-structure footprint, build
// time, and — for the automaton engines — bytes per state, which is where
// the compact interleaved AC layout's compression claim is measured rather
// than asserted: the full matrix pays 256 x 4 B per state, the compact
// arena a few dozen bytes.
//
//   table_memory [--seed=N] [--quick]
#include <cstdio>

#include "ac/ac_compact.hpp"
#include "ac/ac_full.hpp"
#include "common.hpp"
#include "core/prefilter.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto full = s2_full_patterns(opt.seed);

  std::printf("=== Search-structure memory and build time vs ruleset size ===\n");
  const std::vector<int> widths{10, 22, 14, 14, 14, 10};
  print_row({"patterns", "algorithm", "memory-KB", "build-ms", "states", "B/state"},
            widths);

  JsonReport report("table_memory", opt);
  const std::size_t counts[] = {1000, 5000, 20000};
  for (std::size_t n : counts) {
    if (opt.quick && n > 5000) break;
    const auto subset = full.random_subset(n, opt.seed + n);
    for (core::Algorithm algo :
         {core::Algorithm::aho_corasick, core::Algorithm::aho_corasick_compact,
          core::Algorithm::dfc,
          core::Algorithm::spatch, core::Algorithm::vpatch, core::Algorithm::wu_manber}) {
      if (!core::algorithm_available(algo)) continue;
      util::Timer timer;
      const MatcherPtr m = core::make_matcher(algo, subset);
      const double build_ms = timer.millis();
      std::size_t state_count = 0;
      if (const auto* ac = dynamic_cast<const ac::AcFullMatcher*>(m.get())) {
        state_count = ac->state_count();
      } else if (const auto* acc = dynamic_cast<const ac::AcCompactMatcher*>(m.get())) {
        state_count = acc->state_count();
      }
      const std::string states = state_count ? std::to_string(state_count) : "-";
      const std::string bps =
          state_count ? fmt(static_cast<double>(m->memory_bytes()) /
                                static_cast<double>(state_count),
                            1)
                      : "-";
      print_row({std::to_string(subset.size()), std::string(m->name()),
                 std::to_string(m->memory_bytes() >> 10), fmt(build_ms, 1), states, bps},
                widths);
      report.add({{"algorithm", std::string(core::algorithm_name(algo))}},
                 {{"build_ms", build_ms},
                  {"bytes_per_state",
                   state_count ? static_cast<double>(m->memory_bytes()) /
                                     static_cast<double>(state_count)
                               : 0.0}},
                 {{"patterns", subset.size()},
                  {"memory_bytes", m->memory_bytes()},
                  {"states", state_count}});
    }

    // The approximate q-gram prefilter rides in front of whichever exact
    // engine serves the group; its signature is the memory it adds on top.
    // Built over the screenable long patterns (>= 8 B, like bench_prefilter's
    // heavy-group gating — the full subset's 1-2 byte patterns would null the
    // filter); "states" is the distinct-gram count the signature encodes.
    pattern::PatternSet gated;
    for (const auto& p : subset.patterns()) {
      if (p.bytes.size() >= 8) gated.add(p.bytes, p.nocase, pattern::Group::http);
    }
    util::Timer pf_timer;
    if (const auto pf = core::build_prefilter(gated)) {
      const double pf_ms = pf_timer.millis();
      print_row({std::to_string(gated.size()), "q-gram prefilter",
                 std::to_string(pf->memory_bytes() >> 10), fmt(pf_ms, 1),
                 std::to_string(pf->gram_count()),
                 fmt(static_cast<double>(pf->memory_bytes()) /
                         static_cast<double>(pf->gram_count()),
                     1)},
                widths);
      report.add({{"algorithm", "qgram_prefilter"}},
                 {{"build_ms", pf_ms},
                  {"bytes_per_state", static_cast<double>(pf->memory_bytes()) /
                                          static_cast<double>(pf->gram_count())},
                  {"occupancy", pf->occupancy()}},
                 {{"patterns", gated.size()},
                  {"memory_bytes", pf->memory_bytes()},
                  {"states", pf->gram_count()}});
    }
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
