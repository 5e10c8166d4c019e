// Engine factory: the five evaluated algorithms (paper §V) plus the extra
// baselines, behind one constructor for benches, examples and tests.
//
// NOTE — compile/runtime split: new code should prefer the Database/Scanner
// API in core/database.hpp (`vpm::compile(algorithm, set)` returns an
// immutable shared artifact that OWNS its pattern copy; `vpm::Scanner` is
// the per-thread session).  make_matcher below remains as the low-level
// building block the Database wraps — DEPRECATED for direct application
// use because of its lifetime contract (the caller's PatternSet must
// outlive the matcher).  See README "API: compile vs. runtime" for the
// migration table.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/vpatch.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::core {

// Explicit values: Database::save_patterns writes the enumerator as the
// serialized algorithm hint, so a value is never reused.  Retired: 2 (sparse
// AC), 8 and 9 (V-PATCH forced to W=8/W=16; VpatchConfig::isa covers them).
enum class Algorithm : std::uint8_t {
  naive = 0,
  aho_corasick = 1,          // full-matrix (the paper's AC baseline)
  aho_corasick_compact = 3,  // compressed interleaved layout + SIMD lane batch kernel
  dfc = 4,                   // Choi et al. baseline
  vector_dfc = 5,            // direct vectorization of DFC
  spatch = 6,                // scalar restructured design
  vpatch = 7,                // vectorized, widest available kernel
  wu_manber = 10,
};

std::string_view algorithm_name(Algorithm a);
std::optional<Algorithm> algorithm_from_name(std::string_view name);
// All algorithms buildable on this CPU (vector variants only when supported).
std::vector<Algorithm> available_algorithms();
bool algorithm_available(Algorithm a);

// Builds a matcher over `set`. The PatternSet must outlive the matcher —
// this lifetime footgun is why application code should use vpm::compile()
// (core/database.hpp) instead; that wrapper owns a copy of the patterns.
// Throws std::runtime_error for vector engines on unsupported CPUs.
MatcherPtr make_matcher(Algorithm a, const pattern::PatternSet& set);

}  // namespace vpm::core
