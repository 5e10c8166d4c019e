#include "core/matcher_factory.hpp"

#include "ac/ac_compact.hpp"
#include "ac/ac_full.hpp"
#include "core/naive.hpp"
#include "core/spatch.hpp"
#include "dfc/dfc.hpp"
#include "dfc/vector_dfc.hpp"
#include "simd/cpu_features.hpp"
#include "wm/wu_manber.hpp"

namespace vpm::core {

namespace {
constexpr Algorithm kAlgorithms[] = {
    Algorithm::naive,  Algorithm::aho_corasick, Algorithm::aho_corasick_compact,
    Algorithm::dfc,    Algorithm::vector_dfc,   Algorithm::spatch,
    Algorithm::vpatch, Algorithm::wu_manber};
}  // namespace

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::naive: return "naive";
    case Algorithm::aho_corasick: return "aho-corasick";
    case Algorithm::aho_corasick_compact: return "aho-corasick-compact";
    case Algorithm::dfc: return "dfc";
    case Algorithm::vector_dfc: return "vector-dfc";
    case Algorithm::spatch: return "s-patch";
    case Algorithm::vpatch: return "v-patch";
    case Algorithm::wu_manber: return "wu-manber";
  }
  return "?";
}

std::optional<Algorithm> algorithm_from_name(std::string_view name) {
  for (Algorithm a : kAlgorithms) {
    if (algorithm_name(a) == name) return a;
  }
  return std::nullopt;
}

bool algorithm_available(Algorithm a) {
  return a != Algorithm::vector_dfc || simd::cpu().has_avx2_kernel();
}

std::vector<Algorithm> available_algorithms() {
  std::vector<Algorithm> out;
  for (Algorithm a : kAlgorithms) {
    if (algorithm_available(a)) out.push_back(a);
  }
  return out;
}

MatcherPtr make_matcher(Algorithm a, const pattern::PatternSet& set) {
  switch (a) {
    case Algorithm::naive:
      return std::make_unique<NaiveMatcher>(set);
    case Algorithm::aho_corasick:
      return std::make_unique<ac::AcFullMatcher>(set);
    case Algorithm::aho_corasick_compact:
      // Always available: the scalar compact scan needs no vector ISA; the
      // lane-parallel scan_batch kernel dispatches through simd::cpu().
      return std::make_unique<ac::AcCompactMatcher>(set);
    case Algorithm::dfc:
      return std::make_unique<dfc::DfcMatcher>(set);
    case Algorithm::vector_dfc:
      return std::make_unique<dfc::VectorDfcMatcher>(set);
    case Algorithm::spatch:
      return std::make_unique<SpatchMatcher>(set);
    case Algorithm::vpatch:
      return std::make_unique<VpatchMatcher>(set);
    case Algorithm::wu_manber:
      return std::make_unique<wm::WuManberMatcher>(set);
  }
  throw std::runtime_error("unknown algorithm");
}

}  // namespace vpm::core
