// Approximate per-rule-group payload prefilter (the paper's thesis applied
// one level up: a cheap cache-resident screen in front of the exact
// engines).
//
// At Database compile time each protocol group gets a q-gram blocked-Bloom
// signature over its pattern bytes (q = 3 or 4, case-folded).  At scan time
// a whole payload is screened in one vectorized pass: it reaches the exact
// engine only if it contains a run of >= threshold consecutive positions
// whose q-grams all hit the signature — where threshold =
// min(min_pattern_len - q + 1, 4), so any payload containing a pattern
// occurrence always passes (ZERO false negatives; rejection is exact,
// passing is approximate with a measured false-positive rate).  At low
// match fractions most payloads are rejected after the screen alone, and
// the per-group signature (a few hundred KB even for Snort-scale groups)
// stays L2-resident across the batch.
//
// Exactness is enforced by a differential suite (prefilter-on alert
// multiset == prefilter-off across engines, batch sizes, and worker
// counts), not argued; see tests/prefilter_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"

namespace vpm::core {

// Engine-level switch (IdsEngine::set_prefilter_mode / PipelineConfig /
// pcap_sensor --prefilter=):
//   off        never screen
//   on         screen every group that has a built signature
//   automatic  screen only groups whose statistics make screening advisable
//              (enough patterns to amortize the fold+probe pass), and
//              adaptively bypass a group whose observed pass ratio says the
//              screen is not rejecting enough to pay for itself (match-heavy
//              traffic or a weak threshold-1 signature).
enum class PrefilterMode : std::uint8_t { off, on, automatic };

std::string_view prefilter_mode_name(PrefilterMode mode);
// Accepts "off" / "on" / "auto".
std::optional<PrefilterMode> prefilter_mode_from_name(std::string_view name);

struct PrefilterConfig {
  unsigned q = 0;            // 3 or 4; 0 = auto (4 when min pattern len >= 4)
  unsigned bits_log2 = 0;    // signature size; 0 = auto-sized from gram count
  unsigned max_threshold = 4;     // cap on the consecutive-hit run requirement
  unsigned max_bits_log2 = 24;    // auto-size ceiling (16 MiB of bits = 2 MiB)
  std::size_t min_patterns = 8;   // advised() gate for PrefilterMode::automatic
};

// Immutable built signature; shared (like GroupedRules) across engines and
// threads — screening state lives in caller-owned ScanScratch.
class Prefilter {
 public:
  // Built by build_prefilter / parse_prefilter_section only.
  struct Parts {
    std::uint32_t q = 0;
    std::uint32_t threshold = 0;
    std::uint32_t bits_log2 = 0;
    std::uint32_t pattern_count = 0;
    std::uint32_t gram_count = 0;
    std::vector<std::uint32_t> words;
    std::size_t min_patterns = 0;
  };
  explicit Prefilter(Parts parts);

  // Scalar whole-payload screen (folds on the fly; allocation-free).
  // Payloads shorter than min_payload() cannot contain any pattern: exact
  // reject.
  bool screen(util::ByteView payload) const;

  // Vectorized batch screen: stages case-folded copies of all payloads into
  // `scratch` (grow-to-high-water; zero steady-state allocations) and writes
  // verdicts[i] = 1 (might match — scan it) / 0 (cannot match — skip).
  // Verdicts are identical to screen() payload-by-payload on every ISA.
  void screen_batch(std::span<const util::ByteView> payloads, std::uint8_t* verdicts,
                    ScanScratch& scratch) const;

  std::uint32_t q() const { return q_; }
  std::uint32_t threshold() const { return threshold_; }
  std::uint32_t bits_log2() const { return bits_log2_; }
  std::size_t pattern_count() const { return pattern_count_; }
  std::size_t gram_count() const { return gram_count_; }
  // Shortest payload that could possibly contain a pattern (threshold
  // consecutive windows of q bytes).
  std::size_t min_payload() const { return q_ + threshold_ - 1; }
  std::size_t memory_bytes() const { return words_.size() * sizeof(std::uint32_t); }
  // Fraction of signature bits set (drives the expected false-positive rate).
  double occupancy() const;
  // Whether PrefilterMode::automatic should engage this signature: enough
  // patterns that screening beats scanning outright.
  bool advised() const { return pattern_count_ >= min_patterns_; }
  const std::vector<std::uint32_t>& words() const { return words_; }

 private:
  std::vector<std::uint32_t> words_;
  std::uint32_t q_;
  std::uint32_t threshold_;
  std::uint32_t bits_log2_;
  std::uint32_t pattern_count_;
  std::uint32_t gram_count_;
  std::size_t min_patterns_;
  std::uint64_t scratch_owner_id_;
};

using PrefilterPtr = std::shared_ptr<const Prefilter>;

inline constexpr std::size_t kPrefilterGroupCount =
    static_cast<std::size_t>(pattern::Group::count);
// One signature slot per protocol group (null = group has no usable
// signature: empty, or a pattern shorter than any workable q).
using GroupPrefilters = std::array<PrefilterPtr, kPrefilterGroupCount>;

// Builds the signature over `set` (the group's own + generic patterns, as
// GroupedRules composes them).  Returns null when no exact signature exists:
// the set is empty or its shortest pattern is under 3 bytes (every 1-2 byte
// pattern would force the screen to pass everything).
PrefilterPtr build_prefilter(const pattern::PatternSet& set,
                             const PrefilterConfig& cfg = {});

// v2 pattern-database section carrying the per-group signatures, appended by
// Database::save_patterns after the pattern records:
//   magic "VPMPF1\0\0" | version u32 (= 1) | fingerprint u64 | group count
//   u32 | per group: built u8, and when built: q u8 | threshold u8 |
//   bits_log2 u8 | reserved u8 | pattern_count u32 | gram_count u32 |
//   word_count u32 | words u32[word_count] | trailing fnv1a64 checksum over
//   every preceding section byte.
// parse validates structure, fingerprint, and checksum; any truncation,
// field corruption, or mismatch throws std::invalid_argument.
void append_prefilter_section(util::Bytes& out, const GroupPrefilters& filters,
                              std::uint64_t fingerprint);
GroupPrefilters parse_prefilter_section(util::ByteView section,
                                        std::uint64_t expected_fingerprint,
                                        const PrefilterConfig& cfg = {});

}  // namespace vpm::core
