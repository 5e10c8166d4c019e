// Aho-Corasick goto/fail trie construction.
//
// Shared by both automaton variants (full-matrix and compact).  Built over
// case-folded bytes, as Snort's acsm does: the automaton alphabet is
// lowercased, nocase patterns match directly on an automaton hit, and
// case-sensitive patterns are verified against the original input bytes at
// the hit position.  This gives every engine in the library identical match
// semantics for mixed-case pattern sets.
#pragma once

#include <cstdint>
#include <vector>

#include "pattern/pattern_set.hpp"

namespace vpm::ac {

inline constexpr std::uint32_t kNoState = 0xFFFFFFFFu;

struct TrieNode {
  // Child per folded byte value; kNoState when absent. Kept sparse as a
  // sorted (byte, state) list to bound construction memory.
  std::vector<std::pair<std::uint8_t, std::uint32_t>> children;
  std::uint32_t fail = 0;
  // Pattern ids whose folded form ends exactly at this node.
  std::vector<std::uint32_t> outputs;
  // Nearest state reachable via fail links that has outputs (kNoState when
  // none) — the classic output-link chain.
  std::uint32_t report_link = kNoState;
  std::uint8_t depth_byte = 0;  // folded byte on the edge from the parent
};

class Trie {
 public:
  // Builds goto/fail/report links for all patterns in the set.
  explicit Trie(const pattern::PatternSet& set);

  const std::vector<TrieNode>& nodes() const { return nodes_; }
  std::size_t state_count() const { return nodes_.size(); }

  std::uint32_t child(std::uint32_t state, std::uint8_t folded) const;

  // goto with fail fallback resolved (the DFA transition).
  std::uint32_t next_state(std::uint32_t state, std::uint8_t folded) const;

 private:
  std::vector<TrieNode> nodes_;
};

}  // namespace vpm::ac
