// Per-flow stream buffer for the staged scan over a flow's reassembled bytes.
//
// NIDS payloads arrive in chunks; a pattern may straddle a chunk boundary.
// StreamScanner keeps the last (max_pattern_len - 1) bytes of the previous
// data as carry and hands out carry+chunk as the view to scan, with the
// offsets the engine needs to report each match exactly once at its
// absolute stream position: a match that ends inside the carry region was
// already reported by the previous chunk's scan and is suppressed.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace vpm::ids {

class StreamScanner {
 public:
  // `max_pattern_len` bounds the carry.
  explicit StreamScanner(std::size_t max_pattern_len);

  // Staged protocol: prepare() assembles carry+chunk into the flow buffer
  // and returns the view to scan (stable until commit()); the caller scans
  // it — typically many flows together through Matcher::scan_batch —
  // suppressing matches that end inside staged_carry() and rebasing
  // surviving positions by staged_base(); commit() consumes the chunk and
  // retains the next carry.  At most one chunk may be staged at a time.
  util::ByteView prepare(util::ByteView chunk);
  void commit();
  bool staged() const { return staged_; }
  std::size_t staged_carry() const { return carry_at_stage_; }
  std::uint64_t staged_base() const { return consumed_ - carry_at_stage_; }

 private:
  std::size_t carry_capacity_;
  util::Bytes buffer_;  // carry + current chunk
  std::size_t carry_len_ = 0;
  std::uint64_t consumed_ = 0;
  std::size_t carry_at_stage_ = 0;  // carry length captured by prepare()
  std::size_t staged_chunk_len_ = 0;
  bool staged_ = false;
};

}  // namespace vpm::ids
