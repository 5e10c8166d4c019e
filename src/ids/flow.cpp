#include "ids/flow.hpp"

#include <algorithm>

namespace vpm::ids {

StreamScanner::StreamScanner(std::size_t max_pattern_len)
    : carry_capacity_(max_pattern_len > 0 ? max_pattern_len - 1 : 0) {}

util::ByteView StreamScanner::prepare(util::ByteView chunk) {
  // Assemble carry + chunk; the view stays valid until commit() (the buffer
  // is not touched in between).
  buffer_.resize(carry_len_);
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  carry_at_stage_ = carry_len_;
  staged_chunk_len_ = chunk.size();
  staged_ = true;
  return buffer_;
}

void StreamScanner::commit() {
  consumed_ += staged_chunk_len_;
  // Retain the tail as the next carry.
  carry_len_ = std::min(carry_capacity_, buffer_.size());
  if (carry_len_ > 0) {
    std::copy(buffer_.end() - static_cast<long>(carry_len_), buffer_.end(), buffer_.begin());
  }
  buffer_.resize(carry_len_);
  staged_ = false;
}

}  // namespace vpm::ids
