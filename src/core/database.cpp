#include "core/database.hpp"

#include <atomic>
#include <stdexcept>

#include "util/hash.hpp"

namespace vpm {

namespace {

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Per-group signatures over the same pattern subset each GroupedRules entry
// scans (the group's own patterns plus the generic group).
core::GroupPrefilters build_group_prefilters(const pattern::PatternSet& set) {
  core::GroupPrefilters prefilters;
  for (std::size_t g = 0; g < core::kPrefilterGroupCount; ++g) {
    const auto group = static_cast<pattern::Group>(g);
    prefilters[g] =
        core::build_prefilter(set.filter_groups({group, pattern::Group::generic}));
  }
  return prefilters;
}

}  // namespace

std::uint64_t Database::fingerprint_of(const pattern::PatternSet& set) {
  std::uint64_t h = util::fnv1a64_u64(set.size(), util::kFnv64Seed);
  for (const pattern::Pattern& p : set) {
    h = util::fnv1a64_u64(p.size(), h);
    h = util::fnv1a64_u64((p.nocase ? 1u : 0u) |
                              (static_cast<std::uint64_t>(p.group) << 8),
                          h);
    h = util::fnv1a64(p.bytes.data(), p.bytes.size(), h);
  }
  return h;
}

Database::Database(Private, core::Algorithm algorithm, pattern::PatternSet patterns,
                   core::GroupPrefilters prefilters)
    : patterns_(std::move(patterns)),
      prefilters_(std::move(prefilters)),
      algorithm_(algorithm),
      generation_(next_generation()),
      fingerprint_(fingerprint_of(patterns_)) {
  // Fail at compile() time, not on first engine() use: a database whose
  // algorithm this CPU cannot run must never be handed out.
  if (!core::algorithm_available(algorithm_)) {
    throw std::runtime_error(std::string("compile: algorithm '") +
                             std::string(core::algorithm_name(algorithm_)) +
                             "' is unavailable on this CPU");
  }
}

const Matcher& Database::engine() const {
  std::call_once(engine_once_,
                 [this] { engine_ = core::make_matcher(algorithm_, patterns_); });
  return *engine_;
}

std::size_t Database::memory_bytes() const {
  std::size_t pattern_bytes = 0;
  for (const pattern::Pattern& p : patterns_) {
    pattern_bytes += sizeof(pattern::Pattern) + p.bytes.capacity();
  }
  std::size_t prefilter_bytes = 0;
  for (const core::PrefilterPtr& f : prefilters_) {
    if (f != nullptr) prefilter_bytes += f->memory_bytes();
  }
  return engine().memory_bytes() + pattern_bytes + prefilter_bytes;
}

util::Bytes Database::save_patterns() const {
  pattern::DbHeader header;
  header.algorithm_hint = static_cast<std::uint8_t>(algorithm_);
  header.fingerprint = fingerprint_;
  util::Bytes out = pattern::serialize_patterns(patterns_, header);
  core::append_prefilter_section(out, prefilters_, fingerprint_);
  return out;
}

DatabasePtr compile(core::Algorithm algorithm, pattern::PatternSet set) {
  core::GroupPrefilters prefilters = build_group_prefilters(set);
  return std::make_shared<Database>(Database::Private{}, algorithm, std::move(set),
                                    std::move(prefilters));
}

DatabasePtr Database::from_serialized_impl(util::ByteView blob,
                                           const core::Algorithm* algorithm_override) {
  pattern::DbHeader header;
  std::size_t consumed = 0;
  pattern::PatternSet set = pattern::deserialize_patterns(blob, &header, &consumed);
  // v2 blobs MUST carry the matching content fingerprint (save_patterns
  // always writes it); exempting 0 would let corruption that zeroes the
  // header field silently disable the integrity check.  v1 blobs predate
  // fingerprints and are admitted unchecked.
  const std::uint64_t fingerprint = Database::fingerprint_of(set);
  if (header.version >= 2 && header.fingerprint != fingerprint) {
    throw std::invalid_argument("pattern db: fingerprint mismatch (corrupt payload)");
  }
  core::Algorithm algorithm;
  if (algorithm_override != nullptr) {
    algorithm = *algorithm_override;
  } else {
    if (header.algorithm_hint == pattern::kNoAlgorithmHint ||
        !core::algorithm_from_name(
             core::algorithm_name(static_cast<core::Algorithm>(header.algorithm_hint)))
             .has_value()) {
      throw std::invalid_argument(
          "pattern db: no usable algorithm hint; pass one explicitly");
    }
    algorithm = static_cast<core::Algorithm>(header.algorithm_hint);
    if (!core::algorithm_available(algorithm)) {
      // A blob saved on a wider-ISA host: the payload is fine, this CPU just
      // cannot run the hinted engine — distinct from corruption, and fixable
      // by the caller choosing an engine for this host.
      throw std::invalid_argument(
          std::string("pattern db: hinted algorithm '") +
          std::string(core::algorithm_name(algorithm)) +
          "' is unavailable on this CPU; pass one explicitly");
    }
  }
  // The prefilter section is mandatory in v2 blobs: tolerating its absence
  // would make every truncation at the pattern-records boundary load
  // silently.  Adopting the parsed (checksummed) signatures makes the loaded
  // artifact screen bit-identically to the process that saved it.  v1 blobs
  // predate the section and build signatures locally, as compile() does.
  core::GroupPrefilters prefilters =
      header.version >= 2
          ? core::parse_prefilter_section(blob.subspan(consumed), fingerprint)
          : build_group_prefilters(set);
  return std::make_shared<Database>(Private{}, algorithm, std::move(set),
                                    std::move(prefilters));
}

DatabasePtr Database::from_serialized(util::ByteView blob) {
  return from_serialized_impl(blob, nullptr);
}

DatabasePtr Database::from_serialized(util::ByteView blob, core::Algorithm algorithm) {
  return from_serialized_impl(blob, &algorithm);
}

Scanner::Scanner(DatabasePtr db) : db_(std::move(db)) {
  if (db_ == nullptr) throw std::invalid_argument("Scanner: null database");
}

void Scanner::rebind(DatabasePtr db) {
  if (db == nullptr) throw std::invalid_argument("Scanner::rebind: null database");
  db_ = std::move(db);
}

}  // namespace vpm
