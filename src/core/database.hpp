// The compile/runtime API split.
//
// vpm::Database is the immutable compiled artifact: compile() copies the
// pattern bytes and metadata out of the caller's PatternSet and builds the
// engine over the copy, so the source set may be destroyed the moment
// compile() returns (the old make_matcher contract — "the PatternSet must
// outlive the matcher" — does not apply here).  A Database is shared by
// std::shared_ptr<const Database> and is safe to scan from any number of
// threads concurrently: all mutable scan state lives in the per-thread
// Scanner session.
//
// vpm::Scanner is the thin per-thread runtime handle: a Database ref plus
// the reusable ScanScratch the batch fast path needs.  One Scanner per
// thread; Scanners are cheap (the compiled tables are shared, not copied).
//
// Identity: every compile() assigns a process-monotonic `generation` id
// (never reused — the pipeline's hot-swap tags alerts with it), and a
// content `fingerprint` (64-bit hash over the pattern bytes/flags/groups)
// that is stable across processes and survives save_patterns() /
// from_serialized() round trips.
//
//   auto db = vpm::compile(core::Algorithm::vpatch, rules);  // rules may die
//   vpm::Scanner scanner(db);                                // per thread
//   scanner.scan(payload, sink);
//   scanner.scan_batch(payloads, batch_sink);
#pragma once

#include <memory>
#include <mutex>

#include "core/matcher_factory.hpp"
#include "core/prefilter.hpp"
#include "match/matcher.hpp"
#include "pattern/pattern_set.hpp"
#include "pattern/serialize.hpp"

namespace vpm {

class Database;
using DatabasePtr = std::shared_ptr<const Database>;

class Database {
  struct Private {};  // compile()/from_serialized() are the only builders

 public:
  Database(Private, core::Algorithm algorithm, pattern::PatternSet patterns,
           core::GroupPrefilters prefilters);

  core::Algorithm algorithm() const { return algorithm_; }
  std::string_view algorithm_name() const { return core::algorithm_name(algorithm_); }
  std::size_t pattern_count() const { return patterns_.size(); }
  // Engine tables plus the owned pattern storage.
  std::size_t memory_bytes() const;

  // Process-monotonic compile id (never reused; assigned per compile()).
  std::uint64_t generation() const { return generation_; }
  // Content hash over (count, and per pattern: length, nocase, group,
  // bytes); independent of the algorithm and of the process.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // The owned pattern copy (ids are the ids engines report).
  const pattern::PatternSet& patterns() const { return patterns_; }

  // Per-group approximate q-gram signatures, built at compile time
  // over each group's own + generic patterns (the same composition
  // GroupedRules scans).  Null slot = no usable signature for that group
  // (empty, or contains a sub-3-byte pattern).  Serialized inside
  // save_patterns() and restored — checksummed — by from_serialized(), so a
  // loaded database screens identically to the compiling process.
  const core::GroupPrefilters& prefilters() const { return prefilters_; }
  const core::PrefilterPtr& prefilter_for(pattern::Group group) const {
    return prefilters_[static_cast<std::size_t>(group)];
  }

  // The compiled whole-set engine.  Scanning through it directly is valid
  // (scan / scan_batch are const and thread-safe with caller-owned
  // scratch); Scanner packages exactly that.  Built lazily on first access
  // (std::call_once, so concurrent first readers are safe): consumers that
  // only need the pattern artifact — GroupedRules/IdsEngine/the pipeline
  // compile their own per-group matchers — never pay for or hold the
  // unused whole-set tables.  Availability of the algorithm is validated
  // eagerly in compile(), so this cannot throw for a missing kernel.
  const Matcher& engine() const;

  // Serialized v2 pattern database carrying this database's fingerprint and
  // algorithm hint; feed to from_serialized() to rebuild an equivalent
  // Database (new generation, same fingerprint) in another process.
  util::Bytes save_patterns() const;

  // Rebuilds from save_patterns() output (or any v1/v2 pattern blob).  The
  // no-algorithm overload requires a v2 blob with an algorithm hint that is
  // available on this CPU; the explicit overload overrides/supplies the
  // engine.  A v2 blob must carry the content fingerprint (as
  // save_patterns() writes) and it is verified against the deserialized
  // patterns, and must carry the trailing checksummed prefilter section;
  // absence, truncation, or mismatch of either throws std::invalid_argument
  // (corrupt or tampered payload).  v1 blobs predate fingerprints and the
  // prefilter section: they load unchecked and rebuild signatures locally.
  static DatabasePtr from_serialized(util::ByteView blob);
  static DatabasePtr from_serialized(util::ByteView blob, core::Algorithm algorithm);

  static std::uint64_t fingerprint_of(const pattern::PatternSet& set);

 private:
  friend DatabasePtr compile(core::Algorithm, pattern::PatternSet);

  static DatabasePtr from_serialized_impl(util::ByteView blob,
                                          const core::Algorithm* algorithm_override);

  pattern::PatternSet patterns_;  // outlives engine_: the engine is built over it
  mutable std::once_flag engine_once_;
  mutable MatcherPtr engine_;  // lazily built; logically part of the const artifact
  core::GroupPrefilters prefilters_;
  core::Algorithm algorithm_;
  std::uint64_t generation_;
  std::uint64_t fingerprint_;
};

// Builds an immutable, shareable compiled database.  The set is copied (or
// moved — pass std::move(set) to avoid the copy); the caller's set is not
// referenced after compile() returns.  Throws std::runtime_error for vector
// engines on unsupported CPUs (same contract as make_matcher; checked here
// even though the whole-set engine itself materializes lazily).
DatabasePtr compile(core::Algorithm algorithm, pattern::PatternSet set);

// The per-thread scan session: a shared Database plus this thread's scratch.
class Scanner {
 public:
  // Throws std::invalid_argument on a null database.
  explicit Scanner(DatabasePtr db);

  const Database& database() const { return *db_; }
  const DatabasePtr& database_ptr() const { return db_; }

  // Swaps this session onto a new database (ruleset update).  Scratch
  // storage is retained; its state re-keys to the new engine automatically
  // (owner ids are never reused, so stale state cannot leak across).
  void rebind(DatabasePtr db);

  void scan(util::ByteView data, MatchSink& sink) const {
    db_->engine().scan(data, sink);
  }
  // Non-const: reuses this session's scratch across calls.
  void scan_batch(std::span<const util::ByteView> payloads, BatchSink& sink) {
    db_->engine().scan_batch(payloads, sink, scratch_);
  }

  std::uint64_t count_matches(util::ByteView data) const {
    return db_->engine().count_matches(data);
  }
  std::vector<Match> find_matches(util::ByteView data) const {
    return db_->engine().find_matches(data);
  }

 private:
  DatabasePtr db_;
  ScanScratch scratch_;
};

}  // namespace vpm
