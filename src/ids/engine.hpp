// The end-to-end inspection engine: grouped rules + per-flow streaming scan
// + alert production.  This is the application layer a NIDS would embed; the
// examples and integration tests drive it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/prefilter.hpp"
#include "ids/alert.hpp"
#include "ids/flow.hpp"
#include "ids/rule_group.hpp"
#include "util/flow_table.hpp"

namespace vpm::telemetry {
class Counter;
class Histogram;
}

namespace vpm::ids {

struct EngineCounters {
  std::uint64_t bytes_inspected = 0;
  std::uint64_t chunks = 0;
  std::uint64_t alerts = 0;
  std::uint64_t flows = 0;  // distinct flows ever seen (not currently active)
  // Prefilter screening decisions (counted only when the screen actually
  // ran — bypassed or prefilter-off payloads count neither).
  std::uint64_t prefilter_pass_payloads = 0;
  std::uint64_t prefilter_reject_payloads = 0;
  std::uint64_t prefilter_pass_bytes = 0;
  std::uint64_t prefilter_reject_bytes = 0;
};

inline constexpr std::size_t kEngineGroupCount =
    static_cast<std::size_t>(pattern::Group::count);

// Optional per-engine instrumentation handles (registry-owned; every pointer
// may be null to disable that instrument).  Recording is relaxed-atomic and
// allocation-free, so enabling telemetry cannot change scan results or the
// zero-alloc steady-state contract — only add a clock read per flush.
struct EngineTelemetry {
  // Wall latency of each flush_batch() scan round, in seconds.
  telemetry::Histogram* flush_latency = nullptr;
  // Bytes scanned / alerts raised per rule group (indexed by pattern::Group).
  // group_scan_bytes counts bytes that reached the exact engine: with the
  // prefilter engaged, rejected payloads are excluded.
  std::array<telemetry::Counter*, kEngineGroupCount> group_scan_bytes{};
  std::array<telemetry::Counter*, kEngineGroupCount> group_alerts{};
  // Prefilter screening outcomes per group (vpm_prefilter_* metrics).
  std::array<telemetry::Counter*, kEngineGroupCount> prefilter_pass_payloads{};
  std::array<telemetry::Counter*, kEngineGroupCount> prefilter_reject_payloads{};
  std::array<telemetry::Counter*, kEngineGroupCount> prefilter_pass_bytes{};
  std::array<telemetry::Counter*, kEngineGroupCount> prefilter_reject_bytes{};

  bool enabled() const { return flush_latency != nullptr; }
};

class IdsEngine {
 public:
  // Compiles protocol groups keyed off a shared database; alerts carry
  // db->generation().
  explicit IdsEngine(DatabasePtr db);

  // Adopts an already-compiled grouped ruleset.  This is the pipeline's
  // form: one GroupedRules per ruleset generation, compiled once and shared
  // immutably by every worker's engine (scan state lives in per-engine
  // scratch, so concurrent engines over one GroupedRules are safe).
  explicit IdsEngine(GroupedRulesPtr rules);

  // Ruleset hot-swap: flushes any staged chunks under the OLD rules
  // (delivering their alerts to `sink`), resets all per-flow stream state —
  // a swap is a clean stream boundary; a pattern spanning the swap point is
  // attributed to neither generation — then adopts `rules`.  Must not be
  // called from an AlertSink callback mid-scan.
  void swap_rules(GroupedRulesPtr rules, AlertSink& sink);

  // The generation of the currently adopted rules (tags every alert).
  std::uint64_t generation() const { return rules_->generation(); }

  // Inspects the next payload chunk of `flow_id` (protocol fixed per flow at
  // first sight): stage() then flush_batch(), so alerts reach `sink` before
  // it returns — including those of any chunk other flows had staged.
  void inspect(std::uint64_t flow_id, pattern::Group protocol, util::ByteView chunk,
               AlertSink& sink);

  // Convenience overload: appends alerts to `out`.
  void inspect(std::uint64_t flow_id, pattern::Group protocol, util::ByteView chunk,
               std::vector<Alert>& out) {
    AlertBuffer buffer(out);
    inspect(flow_id, protocol, chunk, buffer);
  }

  // The scan path (the pipeline worker's per-PacketBatch loop).  stage()
  // copies `chunk` into the flow's stream buffer and defers the scan;
  // flush_batch() screens (see set_prefilter_mode) and runs ONE
  // Matcher::scan_batch per protocol group over every staged chunk, reusing
  // per-group engine-owned scratch — zero steady-state heap allocations, and
  // each group's filter structures stay cache-resident across the whole
  // batch.  Alert ORDER within a batch is engine-specific.  If `flow_id`
  // already has a staged chunk, stage() flushes first so per-flow stream
  // order is preserved (hence the sink parameter).  `chunk` need only stay
  // valid for the stage() call itself.
  //
  // Sink reentrancy: an AlertSink::on_alert callback may call close_flow()
  // (teardown-on-alert; deferred until the live flush completes) but must
  // NOT call stage()/inspect()/flush_batch() on this engine: the batch being
  // scanned cannot be mutated mid-flush.
  void stage(std::uint64_t flow_id, pattern::Group protocol, util::ByteView chunk,
             AlertSink& sink);
  void flush_batch(AlertSink& sink);
  std::size_t staged_chunks() const { return pending_.size(); }

  // Forgets a flow's stream state (connection close / idle eviction).  A
  // still-staged chunk of that flow is dropped unscanned (eviction is lossy
  // by design); flush_batch() first if those alerts matter.
  void close_flow(std::uint64_t flow_id);

  // Flows currently holding stream-scanner state (carry buffers).
  std::size_t active_flows() const { return flows_.size(); }

  const EngineCounters& counters() const { return counters_; }
  const GroupedRules& rules() const { return *rules_; }
  const GroupedRulesPtr& rules_ptr() const { return rules_; }

  // Installs instrumentation handles (copied; the pointed-to instruments must
  // outlive the engine).  Not synchronized against concurrent scans — set it
  // before the owning worker starts processing.
  void set_telemetry(const EngineTelemetry& t) { telemetry_ = t; }

  // Prefilter engagement policy (see PrefilterMode).
  // Alert results are mode-independent (the screen has zero false negatives);
  // only throughput and the prefilter_* counters change.  Not synchronized
  // against concurrent scans — set before processing starts.
  void set_prefilter_mode(core::PrefilterMode mode) { prefilter_mode_ = mode; }
  core::PrefilterMode prefilter_mode() const { return prefilter_mode_; }

 private:
  struct FlowState {
    pattern::Group protocol;
    StreamScanner scanner;
  };

  // One staged chunk awaiting flush_batch().  `view` points into the flow
  // scanner's stream buffer (stable until commit); `flow` stays valid across
  // rehash (FlowTable values live on their own heap cells and do not move).
  struct Staged {
    FlowState* flow = nullptr;
    std::uint64_t flow_id = 0;
    pattern::Group protocol{};
    util::ByteView view;
    std::size_t carry = 0;
    std::uint64_t base = 0;
  };

  static constexpr std::size_t kGroups = static_cast<std::size_t>(pattern::Group::count);

  FlowState& flow_for(std::uint64_t flow_id, pattern::Group protocol);

  GroupedRulesPtr rules_;
  // Open-addressing flow table (util::FlowTable): flat probing instead of
  // per-node chasing, stable FlowState pointers for Staged::flow, and the
  // structure the pipeline's bounded-step idle eviction scales on.
  util::FlowTable<std::uint64_t, FlowState, util::U64Hash> flows_;
  EngineCounters counters_;
  EngineTelemetry telemetry_;

  // Batch machinery (all grow-to-high-water, reused across flushes).
  struct GroupGather {
    std::vector<util::ByteView> views;
    std::vector<std::uint32_t> staged_index;
    // The screened-in subset handed to the exact engine when the prefilter
    // is engaged (parallel arrays, subsequences of the two above).
    std::vector<util::ByteView> passed_views;
    std::vector<std::uint32_t> passed_staged;
  };
  std::vector<Staged> pending_;
  std::array<GroupGather, kGroups> gather_;
  std::array<ScanScratch, kGroups> scratch_;
  // The prefilter stages folded payload copies in its own scratch: sharing
  // scratch_[gi] would make screen and scan evict each other's state_for
  // slot every flush (the slot is keyed per owner).
  std::array<ScanScratch, kGroups> pf_scratch_;
  std::vector<std::uint8_t> verdicts_;
  core::PrefilterMode prefilter_mode_ = core::PrefilterMode::automatic;
  // PrefilterMode::automatic adaptive bypass: sample the screen's pass ratio
  // over windows of kPrefilterSampleWindow payloads; when a window passes
  // more than half (match-heavy traffic, or a threshold-1 signature too weak
  // to reject), skip screening for the next kPrefilterBypassPayloads
  // payloads, then sample again.  31 bypass windows per sample window keeps
  // steady-state sampling overhead ~3% on hostile traffic.
  struct PrefilterAuto {
    std::uint32_t sampled = 0;
    std::uint32_t passed = 0;
    std::uint32_t bypass_payloads = 0;
  };
  static constexpr std::uint32_t kPrefilterSampleWindow = 64;
  static constexpr std::uint32_t kPrefilterBypassPayloads = 31 * 64;
  std::array<PrefilterAuto, kGroups> pf_auto_{};
  // Set while flush_batch scans: close_flow from an AlertSink defers while
  // set, so the batch being driven is never destroyed under its own
  // callback.
  bool in_scan_ = false;
  std::vector<std::uint64_t> deferred_close_;

  void flush_batch_impl(AlertSink& out);  // body of flush_batch, under guard
  void run_deferred_closes();
};

}  // namespace vpm::ids
