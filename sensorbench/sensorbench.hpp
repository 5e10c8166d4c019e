// End-to-end sensor benchmark: packets in through a capture::CaptureSource,
// pipeline::PipelineRuntime in the middle, alerts out at a thread-safe
// ids::AlertSink owned here.  Everything in this directory drives the vpm
// library through its public headers only.
//
// Files:
//   inputs.cpp        workload specs, rulesets, generated traffic, feeds
//   reference.cpp     the independent alert reference (ground-truth streams
//                     scanned whole with another engine; no net/ or ids/ code)
//   pipeline_run.cpp  set-up timing, closed/open-loop runs, the checking sink,
//                     drain/lifecycle identities
//   layer_walk.cpp    the traced single-threaded walk through the layers'
//                     public calls, with spans and the matcher replay
//   main.cpp          CLI, host record, build guard, metric output
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "capture/source.hpp"
#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "core/prefilter.hpp"
#include "ids/alert.hpp"
#include "net/packet.hpp"
#include "pattern/pattern_set.hpp"
#include "pipeline/config.hpp"
#include "pipeline/stats.hpp"

namespace vpm::telemetry {
class MetricsRegistry;
}

namespace sensorbench {

using vpm::util::Bytes;
using vpm::util::ByteView;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------- workloads

enum class SourceKind { trace_mixed, trace_evasion, pcap };

// Pipeline workers on every workload: with the submitting thread, three busy
// threads, which leaves one CPU of a 4-CPU host to the rest of the system.
// Batch and ring sizes are the library's defaults.
inline constexpr unsigned kWorkers = 2;

// Everything that pins a workload.  Printed in every record so a parent vs
// change comparison can show both ran identical inputs and configuration.
// Why each workload exists is in README.md.
struct WorkloadSpec {
  std::string name;
  std::string ruleset;  // "S1-web" | "S2-full"
  vpm::core::Algorithm algorithm = vpm::core::Algorithm::vpatch;
  vpm::core::PrefilterMode prefilter = vpm::core::PrefilterMode::automatic;
  SourceKind source = SourceKind::trace_mixed;
  // A run is a closed-loop phase (throughput: gbps, kpps) for half the
  // measured time, then an open-loop phase at paced_pps (latency and
  // generator lag) for the other half; without the closed phase the whole
  // run is open-loop and every metric comes from it.
  bool closed_phase = true;
  double paced_pps = 0.0;  // fixed offered packet rate of the open-loop phase
  bool idle_eviction = false;          // timeout = one epoch's capture span
  std::size_t eviction_max_steps = 0;  // 0 = full sweep
  std::size_t flows = 0;               // per epoch
  std::size_t bytes_per_flow = 0;      // client->server bytes per flow
  std::size_t walk_epochs = 1;         // epochs the traced layer walk covers
  // In the open-loop phase, alerts whose content hash has these bits clear
  // are timestamped for the latency metrics (about 5-10 K samples per second
  // per worker on the reference host).
  std::uint64_t sample_mask = 31;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// One directional byte stream with its ground truth: what the sensor should
// deliver in order for that side of that connection.
struct Stream {
  vpm::net::FiveTuple tuple;  // directional (src = sender)
  vpm::pattern::Group group;  // the connection's server-port group
  const Bytes* bytes = nullptr;
};

// Pulls packets epoch by epoch.  An epoch is one pass over the generated
// base traffic; the feed never returns packets from two epochs in one call.
class Feed {
 public:
  virtual ~Feed() = default;
  virtual std::size_t poll(std::vector<vpm::net::Packet>& out, std::size_t max) = 0;
  virtual bool at_epoch_boundary() const = 0;
  virtual std::uint64_t epochs_done() const = 0;
  virtual vpm::capture::CaptureStats stats() const = 0;
};

// The generated inputs of one workload at one seed.
class Inputs {
 public:
  Inputs(const WorkloadSpec& spec, std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  const vpm::pattern::PatternSet& rules() const { return rules_; }
  const Bytes& serialized_db() const { return blob_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  std::uint64_t stream_hash() const { return stream_hash_; }
  // One epoch of packets in submission order (the base epoch).
  const std::vector<vpm::net::Packet>& base_packets() const { return *base_packets_; }
  const std::vector<Stream>& streams() const { return streams_; }
  std::uint64_t payload_bytes_per_epoch() const { return epoch_payload_bytes_; }
  // Rule groups for which the database carries a prefilter signature.
  unsigned prefilter_groups() const { return prefilter_groups_; }

  // A fresh feed positioned at epoch 0.  epochs == 0 means endless.
  std::unique_ptr<Feed> make_feed() const;

  // Flow ids (pipeline::flow_key) of every stream in epochs [0, epochs):
  // result[e][s].  Replays the capture source untimed, so the remapping of
  // endpoints between epochs is whatever the source does.
  std::vector<std::vector<std::uint64_t>> epoch_flow_keys(std::uint64_t epochs) const;

  vpm::pipeline::PipelineConfig pipeline_config(vpm::ids::AlertSink* sink) const;

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  vpm::pattern::PatternSet rules_;
  Bytes blob_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t stream_hash_ = 0;
  std::uint64_t idle_timeout_us_ = 0;
  std::uint64_t epoch_payload_bytes_ = 0;
  unsigned prefilter_groups_ = 0;
  // trace sources
  std::unique_ptr<vpm::capture::CaptureSource> trace_base_;
  // pcap source
  std::vector<vpm::net::Packet> pcap_packets_;
  std::vector<Bytes> pcap_streams_;
  Bytes pcap_image_;
  const std::vector<vpm::net::Packet>* base_packets_ = nullptr;
  std::vector<Stream> streams_;
};

// ---------------------------------------------------------------- reference

// One expected alert of the base epoch.
struct RefAlert {
  std::uint32_t stream = 0;
  std::uint32_t pattern = 0;     // master id
  std::uint64_t offset = 0;      // match start in the stream
  std::uint32_t trigger = 0;     // base-epoch packet index that made the
                                 // match's last byte deliverable in order
};

struct Reference {
  std::vector<RefAlert> alerts;  // sorted by (stream, pattern, offset)
  const RefAlert* find(std::uint32_t stream, std::uint32_t pattern,
                       std::uint64_t offset) const;
};

// Scans every stream whole with full-matrix Aho-Corasick over its group's
// patterns (own + generic), maps ids back to the master set, and finds each
// match's trigger packet from the base packets' sequence numbers.
Reference build_reference(const Inputs& in);

// ---------------------------------------------------------------- alerts

// Order-independent multiset digest of alerts: equal digests mean equal
// multisets (up to 128-bit hash collisions).
struct Tally {
  std::uint64_t count = 0;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  void add(std::uint64_t flow_id, std::uint32_t pattern, std::uint64_t offset);
  friend bool operator==(const Tally&, const Tally&) = default;
};

struct AlertSample {
  std::uint64_t flow_id;
  std::uint64_t offset;
  std::uint64_t t_ns;
  std::uint32_t pattern;
  std::uint32_t thread;  // index of the delivering thread's slot
};

// Thread-safe sink: each calling thread accumulates into its own slot (no
// shared writes on the alert path).  A deterministic 1-in-(mask+1) subset of
// alerts, chosen by content hash so both commits sample the same alerts, is
// timestamped for the detection-latency metric.
class CheckingSink final : public vpm::ids::AlertSink {
 public:
  // `threads` slots of `capacity` samples each are allocated and touched up
  // front and never grow (samples past a full slot are counted, not kept), so
  // sampling adds a constant to the process's resident set, whatever the
  // alert rate.
  CheckingSink(std::uint64_t sample_mask, std::size_t threads, std::size_t capacity);
  void on_alert(const vpm::ids::Alert& alert) override;
  // Valid once every thread that delivered alerts has been joined.
  Tally tally() const;
  std::vector<AlertSample> samples() const;
  std::uint64_t samples_dropped() const;

 private:
  struct alignas(64) Slot {
    Tally tally;
    std::vector<AlertSample> samples;
    std::uint64_t dropped = 0;
  };
  Slot& slot();

  const std::uint64_t id_;
  const std::uint64_t sample_mask_;
  mutable std::mutex mu_;  // guards slots_ and claimed_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::size_t claimed_ = 0;
};

// The expected digest for `epochs` epochs and the flow-id index used to
// resolve sampled alerts back to reference alerts.
struct Expectation {
  Tally tally;
  // (flow_id, epoch, stream), sorted by flow_id.
  struct Key {
    std::uint64_t flow_id;
    std::uint32_t epoch;
    std::uint32_t stream;
  };
  std::vector<Key> keys;
};
Expectation expect(const Reference& ref,
                   const std::vector<std::vector<std::uint64_t>>& epoch_keys,
                   std::uint64_t epochs);

// ---------------------------------------------------------------- runs

struct SetupTimes {
  double deserialize_s = 0, construct_s = 0, start_s = 0;
  double total() const { return deserialize_s + construct_s + start_s; }
};

struct RunOutcome {
  double wall_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t t0_ns = 0;
  bool open_loop = false;
  double pps = 0.0;  // open loop: the offered rate
  // lag_us: one entry per submitted batch — how long after its due time
  // submit() had accepted all of it.  Closed loop: a batch is due when
  // poll() returns it, so the lag is the time submit() held the generator.
  // Open loop: packet i is due at t0 + i / pps, so the lag adds any delay in
  // reaching the batch to that.
  std::vector<float> lag_us;
  // Marks at batch boundaries: the batch's first global packet index, the
  // clock when the generator took it (its due time in the closed loop), the
  // payload bytes submitted before it and its index in lag_us.  Closed
  // loop: every batch (latency resolves due times through them).  Open
  // loop: at most one per millisecond (the schedule gives due times).
  struct Mark {
    std::uint64_t packet;
    std::uint64_t due_ns;
    std::uint64_t bytes;
    std::uint64_t lag_index;
  };
  std::vector<Mark> marks;
  std::uint64_t samples_dropped = 0;
  std::uint64_t submit_ns = 0;  // Σ time inside the submit loops (traced)
  vpm::pipeline::PipelineStats stats;
  Tally tally;
  std::vector<AlertSample> samples;
};

struct RunOptions {
  double seconds = 1.0;
  bool open_loop = false;  // at the workload's paced_pps; latency sampled
  vpm::telemetry::MetricsRegistry* metrics = nullptr;  // traced pipeline run
  bool time_submit = false;
  bool repeat_setup = false;  // set up >= 5 times and >= 1 s (median kept)
  std::vector<SetupTimes>* setup_times = nullptr;
  double* db_memory_mb = nullptr;
};

RunOutcome run_pipeline(const Inputs& in, const RunOptions& opt);

// Checks one finished run against the reference: the alert digest, the
// drain and lifecycle identities, loss.  Appends human-readable problems.
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // lost packets + alert errors + identity violations
  std::vector<std::string> problems;
};
Verdict check_run(const RunOutcome& run, const Expectation& exp);

struct Latency {
  struct Sample {
    std::uint64_t due_ns;  // due time of the trigger packet
    double us;             // detection latency
    std::uint32_t thread;  // delivering worker
    friend bool operator<(const Sample& a, const Sample& b) { return a.due_ns < b.due_ns; }
  };
  std::vector<Sample> samples;  // by due time
  std::uint64_t unresolved = 0;
};

// CPUs for the two pipeline workers and the submitting thread: the last
// three CPUs this process may run on, so the three busy threads never share
// a CPU and the scheduler cannot stack them.  Empty when fewer than three
// CPUs are available (no pinning).
struct Placement {
  std::vector<int> workers;
  int submitter = -1;
};
Placement placement(unsigned workers);
Latency detection_latency(const RunOutcome& run, const Inputs& in, const Reference& ref,
                          const Expectation& exp);

double quantile(std::vector<double> v, double q);  // v need not be sorted
double sorted_quantile(const std::vector<double>& sorted, double q);

// ---------------------------------------------------------------- layer walk

struct WalkReport {
  std::vector<std::pair<std::string, double>> metrics;  // per-layer metrics
  std::vector<std::pair<std::string, double>> self_s;   // layer -> self time
  double wall_s = 0;
  Tally tally;
  std::uint64_t epochs = 0;
  std::size_t spans = 0;
};

// Single-threaded walk over `in.spec().walk_epochs` epochs through the
// layers' public calls, sharded as pipeline::shard_of assigns packets.
// Writes its spans to `spans_path` (tab-separated) when it ends.
WalkReport layer_walk(const Inputs& in, const std::string& spans_path);

}  // namespace sensorbench
