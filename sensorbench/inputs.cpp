// Workload specs, rulesets and generated traffic.  The seed only changes the
// traffic; the rulesets are the fixed S1/S2 stand-ins (like the paper's
// fixed Snort/ET rule snapshots), so set-up cost does not vary with the seed.
#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "capture/pcap_source.hpp"
#include "capture/trace_source.hpp"
#include "net/pcap.hpp"
#include "pattern/ruleset_gen.hpp"
#include "sensorbench.hpp"
#include "traffic/match_injector.hpp"
#include "traffic/random_trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sensorbench {

using vpm::core::Algorithm;
using vpm::net::Packet;
using vpm::pattern::Group;

vpm::pattern::PatternSet working_set(const vpm::pattern::PatternSet& master, Group g,
                                     std::vector<std::uint32_t>* to_master);

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec web;
    web.name = "web_replay";
    web.ruleset = "S1-web";
    web.algorithm = Algorithm::vpatch;
    web.source = SourceKind::trace_mixed;
    web.flows = 256;
    web.bytes_per_flow = 32 * 1024;
    web.idle_eviction = true;
    web.paced_pps = 60000.0;
    web.sample_mask = 63;
    web.walk_epochs = 6;
    v.push_back(web);

    WorkloadSpec s2;
    s2.name = "s2_lowmatch";
    s2.ruleset = "S2-full";
    s2.algorithm = Algorithm::aho_corasick_compact;
    s2.source = SourceKind::pcap;
    s2.flows = 320;
    s2.bytes_per_flow = 16 * 1024;
    s2.paced_pps = 20000.0;
    s2.walk_epochs = 8;
    v.push_back(s2);

    WorkloadSpec churn;
    churn.name = "conn_churn";
    churn.ruleset = "S1-web";
    churn.algorithm = Algorithm::vpatch;
    churn.source = SourceKind::trace_evasion;
    churn.flows = 512;
    churn.bytes_per_flow = 4 * 1024;
    churn.idle_eviction = true;
    churn.eviction_max_steps = 1024;
    churn.paced_pps = 100000.0;
    churn.sample_mask = 63;
    churn.walk_epochs = 8;
    v.push_back(churn);

    WorkloadSpec paced = web;
    paced.name = "web_paced";
    paced.closed_phase = false;
    paced.paced_pps = 30000.0;
    paced.sample_mask = 31;
    v.push_back(paced);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

// Server port -> rule group, as a Snort port-group binding would do it.
Group group_of_port(std::uint16_t port) {
  switch (port) {
    case 80: return Group::http;
    case 53: return Group::dns;
    case 21: return Group::ftp;
    case 25: return Group::smtp;
    default: return Group::generic;
  }
}

std::uint64_t hash_packets(const std::vector<Packet>& packets) {
  std::uint64_t h = 0x51ED2701F3A5C1B7ull;
  const auto mix = [&](std::uint64_t v) { h = vpm::util::mix64(h ^ v) * 0x9E3779B97F4A7C15ull; };
  for (const Packet& p : packets) {
    mix(p.timestamp_us);
    mix((std::uint64_t{p.tuple.src_ip} << 32) | p.tuple.dst_ip);
    mix((std::uint64_t{p.tuple.src_port} << 32) | (std::uint64_t{p.tuple.dst_port} << 8) |
        static_cast<std::uint8_t>(p.tuple.proto));
    mix((std::uint64_t{p.tcp_seq} << 8) | p.tcp_flags);
    mix(p.payload.size());
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < p.payload.size(); ++i) {
      word = (word << 8) | p.payload[i];
      if ((i & 7) == 7) mix(word);
    }
    mix(word);
  }
  return h;
}

class TraceFeed final : public Feed {
 public:
  TraceFeed(vpm::capture::TraceConfig cfg, std::size_t per_epoch)
      : src_(std::move(cfg)), per_epoch_(per_epoch) {}

  std::size_t poll(std::vector<Packet>& out, std::size_t max) override {
    const std::size_t room = per_epoch_ - static_cast<std::size_t>(polled_ % per_epoch_);
    const std::size_t n = src_.poll(out, std::min(max, room));
    polled_ += n;
    return n;
  }
  bool at_epoch_boundary() const override { return polled_ % per_epoch_ == 0; }
  std::uint64_t epochs_done() const override { return polled_ / per_epoch_; }
  vpm::capture::CaptureStats stats() const override { return src_.stats(); }

 private:
  vpm::capture::TraceSource src_;
  std::size_t per_epoch_;
  std::uint64_t polled_ = 0;
};

// One PcapFileSource per epoch over the same in-memory capture image: the
// source's constructor (frame decode) runs inside poll(), on the measured
// path.  Every flow ends with a RST, so the next epoch's identical tuples
// start fresh connections.
class PcapFeed final : public Feed {
 public:
  explicit PcapFeed(const Bytes& image) : image_(image) {}

  std::size_t poll(std::vector<Packet>& out, std::size_t max) override {
    if (cur_ == nullptr) cur_ = std::make_unique<vpm::capture::PcapFileSource>(Bytes(image_));
    const std::size_t n = cur_->poll(out, max);
    if (cur_->exhausted()) {
      add(done_, cur_->stats());
      cur_.reset();
      ++epochs_;
    }
    return n;
  }
  bool at_epoch_boundary() const override { return cur_ == nullptr; }
  std::uint64_t epochs_done() const override { return epochs_; }
  vpm::capture::CaptureStats stats() const override {
    vpm::capture::CaptureStats s = done_;
    if (cur_ != nullptr) add(s, cur_->stats());
    return s;
  }

 private:
  static void add(vpm::capture::CaptureStats& to, const vpm::capture::CaptureStats& s) {
    to.packets += s.packets;
    to.bytes += s.bytes;
    to.kernel_drops += s.kernel_drops;
    to.ring_full += s.ring_full;
    to.truncated += s.truncated;
    to.skipped += s.skipped;
  }

  const Bytes& image_;
  std::unique_ptr<vpm::capture::PcapFileSource> cur_;
  vpm::capture::CaptureStats done_;
  std::uint64_t epochs_ = 0;
};

vpm::capture::TraceConfig trace_config(const WorkloadSpec& spec, std::uint64_t seed,
                                       std::uint64_t epochs) {
  vpm::capture::TraceConfig tc;
  tc.profile = spec.source == SourceKind::trace_evasion ? "evasion" : "mixed";
  tc.flows = spec.flows;
  tc.bytes_per_flow = spec.bytes_per_flow;
  tc.seed = seed;
  tc.epochs = epochs;
  return tc;
}

std::uint64_t traffic_seed(const WorkloadSpec& spec, std::uint64_t seed) {
  // Distinct streams per workload at the same --seed (web_paced deliberately
  // shares web_replay's traffic).
  const std::uint64_t salt = spec.source == SourceKind::trace_mixed     ? 11
                             : spec.source == SourceKind::trace_evasion ? 23
                                                                        : 37;
  return seed * 1000 + salt;
}

}  // namespace

Inputs::Inputs(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
  rules_ = spec.ruleset == "S2-full"
               ? vpm::pattern::generate_ruleset(vpm::pattern::s2_config(2))
               : vpm::pattern::generate_ruleset(vpm::pattern::s1_config(1)).web_patterns();
  {
    const vpm::DatabasePtr db = vpm::compile(spec.algorithm, rules_);
    blob_ = db->save_patterns();
    fingerprint_ = db->fingerprint();
    for (const vpm::core::PrefilterPtr& pf : db->prefilters()) prefilter_groups_ += pf != nullptr;
  }
  const std::uint64_t tseed = traffic_seed(spec, seed);

  if (spec.source == SourceKind::pcap) {
    // Random payloads across the five server-port groups, 1% of each
    // stream's bytes overwritten with copies of its group's patterns.
    static constexpr std::uint16_t kPorts[] = {80, 53, 21, 25, 4444};
    vpm::util::Rng rng(tseed);
    std::vector<vpm::net::FiveTuple> tuples;
    std::vector<std::uint32_t> isn;
    std::vector<vpm::pattern::PatternSet> sets(static_cast<std::size_t>(Group::count));
    for (std::size_t g = 0; g < sets.size(); ++g) {
      sets[g] = working_set(rules_, static_cast<Group>(g), nullptr);
    }
    pcap_streams_.reserve(spec.flows);
    for (std::size_t f = 0; f < spec.flows; ++f) {
      const std::uint16_t port = kPorts[f % 5];
      Bytes s = vpm::traffic::generate_random_trace(spec.bytes_per_flow, tseed * 4099 + f);
      vpm::traffic::inject_matches(
          s, sets[static_cast<std::size_t>(group_of_port(port))], 0.01, tseed * 8191 + f);
      pcap_streams_.push_back(std::move(s));
      vpm::net::FiveTuple t;
      t.src_ip = 0x0A010000u | static_cast<std::uint32_t>(f + 2);
      t.dst_ip = 0xC0A80100u | static_cast<std::uint32_t>(f % 5 + 1);
      t.src_port = static_cast<std::uint16_t>(20000 + f);
      t.dst_port = port;
      tuples.push_back(t);
      isn.push_back(static_cast<std::uint32_t>(rng()));
    }
    std::vector<std::size_t> cursor(spec.flows, 0);
    std::uint64_t clock_us = 1'000'000;
    for (bool progressed = true; progressed;) {
      progressed = false;
      for (std::size_t f = 0; f < spec.flows; ++f) {
        const Bytes& s = pcap_streams_[f];
        if (cursor[f] >= s.size()) continue;
        progressed = true;
        const std::size_t len = std::min<std::size_t>(
            s.size() - cursor[f], static_cast<std::size_t>(rng.between(100, 1460)));
        Packet p;
        p.timestamp_us = clock_us;
        clock_us += static_cast<std::uint64_t>(rng.between(5, 200));
        p.tuple = tuples[f];
        p.tcp_seq = isn[f] + static_cast<std::uint32_t>(cursor[f]);
        p.payload.assign(s.begin() + static_cast<long>(cursor[f]),
                         s.begin() + static_cast<long>(cursor[f] + len));
        pcap_packets_.push_back(std::move(p));
        cursor[f] += len;
      }
    }
    for (std::size_t f = 0; f < spec.flows; ++f) {
      Packet p;
      p.timestamp_us = clock_us++;
      p.tuple = tuples[f];
      p.tcp_seq = isn[f] + static_cast<std::uint32_t>(pcap_streams_[f].size());
      p.tcp_flags = vpm::net::kTcpRst | vpm::net::kTcpAck;
      pcap_packets_.push_back(std::move(p));
    }
    pcap_image_ = vpm::net::write_pcap(pcap_packets_);
    base_packets_ = &pcap_packets_;
    for (std::size_t f = 0; f < spec.flows; ++f) {
      streams_.push_back({tuples[f], group_of_port(tuples[f].dst_port), &pcap_streams_[f]});
    }
    stream_hash_ = hash_packets(pcap_packets_) ^ vpm::util::mix64(pcap_image_.size());
  } else {
    auto trace = std::make_unique<vpm::capture::TraceSource>(trace_config(spec, tseed, 1));
    const vpm::net::GeneratedFlows& base = trace->base();
    base_packets_ = &base.packets;
    for (std::size_t f = 0; f < base.tuples.size(); ++f) {
      const Group g = group_of_port(base.tuples[f].dst_port);
      streams_.push_back({base.tuples[f], g, &base.streams[f]});
      if (f < base.reverse_streams.size()) {
        streams_.push_back({base.tuples[f].reversed(), g, &base.reverse_streams[f]});
      }
    }
    stream_hash_ = hash_packets(base.packets);
    trace_base_ = std::move(trace);
  }

  std::uint64_t max_ts = 0;
  for (const Packet& p : *base_packets_) {
    max_ts = std::max(max_ts, p.timestamp_us);
    epoch_payload_bytes_ += p.payload.size();
  }
  // Longer than any flow's lifetime within an epoch, so only finished flows
  // of earlier epochs are ever idle-evicted.
  idle_timeout_us_ = spec.idle_eviction ? max_ts : 0;
}

std::unique_ptr<Feed> Inputs::make_feed() const {
  if (spec_.source == SourceKind::pcap) return std::make_unique<PcapFeed>(pcap_image_);
  return std::make_unique<TraceFeed>(trace_config(spec_, traffic_seed(spec_, seed_), 0),
                                     base_packets_->size());
}

std::vector<std::vector<std::uint64_t>> Inputs::epoch_flow_keys(std::uint64_t epochs) const {
  std::vector<std::vector<std::uint64_t>> keys(epochs);
  if (spec_.source == SourceKind::pcap) {
    std::vector<std::uint64_t> same;
    for (const Stream& s : streams_) same.push_back(vpm::pipeline::flow_key(s.tuple));
    for (auto& k : keys) k = same;
    return keys;
  }
  // Which base packet index first carries each stream's tuple.
  std::unordered_map<std::uint64_t, std::uint32_t> stream_of;
  for (std::uint32_t s = 0; s < streams_.size(); ++s) {
    stream_of.emplace(vpm::pipeline::flow_key(streams_[s].tuple), s);
  }
  const std::vector<Packet>& base = *base_packets_;
  std::vector<std::int64_t> first_of(base.size(), -1);
  std::vector<bool> seen(streams_.size(), false);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto it = stream_of.find(vpm::pipeline::flow_key(base[i].tuple));
    if (it == stream_of.end() || seen[it->second]) continue;
    seen[it->second] = true;
    first_of[i] = it->second;
  }
  vpm::capture::TraceSource src(trace_config(spec_, traffic_seed(spec_, seed_), epochs));
  std::vector<Packet> chunk;
  std::uint64_t index = 0;
  for (auto& k : keys) k.assign(streams_.size(), 0);
  while (!src.exhausted()) {
    chunk.clear();
    src.poll(chunk, 4096);
    for (const Packet& p : chunk) {
      const std::uint64_t e = index / base.size();
      const std::int64_t s = first_of[index % base.size()];
      if (s >= 0) keys[e][static_cast<std::size_t>(s)] = vpm::pipeline::flow_key(p.tuple);
      ++index;
    }
  }
  return keys;
}

vpm::pipeline::PipelineConfig Inputs::pipeline_config(vpm::ids::AlertSink* sink) const {
  vpm::pipeline::PipelineConfig cfg;
  cfg.algorithm = spec_.algorithm;
  cfg.prefilter = spec_.prefilter;
  cfg.workers = kWorkers;
  cfg.backpressure = vpm::pipeline::BackpressurePolicy::block;
  cfg.idle_timeout_us = idle_timeout_us_;
  cfg.eviction_max_steps = spec_.eviction_max_steps;
  cfg.alert_sink = sink;
  return cfg;
}

}  // namespace sensorbench
