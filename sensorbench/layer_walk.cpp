// The traced layer walk: the same packets a pipeline run sees, pushed on one
// thread through the layers' public calls the way a pipeline worker chains
// them — CaptureSource::poll -> route by pipeline::shard_of ->
// TcpReassembler::ingest -> (chunk callback) IdsEngine::stage ->
// IdsEngine::flush_batch at every batch_packets packets of a shard.  Every
// call gets a span (name, start, end, parent, batch id); spans stay in
// memory and are written out when the walk ends.
//
// The prefilter and the matchers run inside flush_batch, where no span can
// be placed from outside.  The walk therefore records each scan round's
// payloads per group (carry + chunk, exactly what the engine scans) and
// replays them afterwards, timed, through Prefilter::screen_batch and
// Matcher::scan_batch; that time is carved out of the flush span, and what
// remains is flush_batch's own (self) time.
#include <algorithm>
#include <array>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "core/vpatch.hpp"
#include "ids/engine.hpp"
#include "ids/pcap_pipeline.hpp"
#include "ids/rule_group.hpp"
#include "net/reassembly.hpp"
#include "pipeline/shard_router.hpp"
#include "sensorbench.hpp"
#include "telemetry/metrics.hpp"

namespace sensorbench {
namespace {

using vpm::pattern::Group;
constexpr std::size_t kGroups = static_cast<std::size_t>(Group::count);

struct Span {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::int32_t parent;
  std::uint32_t batch;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 18); }

  std::int32_t begin(const char* name) {
    spans_.push_back({name, now_ns(), 0, current_, batch_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void end(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  void set_batch(std::uint32_t b) { batch_ = b; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint32_t batch_ = 0;
};

class Scoped {
 public:
  Scoped(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int32_t id_;
};

// One scan round: the payloads one flush_batch scanned, per group.
struct Round {
  std::int32_t flush_span = -1;
  std::array<std::vector<Bytes>, kGroups> views;
  std::array<bool, kGroups> screened{};
};

struct Shard {
  std::unique_ptr<vpm::ids::IdsEngine> engine;
  std::unique_ptr<vpm::net::TcpReassembler> reasm;
  std::array<vpm::telemetry::Counter*, kGroups> screened_counter{};
  std::vector<vpm::net::Packet> pending;
  std::uint64_t virtual_now = 0;
  std::size_t since_sweep = 0;
  Round round;
  std::unordered_set<std::uint64_t> staged_flows;  // flows staged in `round`
  std::unordered_map<std::uint64_t, Bytes> tails;  // per-flow carry shadow
};

struct HitSink final : vpm::BatchSink {
  std::vector<std::uint8_t> hit;
  std::uint64_t matches = 0;
  void on_match(std::uint32_t packet, const vpm::Match&) override {
    hit[packet] = 1;
    ++matches;
  }
};

struct CountSink final : vpm::MatchSink {
  void on_match(const vpm::Match&) override {}
};

}  // namespace

WalkReport layer_walk(const Inputs& in, const std::string& spans_path) {
  const WorkloadSpec& spec = in.spec();
  const vpm::pipeline::PipelineConfig cfg = in.pipeline_config(nullptr);
  const auto rules =
      std::make_shared<const vpm::ids::GroupedRules>(vpm::Database::from_serialized(in.serialized_db()));
  CheckingSink sink(~std::uint64_t{0}, 0, 0);
  vpm::telemetry::MetricsRegistry registry;
  Tracer tr;
  std::vector<Round> rounds;

  std::uint64_t packets = 0, segments = 0, stage_calls = 0, evict_calls = 0;
  std::uint64_t forced = 0, flushes = 0, width_sum = 0, peak_tracked = 0;

  const unsigned nshards = cfg.workers;
  std::vector<Shard> shards(nshards);

  const auto flush = [&](Shard& sh, bool before_batch_end) {
    const std::size_t staged = sh.engine->staged_chunks();
    if (staged == 0) return;
    std::array<std::uint64_t, kGroups> before{};
    for (std::size_t g = 0; g < kGroups; ++g) before[g] = sh.screened_counter[g]->value();
    {
      Scoped s(tr, "ids.flush");
      sh.engine->flush_batch(sink);
      sh.round.flush_span = s.id();
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      sh.round.screened[g] = sh.screened_counter[g]->value() != before[g];
    }
    rounds.push_back(std::move(sh.round));
    sh.round = Round{};
    sh.staged_flows.clear();
    ++flushes;
    width_sum += staged;
    if (before_batch_end) ++forced;
  };

  for (unsigned i = 0; i < nshards; ++i) {
    Shard& sh = shards[i];
    sh.engine = std::make_unique<vpm::ids::IdsEngine>(rules);
    sh.engine->set_prefilter_mode(cfg.prefilter);
    vpm::ids::EngineTelemetry et;
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::string group(vpm::pattern::group_name(static_cast<Group>(g)));
      // pass + reject both land here: any movement means the group was screened.
      vpm::telemetry::Counter& c = registry.counter(
          "walk_screened_payloads_total", "payloads screened", {{"group", group}, {"shard", std::to_string(i)}});
      et.prefilter_pass_payloads[g] = &c;
      et.prefilter_reject_payloads[g] = &c;
      sh.screened_counter[g] = &c;
    }
    sh.engine->set_telemetry(et);
    sh.reasm = std::make_unique<vpm::net::TcpReassembler>(
        [&, i](const vpm::net::StreamChunk& chunk) {
          Shard& s = shards[i];
          const std::uint64_t flow = vpm::pipeline::flow_key(chunk.tuple);
          const Group g = vpm::ids::classify_port(chunk.server_port);
          // stage() would flush first for an already-staged flow; do it
          // here so that flush gets its own span.
          if (s.staged_flows.count(flow) != 0) flush(s, true);
          {
            Scoped st(tr, "ids.stage");
            s.engine->stage(flow, g, chunk.data, sink);
          }
          ++stage_calls;
          Scoped rec(tr, "trace.record");
          s.staged_flows.insert(flow);
          Bytes& tail = s.tails[flow];
          Bytes view = tail;
          view.insert(view.end(), chunk.data.begin(), chunk.data.end());
          const std::size_t keep =
              std::min(view.size(), rules->max_pattern_length(g) > 0 ? rules->max_pattern_length(g) - 1 : 0);
          tail.assign(view.end() - static_cast<long>(keep), view.end());
          s.round.views[static_cast<std::size_t>(g)].push_back(std::move(view));
        },
        cfg.reassembly);
    sh.reasm->on_connection_end([&, i](const vpm::net::FiveTuple& client, vpm::net::EndReason) {
      Shard& s = shards[i];
      if (s.engine->staged_chunks() > 0) flush(s, true);
      Scoped c(tr, "ids.close");
      const std::uint64_t a = vpm::pipeline::flow_key(client);
      const std::uint64_t b = vpm::pipeline::flow_key(client.reversed());
      s.engine->close_flow(a);
      s.engine->close_flow(b);
      s.tails.erase(a);
      s.tails.erase(b);
    });
  }

  std::uint32_t batch_id = 0;
  const auto process = [&](unsigned si, std::vector<vpm::net::Packet>& batch) {
    Shard& sh = shards[si];
    tr.set_batch(++batch_id);
    for (vpm::net::Packet& p : batch) {
      sh.virtual_now = std::max(sh.virtual_now, p.timestamp_us);
      ++packets;
      if (p.tuple.proto == vpm::net::IpProto::tcp) {
        Scoped s(tr, "net.ingest");
        sh.reasm->ingest(p);
        ++segments;
      } else {
        const std::uint64_t flow = vpm::pipeline::flow_key(p.tuple);
        if (sh.staged_flows.count(flow) != 0) flush(sh, true);
        Scoped s(tr, "ids.stage");
        sh.engine->stage(flow, vpm::ids::classify_port(p.tuple.dst_port), p.payload, sink);
        ++stage_calls;
      }
      if (cfg.idle_timeout_us > 0 && ++sh.since_sweep >= cfg.eviction_sweep_packets) {
        sh.since_sweep = 0;
        flush(sh, true);
        Scoped s(tr, "net.evict");
        if (cfg.eviction_max_steps == 0) {
          sh.reasm->evict_idle(sh.virtual_now, cfg.idle_timeout_us);
        } else {
          sh.reasm->evict_idle_step(sh.virtual_now, cfg.idle_timeout_us, cfg.eviction_max_steps);
        }
        ++evict_calls;
      }
    }
    flush(sh, false);
    std::uint64_t tracked = 0;
    for (const Shard& s : shards) tracked += s.reasm->active_flows();
    peak_tracked = std::max(peak_tracked, tracked);
    tr.set_batch(0);
  };

  std::unique_ptr<Feed> feed = in.make_feed();
  std::vector<vpm::net::Packet> polled;
  polled.reserve(256);
  std::vector<std::pair<unsigned, std::vector<vpm::net::Packet>>> ready;
  for (Shard& sh : shards) sh.pending.reserve(cfg.batch_packets);
  const std::int32_t root = tr.begin("walk");
  while (feed->epochs_done() < spec.walk_epochs) {
    polled.clear();
    {
      Scoped s(tr, "capture.poll");
      feed->poll(polled, 256);
    }
    {
      Scoped s(tr, "pipeline.route");
      for (vpm::net::Packet& p : polled) {
        const unsigned si = vpm::pipeline::shard_of(p.tuple, nshards);
        shards[si].pending.push_back(std::move(p));
        if (shards[si].pending.size() >= cfg.batch_packets) {
          ready.emplace_back(si, std::move(shards[si].pending));
          shards[si].pending.clear();
          shards[si].pending.reserve(cfg.batch_packets);
        }
      }
    }
    for (auto& [si, batch] : ready) process(si, batch);
    ready.clear();
  }
  for (unsigned si = 0; si < nshards; ++si) {
    if (!shards[si].pending.empty()) process(si, shards[si].pending);
  }
  tr.end(root);

  // Self times: each span's duration minus its children's.
  const std::vector<Span>& spans = tr.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.start);
  }
  const auto self_of = [&](std::size_t i) {
    return static_cast<double>(spans[i].end - spans[i].start) - child[i];
  };
  std::unordered_map<std::string, double> self_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) self_ns[spans[i].name] += self_of(i);

  // Replay each round's payloads through the prefilter and the matcher.
  std::array<vpm::ScanScratch, kGroups> scratch, pf_scratch;
  std::vector<std::uint8_t> verdicts;
  double pf_ns = 0, scan_ns = 0, flush_self_ns = 0;
  std::uint64_t pf_bytes = 0, pf_passed = 0, fp = 0, scan_bytes = 0, matches = 0, vp_bytes = 0;
  vpm::core::ScanStats vstats;
  for (const Round& r : rounds) {
    double pf_part = 0, scan_part = 0;
    for (std::size_t g = 0; g < kGroups; ++g) {
      if (r.views[g].empty()) continue;
      std::vector<ByteView> views(r.views[g].begin(), r.views[g].end());
      std::vector<ByteView> passed;
      const vpm::core::PrefilterPtr& pf = rules->prefilter_for(static_cast<Group>(g));
      if (r.screened[g] && pf != nullptr) {
        verdicts.assign(views.size(), 0);
        const std::uint64_t t0 = now_ns();
        pf->screen_batch(views, verdicts.data(), pf_scratch[g]);
        pf_part += static_cast<double>(now_ns() - t0);
        for (std::size_t k = 0; k < views.size(); ++k) {
          pf_bytes += views[k].size();
          if (verdicts[k]) passed.push_back(views[k]);
        }
        pf_passed += passed.size();
      } else {
        passed = views;
      }
      const vpm::Matcher& m = rules->matcher_for(static_cast<Group>(g));
      HitSink hits;
      hits.hit.assign(passed.size(), 0);
      const std::uint64_t t0 = now_ns();
      m.scan_batch(passed, hits, scratch[g]);
      scan_part += static_cast<double>(now_ns() - t0);
      matches += hits.matches;
      for (std::size_t k = 0; k < passed.size(); ++k) {
        scan_bytes += passed[k].size();
        if (r.screened[g] && pf != nullptr && !hits.hit[k]) ++fp;
      }
      if (const auto* vp = dynamic_cast<const vpm::core::VpatchMatcher*>(&m)) {
        CountSink cs;
        for (ByteView v : passed) {
          vp->scan_with_stats(v, cs, vstats);
          vp_bytes += v.size();
        }
      }
    }
    const double flush_dur = self_of(static_cast<std::size_t>(r.flush_span));
    const double attributed = pf_part + scan_part;
    if (attributed > flush_dur && attributed > 0) {
      // The replay ran slower than the live round (colder caches); scale the
      // attribution to the span so the layers still sum to the wall time.
      pf_part *= flush_dur / attributed;
      scan_part *= flush_dur / attributed;
    }
    pf_ns += pf_part;
    scan_ns += scan_part;
    flush_self_ns += flush_dur - pf_part - scan_part;
  }

  WalkReport rep;
  rep.wall_s = static_cast<double>(spans[static_cast<std::size_t>(root)].end -
                                   spans[static_cast<std::size_t>(root)].start) * 1e-9;
  rep.tally = sink.tally();
  rep.epochs = feed->epochs_done();
  rep.spans = spans.size();
  const double walk_self = self_ns["walk"];
  const double capture_ns = self_ns["capture.poll"];
  const double ids_ns = self_ns["ids.stage"] + self_ns["ids.close"] + flush_self_ns;
  rep.self_s = {
      {"capture", capture_ns * 1e-9},
      {"pipeline", self_ns["pipeline.route"] * 1e-9},
      {"net", (self_ns["net.ingest"] + self_ns["net.evict"]) * 1e-9},
      {"ids", ids_ns * 1e-9},
      {"core.prefilter", pf_ns * 1e-9},
      {"match", scan_ns * 1e-9},
      {"trace", self_ns["trace.record"] * 1e-9},
      {"unattributed", walk_self * 1e-9},
  };

  vpm::net::ReassemblyStats rs;
  std::uint64_t chunks = 0;
  for (const Shard& sh : shards) {
    const vpm::net::ReassemblyStats& s = sh.reasm->stats();
    chunks += s.side[0].chunks + s.side[1].chunks;
    rs.dropped_segments += s.dropped_segments;
    rs.evicted_flows += s.evicted_flows;
    rs.side[0].overlap_bytes_trimmed += s.overlap_bytes_trimmed();
  }
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double kb = 1.0 / 1024.0;
  rep.metrics = {
      {"capture.poll_ns_per_pkt", per(capture_ns, static_cast<double>(packets))},
      {"capture.skipped", static_cast<double>(feed->stats().skipped)},
      {"net.ingest_self_ns_per_seg", per(self_ns["net.ingest"], static_cast<double>(segments))},
      {"net.chunks_per_seg", per(static_cast<double>(chunks), static_cast<double>(segments))},
      {"net.overlap_bytes_trimmed", static_cast<double>(rs.side[0].overlap_bytes_trimmed)},
      {"net.reassembly_drops", static_cast<double>(rs.dropped_segments)},
      {"net.evict_ns_per_call", per(self_ns["net.evict"], static_cast<double>(evict_calls))},
      {"net.peak_tracked", static_cast<double>(peak_tracked)},
      {"net.flows_evicted", static_cast<double>(rs.evicted_flows)},
      {"ids.stage_ns_per_chunk", per(self_ns["ids.stage"], static_cast<double>(stage_calls))},
      {"ids.scan_batch_width_mean", per(static_cast<double>(width_sum), static_cast<double>(flushes))},
      {"ids.forced_flushes_per_kpkt", per(static_cast<double>(forced) * 1e3, static_cast<double>(packets))},
      {"ids.flush_self_ns_per_round", per(flush_self_ns, static_cast<double>(rounds.size()))},
      {"core.prefilter_ns_per_kb", per(pf_ns, static_cast<double>(pf_bytes) * kb)},
      {"core.prefilter_fp_ratio", per(static_cast<double>(fp), static_cast<double>(pf_passed))},
      {"match.scan_ns_per_kb", per(scan_ns, static_cast<double>(scan_bytes) * kb)},
      {"match.filter_time_frac", vstats.filter_time_fraction()},
      {"match.candidates_per_kb",
       per(static_cast<double>(vstats.short_candidates + vstats.long_candidates),
           static_cast<double>(vp_bytes) * kb)},
      {"match.f3_lane_util", vstats.f3_lane_utilization()},
      {"match.matches_per_kb", per(static_cast<double>(matches), static_cast<double>(scan_bytes) * kb)},
      {"trace.unattributed_frac", per(walk_self * 1e-9, rep.wall_s)},
  };

  if (!spans_path.empty()) {
    std::ofstream f(spans_path);
    f << "id\tparent\tbatch\tname\tstart_ns\tend_ns\n";
    const std::uint64_t origin = spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      f << i << '\t' << spans[i].parent << '\t' << spans[i].batch << '\t' << spans[i].name << '\t'
        << spans[i].start - origin << '\t' << spans[i].end - origin << '\n';
    }
  }
  return rep;
}

}  // namespace sensorbench
