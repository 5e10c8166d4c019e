// Throughput of the sharded multi-worker pipeline runtime: generated TCP
// flows (with light reordering, so reassembly does real work) are packetized
// once, then replayed through PipelineRuntime sweeping worker counts and
// algorithms.  Reported Gbps is end-to-end — routing, ring transfer,
// reassembly, and grouped inspection included — which is the number a
// deployed sensor would see, unlike the matcher-only figure benches.
//
//   pipeline_throughput [--mb=N] [--runs=N] [--seed=N] [--quick] [--json=FILE]
//                       [--flows=N] [--reorder=PCT] [--evasion] [--telemetry]
//
// --evasion switches the generator to the adversarial corpus (handshakes,
// wrap-adjacent ISNs, conflicting retransmits, keep-alive probes,
// bidirectional streams, FIN/RST teardown) — a soak of the reassembler's
// slow paths under load rather than a best-case segment stream.
//
// --telemetry switches to the instrumentation-overhead mode: the same replay
// with the metrics registry off vs on, reporting the throughput delta
// (reported only, not enforced) plus p50/p99 scan latency and ring dwell
// from the recorded histograms.  The run fails only if telemetry changes the
// alert count.
//
// --source=trace --soak-seconds=N switches to the live-ingestion soak: an
// endless TraceSource (fresh flows every epoch) feeds the pipeline for N
// wall seconds with bounded incremental eviction, reporting steady-state
// kpkt/s, flow-table occupancy (tracked connections), and eviction debt.
//
// --churn=N is the million-flow churn phase: N distinct single-packet flows
// streamed through one worker with bounded-step eviction, proving the
// tables sustain >= 1M tracked flows, plus a direct FlowTable measurement
// of the full-sweep latency spike vs the bounded-step bound.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "capture/trace_source.hpp"
#include "common.hpp"
#include "net/flowgen.hpp"
#include "pipeline/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "util/flow_table.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {
namespace {

// Aggregate quantile across every worker's instance of one histogram family
// (same bucket layout by construction — one registration site).
telemetry::HistogramSnapshot merged_snapshot(const telemetry::MetricsRegistry& reg,
                                             const char* name, unsigned workers) {
  telemetry::HistogramSnapshot merged;
  for (unsigned w = 0; w < workers; ++w) {
    const telemetry::Histogram* h =
        reg.find_histogram(name, {{"worker", std::to_string(w)}});
    if (h == nullptr) continue;
    const telemetry::HistogramSnapshot s = h->snapshot();
    if (merged.bounds.empty()) {
      merged = s;
    } else {
      for (std::size_t i = 0; i < merged.counts.size(); ++i) merged.counts[i] += s.counts[i];
      merged.count += s.count;
      merged.sum += s.sum;
    }
  }
  return merged;
}

int telemetry_mode(const Options& opt, const pattern::PatternSet& rules,
                   const std::vector<net::Packet>& packets,
                   std::uint64_t payload_bytes) {
  const unsigned workers = std::min(4u, std::max(2u, std::thread::hardware_concurrency() / 2));
  std::printf("=== Telemetry overhead: %zu patterns, %zu packets, %u workers ===\n",
              rules.size(), packets.size(), workers);
  const std::vector<int> widths{22, 12, 12, 12, 12, 12, 12};
  print_row({"algorithm", "Gbps off", "Gbps on", "overhead%", "scan p50us",
             "scan p99us", "dwell p99us"},
            widths);

  JsonReport report("telemetry_overhead", opt);
  for (core::Algorithm algo :
       {core::Algorithm::aho_corasick, core::Algorithm::dfc, core::Algorithm::vpatch}) {
    if (!core::algorithm_available(algo)) continue;
    const DatabasePtr db = compile(algo, rules);

    util::RunningStats gbps_by_mode[2];  // [0]=off, [1]=on
    std::uint64_t alerts_by_mode[2] = {0, 0};
    telemetry::HistogramSnapshot scan_latency, ring_dwell;
    for (int mode = 0; mode < 2; ++mode) {
      for (unsigned r = 0; r <= opt.runs; ++r) {  // run 0 is the warm-up
        // Fresh registry per run so the final run's histograms describe one
        // replay, not an accumulation over warm-ups.
        telemetry::MetricsRegistry registry;
        pipeline::PipelineConfig cfg;
        cfg.workers = workers;
        if (mode == 1) cfg.metrics = &registry;
        pipeline::PipelineRuntime rt(db, cfg);
        rt.start();
        util::Timer timer;
        rt.submit(std::span<const net::Packet>(packets));
        rt.stop();
        const double secs = timer.seconds();
        if (r == 0) continue;
        gbps_by_mode[mode].add(util::gbps(payload_bytes, secs));
        alerts_by_mode[mode] = rt.stats().totals().alerts;
        if (mode == 1) {
          scan_latency = merged_snapshot(registry, "vpm_scan_latency_seconds", workers);
          ring_dwell = merged_snapshot(registry, "vpm_ring_dwell_seconds", workers);
        }
      }
    }
    // Telemetry must be an observer: identical alert totals off vs on (the
    // full multiset equality lives in telemetry_test).
    if (alerts_by_mode[0] != alerts_by_mode[1]) {
      std::fprintf(stderr, "FATAL: alert count changed with telemetry on (%llu vs %llu)\n",
                   static_cast<unsigned long long>(alerts_by_mode[0]),
                   static_cast<unsigned long long>(alerts_by_mode[1]));
      return 1;
    }
    const double off = gbps_by_mode[0].mean();
    const double on = gbps_by_mode[1].mean();
    const double overhead_pct = off > 0 ? (off - on) / off * 100.0 : 0.0;
    const double p50_us = scan_latency.quantile(0.50) * 1e6;
    const double p99_us = scan_latency.quantile(0.99) * 1e6;
    const double dwell_p99_us = ring_dwell.quantile(0.99) * 1e6;
    print_row({std::string(core::algorithm_name(algo)), fmt(off), fmt(on),
               fmt(overhead_pct), fmt(p50_us), fmt(p99_us), fmt(dwell_p99_us)},
              widths);
    report.add({{"algorithm", std::string(core::algorithm_name(algo))}},
               {{"gbps_off", off},
                {"gbps_on", on},
                {"overhead_pct", overhead_pct},
                {"scan_latency_p50_us", p50_us},
                {"scan_latency_p99_us", p99_us},
                {"ring_dwell_p99_us", dwell_p99_us}},
               {{"workers", workers},
                {"alerts", alerts_by_mode[1]},
                {"packets", packets.size()},
                {"scan_rounds", scan_latency.count}});
  }
  return report.write() ? 0 : 1;
}

// --source=trace --soak-seconds=N: steady-state ingestion from an endless
// generated trace.  Every epoch remaps the server address, so the flow
// tables see continuous arrival of NEW flows while old epochs age out
// through bounded incremental eviction — the deployed-sensor steady state,
// not a replay that ends.
int soak_mode(const Options& opt, std::size_t flow_count, double soak_seconds,
              std::size_t evict_steps) {
  capture::TraceConfig tc;
  tc.profile = "mixed";
  tc.flows = flow_count;
  tc.bytes_per_flow = 32 * 1024;
  tc.seed = opt.seed + 7;
  tc.epochs = 0;  // endless
  capture::TraceSource source(tc);

  // One epoch's capture-time span; an idle timeout of one span means a
  // flow's state lives ~one epoch past its last packet, so the live set
  // hovers around two epochs' flows and eviction runs continuously.
  std::uint64_t span_us = 0;
  for (const net::Packet& p : source.base().packets) {
    span_us = std::max(span_us, p.timestamp_us);
  }

  pipeline::PipelineConfig cfg;
  cfg.workers = std::max(1u, std::thread::hardware_concurrency() / 2);
  cfg.idle_timeout_us = span_us;
  cfg.eviction_max_steps = evict_steps;
  pipeline::PipelineRuntime rt(compile(core::Algorithm::vpatch, s1_web_patterns(opt.seed)),
                               cfg);
  rt.start();

  std::printf("=== Capture soak: trace source, %zu flows/epoch, %zu pkt/epoch, "
              "%u workers, eviction bound %zu slots/sweep, %.0f s ===\n",
              flow_count, source.packets_per_epoch(), cfg.workers, evict_steps,
              soak_seconds);
  const std::vector<int> widths{10, 12, 14, 14, 14};
  print_row({"t_s", "kpkt/s", "tracked", "evicted", "epochs"}, widths);

  util::Timer wall;
  std::vector<net::Packet> batch;
  std::uint64_t submitted = 0, last_sampled = 0;
  double last_sample_t = 0.0;
  util::RunningStats steady_kpps;  // samples after the first (warm-up) second
  std::uint64_t peak_tracked = 0;
  while (wall.seconds() < soak_seconds) {
    batch.clear();
    source.poll(batch, 256);
    for (net::Packet& p : batch) rt.submit(std::move(p));
    submitted += batch.size();
    const double t = wall.seconds();
    if (t - last_sample_t >= 1.0) {
      const auto totals = rt.stats().totals();
      const double kpps =
          static_cast<double>(submitted - last_sampled) / (t - last_sample_t) / 1e3;
      peak_tracked = std::max(peak_tracked, totals.tracked_connections);
      if (last_sample_t > 0.0) steady_kpps.add(kpps);  // skip warm-up interval
      print_row({fmt(t, 1), fmt(kpps, 0), std::to_string(totals.tracked_connections),
                 std::to_string(totals.flows_evicted),
                 std::to_string(submitted / source.packets_per_epoch())},
                widths);
      last_sampled = submitted;
      last_sample_t = t;
    }
  }
  rt.stop();
  const double secs = wall.seconds();
  const auto totals = rt.stats().totals();
  // Debt: connections still tracked beyond the roughly one-epoch live set —
  // flows whose eviction the bounded sweeps have not reached yet.
  const std::uint64_t live_estimate = flow_count;
  const std::uint64_t debt = totals.tracked_connections > live_estimate
                                 ? totals.tracked_connections - live_estimate
                                 : 0;
  std::printf("soak: %llu packets in %.1f s (steady %.0f kpkt/s), "
              "%llu connections started / %llu ended, %llu evicted, "
              "final tracked %llu (eviction debt ~%llu)\n",
              static_cast<unsigned long long>(submitted), secs, steady_kpps.mean(),
              static_cast<unsigned long long>(totals.connections_started),
              static_cast<unsigned long long>(totals.connections_ended),
              static_cast<unsigned long long>(totals.flows_evicted),
              static_cast<unsigned long long>(totals.tracked_connections),
              static_cast<unsigned long long>(debt));

  JsonReport report("capture_soak", opt);
  report.add({{"mode", "soak"}, {"profile", "trace:mixed"}},
             {{"steady_kpps", steady_kpps.mean()},
              {"kpps_stddev", steady_kpps.stddev()},
              {"soak_seconds", secs}},
             {{"workers", cfg.workers},
              {"flows_per_epoch", flow_count},
              {"packets", submitted},
              {"eviction_max_steps", evict_steps},
              {"connections_started", totals.connections_started},
              {"connections_ended", totals.connections_ended},
              {"flows_evicted", totals.flows_evicted},
              {"peak_tracked", peak_tracked},
              {"final_tracked", totals.tracked_connections},
              {"eviction_debt", debt}});
  return report.write() ? 0 : 1;
}

// --churn=N: million-flow scale.  Part 1 measures the eviction pause
// directly on a FlowTable (full sweep vs bounded steps over the same
// table).  Part 2 streams N single-packet flows through one pipeline worker
// with bounded eviction and verifies the tables sustain the load and the
// lifecycle identity started == ended + still-tracked holds.
int churn_mode(const Options& opt, std::size_t total_flows, std::size_t evict_steps) {
  std::printf("=== Flow-table churn: %zu flows, eviction bound %zu ===\n",
              total_flows, evict_steps);

  // Part 1: the latency-spike comparison the bounded sweep exists for.
  util::FlowTable<std::uint64_t, std::uint64_t, util::U64Hash> table;
  for (std::uint64_t i = 0; i < total_flows; ++i) {
    table.find_or_emplace(i, [&] { return i; });
  }
  util::Timer t_full;
  // Sweep evicting nothing: pure scan cost, the floor of the pause a full
  // sweep inflicts on the packet path at this table size.  The visit counter
  // keeps the scan observable (a result-free sweep is dead code to the
  // optimizer, which benchmarks an empty loop at 0 ms).
  std::uint64_t visited_full = 0;
  table.sweep_step(table.capacity(), [&](std::uint64_t, std::uint64_t) {
    ++visited_full;
    return false;
  });
  const double full_ms = t_full.seconds() * 1e3;
  double max_step_ms = 0.0;
  std::size_t step_calls = 0;
  std::uint64_t visited_stepped = 0;
  for (std::size_t visited = 0; visited < table.capacity();
       visited += evict_steps, ++step_calls) {
    util::Timer t_step;
    table.sweep_step(evict_steps, [&](std::uint64_t, std::uint64_t) {
      ++visited_stepped;
      return false;
    });
    max_step_ms = std::max(max_step_ms, t_step.seconds() * 1e3);
  }
  if (visited_full != table.size() || visited_stepped != table.size()) {
    std::fprintf(stderr, "churn: sweep visit counts diverged (%llu/%llu vs %zu)\n",
                 static_cast<unsigned long long>(visited_full),
                 static_cast<unsigned long long>(visited_stepped), table.size());
    return 1;
  }
  std::printf("eviction pause at %zu entries (capacity %zu): full sweep %.2f ms; "
              "bounded %zu-slot step max %.4f ms over %zu calls\n",
              table.size(), table.capacity(), full_ms, evict_steps, max_step_ms,
              step_calls);

  // Part 2: the pipeline sustaining a tracked set at total_flows' scale.
  // Single-packet flows 1 us apart, idle timeout at 5/8 of the capture
  // span: the tracked set climbs to ~62% of total_flows (>= 1M tracked at
  // --churn=2000000) before idle eviction engages, and from there every
  // batch retires at most eviction_max_steps slots — bounded per-batch cost
  // while the table stays millions deep.
  pipeline::PipelineConfig cfg;
  cfg.workers = 1;
  cfg.idle_timeout_us = static_cast<std::uint64_t>(total_flows) * 5 / 8;
  cfg.eviction_max_steps = evict_steps;
  pipeline::PipelineRuntime rt(compile(core::Algorithm::vpatch, s1_web_patterns(opt.seed)),
                               cfg);
  rt.start();
  util::Timer wall;
  std::uint64_t peak_tracked = 0;
  net::Packet p;
  p.tuple.dst_ip = 0xC0A80001;
  p.tuple.src_port = 49152;
  p.tuple.dst_port = 80;
  p.payload = util::Bytes{'G', 'E', 'T', ' ', '/', 'x', ' ', 'H',
                          'T', 'T', 'P', '/', '1', '.', '1', '\n'};
  for (std::uint64_t i = 0; i < total_flows; ++i) {
    p.timestamp_us = i;
    p.tuple.src_ip = static_cast<std::uint32_t>(0x0B000000 + i);
    rt.submit(p);
    if ((i + 1) % 65536 == 0) {
      peak_tracked = std::max(peak_tracked, rt.stats().totals().tracked_connections);
    }
  }
  rt.stop();
  const double secs = wall.seconds();
  const auto totals = rt.stats().totals();
  peak_tracked = std::max(peak_tracked, totals.tracked_connections);
  // Lifecycle identity: every connection ever started was either ended
  // (FIN/RST/eviction all finish through the same path) or is still
  // tracked.  An all-TCP workload keeps tracked_connections TCP-only.
  const bool identity_ok = totals.connections_started ==
                           totals.connections_ended + totals.tracked_connections;
  std::printf("churn: %zu flows in %.1f s (%.0f kpkt/s), peak tracked %llu, "
              "final tracked %llu, evicted %llu, identity started==ended+tracked %s\n",
              total_flows, secs, static_cast<double>(total_flows) / secs / 1e3,
              static_cast<unsigned long long>(peak_tracked),
              static_cast<unsigned long long>(totals.tracked_connections),
              static_cast<unsigned long long>(totals.flows_evicted),
              identity_ok ? "OK" : "VIOLATED");

  JsonReport report("capture_churn", opt);
  report.add({{"mode", "churn"}},
             {{"full_sweep_ms", full_ms},
              {"bounded_step_max_ms", max_step_ms},
              {"kpps", static_cast<double>(total_flows) / secs / 1e3}},
             {{"flows", total_flows},
              {"eviction_max_steps", evict_steps},
              {"table_capacity", table.capacity()},
              {"peak_tracked", peak_tracked},
              {"final_tracked", totals.tracked_connections},
              {"flows_evicted", totals.flows_evicted},
              {"connections_started", totals.connections_started},
              {"connections_ended", totals.connections_ended},
              {"identity_ok", identity_ok ? 1u : 0u}});
  if (!report.write()) return 1;
  return identity_ok ? 0 : 1;
}

int main_impl(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  std::size_t flow_count = 32;
  double reorder = 0.05;
  bool evasion = false;
  bool telemetry = false;
  double soak_seconds = 0.0;
  std::size_t churn_flows = 0;
  std::size_t evict_steps = 2048;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flow_count = static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--reorder=", 10) == 0) {
      reorder = std::strtod(argv[i] + 10, nullptr) / 100.0;
    } else if (std::strcmp(argv[i], "--evasion") == 0) {
      evasion = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strncmp(argv[i], "--soak-seconds=", 15) == 0) {
      soak_seconds = std::strtod(argv[i] + 15, nullptr);
    } else if (std::strncmp(argv[i], "--churn=", 8) == 0) {
      churn_flows = static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--evict-steps=", 14) == 0) {
      evict_steps = static_cast<std::size_t>(std::strtoull(argv[i] + 14, nullptr, 10));
    } else if (std::strncmp(argv[i], "--source=", 9) == 0) {
      // --source=trace is the only generated source here; accepted for
      // symmetry with pcap_sensor's flag.
      if (std::strcmp(argv[i] + 9, "trace") != 0) {
        std::fprintf(stderr, "only --source=trace is supported by this bench\n");
        return 2;
      }
    }
  }
  if (flow_count == 0) flow_count = 1;
  if (churn_flows > 0) return churn_mode(opt, churn_flows, evict_steps);
  if (soak_seconds > 0.0) {
    return soak_mode(opt, std::max<std::size_t>(flow_count, 256), soak_seconds,
                     evict_steps);
  }

  const auto rules = s1_web_patterns(opt.seed);

  net::FlowGenConfig fcfg;
  fcfg.flow_count = flow_count;
  fcfg.bytes_per_flow = std::max<std::size_t>((opt.trace_mb << 20) / flow_count, 1 << 16);
  fcfg.reorder_fraction = reorder;
  fcfg.seed = opt.seed + 40;
  fcfg.evasion = evasion;
  const auto flows = net::generate_flows(fcfg);
  std::uint64_t payload_bytes = 0;
  for (const auto& p : flows.packets) payload_bytes += p.payload.size();

  if (telemetry) return telemetry_mode(opt, rules, flows.packets, payload_bytes);

  std::printf("=== Pipeline throughput: %zu patterns, %zu flows x %zu KB, %zu packets "
              "(%.0f%% reordered%s), %u hw threads ===\n",
              rules.size(), flow_count, fcfg.bytes_per_flow >> 10, flows.packets.size(),
              reorder * 100, evasion ? ", evasion corpus" : "",
              std::thread::hardware_concurrency());
  const std::vector<int> widths{22, 10, 12, 12, 12, 12};
  print_row({"algorithm", "workers", "Gbps", "stddev", "scaling", "alerts"}, widths);

  JsonReport report("pipeline_throughput", opt);
  for (core::Algorithm algo :
       {core::Algorithm::aho_corasick, core::Algorithm::dfc, core::Algorithm::vpatch}) {
    if (!core::algorithm_available(algo)) continue;
    const DatabasePtr db = compile(algo, rules);
    double base = 0.0;
    for (unsigned workers : {1u, 2u, 4u}) {
      util::RunningStats stats;
      std::uint64_t alerts = 0;
      pipeline::WorkerStats totals{};
      for (unsigned r = 0; r <= opt.runs; ++r) {  // run 0 is the warm-up
        pipeline::PipelineConfig cfg;
        cfg.workers = workers;
        pipeline::PipelineRuntime rt(db, cfg);
        rt.start();
        util::Timer timer;
        rt.submit(std::span<const net::Packet>(flows.packets));
        rt.stop();
        const double secs = timer.seconds();
        if (r == 0) continue;
        stats.add(util::gbps(payload_bytes, secs));
        totals = rt.stats().totals();
        alerts = totals.alerts;
      }
      if (workers == 1) base = stats.mean();
      print_row({std::string(core::algorithm_name(algo)), std::to_string(workers),
                 fmt(stats.mean()), fmt(stats.stddev(), 3),
                 fmt(base > 0 ? stats.mean() / base : 0.0), std::to_string(alerts)},
                widths);
      report.add({{"algorithm", std::string(core::algorithm_name(algo))}},
                 {{"gbps_mean", stats.mean()}, {"gbps_stddev", stats.stddev()},
                  {"scaling", base > 0 ? stats.mean() / base : 0.0}},
                 {{"workers", workers}, {"alerts", alerts},
                  {"packets", flows.packets.size()},
                  {"c2s_delivered_bytes", totals.c2s_delivered_bytes},
                  {"s2c_delivered_bytes", totals.s2c_delivered_bytes},
                  {"discarded_on_close_bytes", totals.discarded_on_close_bytes}});
    }
  }
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace vpm::bench

int main(int argc, char** argv) { return vpm::bench::main_impl(argc, argv); }
