// Packet-level sensor: the complete deployed-NIDS path — pcap capture in,
// TCP reassembly, protocol-grouped V-PATCH inspection, alerts out.
//
//   ./pcap_sensor <capture.pcap> [rules.rules]   inspect a real capture
//   ./pcap_sensor --demo                         generate + inspect a capture
//   ./pcap_sensor --source=SPEC ...              where packets come from:
//                                                pcap:FILE (same as the
//                                                positional form),
//                                                trace:mixed|evasion[,flows=..,
//                                                epochs=..] generated soak
//                                                traffic, afpacket:IFACE live
//                                                capture (VPM_WITH_AFPACKET)
//   ./pcap_sensor --cpu-list=0-3,8 ...           pin worker i to the i-th
//                                                listed CPU (and replicate the
//                                                compiled rules per NUMA node)
//   ./pcap_sensor --numa=auto ...                derive the pin list from the
//                                                detected topology, workers
//                                                interleaved across nodes
//   ./pcap_sensor --workers=N ...                shard flows across N workers
//   ./pcap_sensor --batch=N ...                  packets per ring batch (with
//                                                --workers; batches feed the
//                                                engines' scan_batch fast path)
//   ./pcap_sensor --algo=NAME ...                matcher engine; names come
//                                                from available_algorithms()
//                                                (see --help for this CPU)
//   ./pcap_sensor --swap-after=N ...             with --workers: quiesce after
//                                                N packets and hot-swap to a
//                                                freshly compiled database —
//                                                the zero-drop ruleset reload
//                                                path, end to end (alerts are
//                                                tagged per generation)
//   ./pcap_sensor --overlap-policy=NAME ...      TCP segment-overlap policy:
//                                                first|last|target_bsd|
//                                                target_linux (default first)
//
// Demo mode synthesizes HTTP flows (with deliberately reordered segments and
// planted attack payloads), writes a well-formed pcap to a temp file, then
// runs the inspection pipeline on it — proving a pattern split across TCP
// segments is still caught.  With --workers=N the capture is replayed
// through the sharded pipeline runtime (one reassembler + engine per
// worker), which reports the same alerts as the single-threaded path.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "capture/capture_telemetry.hpp"
#include "capture/pcap_source.hpp"
#include "capture/source.hpp"
#include "capture/topology.hpp"
#include "core/database.hpp"
#include "core/matcher_factory.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/snort_rules.hpp"
#include "pipeline/runtime.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson_sink.hpp"
#include "telemetry/pipeline_metrics.hpp"
#include "util/byte_io.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace {

using namespace vpm;

struct SensorOptions {
  unsigned workers = 0;           // 0 = single-threaded inspect_pcap path
  std::size_t batch_packets = 0;  // 0 = PipelineConfig default
  std::size_t swap_after = 0;     // 0 = no hot-swap
  std::string source_spec;        // --source= (positional pcap path otherwise)
  std::vector<int> worker_cpus;   // --cpu-list / --numa=auto pinning
  std::size_t max_packets = 0;    // stop a live/endless source after N (0 = no cap)
  core::Algorithm algo = core::Algorithm::vpatch;
  core::PrefilterMode prefilter = core::PrefilterMode::automatic;
  net::ReassemblyConfig reassembly;
  int metrics_port = -1;          // >= 0: serve /metrics on this port (0 = ephemeral)
  unsigned serve_seconds = 0;     // keep the /metrics endpoint up after the run
  std::string alert_json;         // non-empty: NDJSON alert file
  pipeline::OverloadConfig overload;  // degradation ladder (disabled by default)
  std::string overload_name = "off";
  std::string fail_spec;          // non-empty: arm failpoints (chaos runs)
  std::uint64_t fail_seed = 1;
};

// Registers each directional flow with the NDJSON sink as the producer first
// sees it, so alert lines carry the 5-tuple.  Direction heuristic, mirroring
// the reassembler's client pinning: the reverse side already seen => this is
// its opposite; a SYN|ACK opener => server-to-client; otherwise the first
// speaker is the client.
class FlowRegistrar {
 public:
  explicit FlowRegistrar(telemetry::NdjsonAlertSink& sink) : sink_(sink) {}

  void see(const net::Packet& p) {
    const std::uint64_t key = pipeline::flow_key(p.tuple);
    if (dirs_.find(key) != dirs_.end()) return;
    net::Direction dir = net::Direction::client_to_server;
    const auto rev = dirs_.find(pipeline::flow_key(p.tuple.reversed()));
    if (rev != dirs_.end()) {
      dir = rev->second == net::Direction::client_to_server
                ? net::Direction::server_to_client
                : net::Direction::client_to_server;
    } else if (p.tuple.proto == net::IpProto::tcp &&
               (p.tcp_flags & net::kTcpSyn) != 0 && (p.tcp_flags & net::kTcpAck) != 0) {
      dir = net::Direction::server_to_client;
    }
    dirs_.emplace(key, dir);
    sink_.register_flow(key, p.tuple, dir);
  }

 private:
  telemetry::NdjsonAlertSink& sink_;
  std::unordered_map<std::uint64_t, net::Direction> dirs_;
};

int run_sharded(capture::CaptureSource& source, const pattern::PatternSet& rules,
                const SensorOptions& opt) {
  // Compile once, share everywhere: the database owns its pattern copy and
  // is handed to the runtime as an immutable artifact.
  const DatabasePtr db = compile(opt.algo, rules);

  // Declared before the runtime: instruments registered by the workers live
  // here and must outlive them.
  telemetry::MetricsRegistry registry;

  pipeline::PipelineConfig cfg;
  cfg.workers = opt.workers;
  cfg.prefilter = opt.prefilter;
  cfg.reassembly = opt.reassembly;
  cfg.overload = opt.overload;
  cfg.worker_cpus = opt.worker_cpus;
  // Pinned workers get per-NUMA-node replicas of the compiled ruleset.
  cfg.numa_replicate_rules = !opt.worker_cpus.empty();
  if (opt.batch_packets > 0) cfg.batch_packets = opt.batch_packets;
  if (opt.metrics_port >= 0) cfg.metrics = &registry;

  // --alert-json: alerts stream to the NDJSON file as workers find them, and
  // forward into `collected` (under the sink's lock) so the end-of-run
  // report below stays identical.
  std::vector<ids::Alert> collected;
  ids::AlertBuffer collect_sink{collected};
  std::unique_ptr<telemetry::NdjsonAlertSink> json_sink;
  std::unique_ptr<FlowRegistrar> registrar;
  if (!opt.alert_json.empty()) {
    json_sink = std::make_unique<telemetry::NdjsonAlertSink>(opt.alert_json, &rules,
                                                             &collect_sink);
    registrar = std::make_unique<FlowRegistrar>(*json_sink);
    cfg.alert_sink = json_sink.get();
  }

  pipeline::PipelineRuntime rt(db, cfg);
  if (cfg.numa_replicate_rules && rt.rules_replicas() > 1) {
    std::printf("numa: %zu ruleset replicas across pinned nodes\n",
                rt.rules_replicas());
  }

  std::unique_ptr<capture::CaptureTelemetry> capture_metrics;
  if (opt.metrics_port >= 0) {
    capture_metrics =
        std::make_unique<capture::CaptureTelemetry>(registry, source.kind());
  }

  // The exporter outlives nothing: declared after the runtime so its
  // destructor joins the listener thread before `rt` (which its /metrics
  // source snapshots) is torn down.
  std::unique_ptr<telemetry::HttpExporter> exporter;
  if (opt.metrics_port >= 0) {
    telemetry::HttpExporterConfig ecfg;
    ecfg.port = static_cast<std::uint16_t>(opt.metrics_port);
    exporter = std::make_unique<telemetry::HttpExporter>(ecfg);
    exporter->add_registry(registry);
    exporter->add_source([&rt](std::string& out) {
      telemetry::render_pipeline_prometheus(out, rt.stats());
    });
    exporter->start();
    std::printf("metrics: http://%s:%u/metrics\n", ecfg.bind_address.c_str(),
                exporter->port());
    // Visible immediately even when stdout is a pipe/file: scripts watch for
    // this line to learn the bound (possibly ephemeral) port.
    std::fflush(stdout);
  }

  rt.start();
  // Compiled outside the timed region: the control-plane cost of producing a
  // new ruleset (bench_compile measures it) must not distort the data-plane
  // Gbps this mode reports alongside the non-swap one.
  DatabasePtr db2;
  if (opt.swap_after > 0) {
    db2 = compile(opt.algo, rules);  // stands in for a newly distributed ruleset
  }
  const auto submit = [&](net::Packet& p) {
    if (registrar != nullptr) registrar->see(p);
    rt.submit(std::move(p));
  };
  // One pull loop for every source kind: the file source exhausts, the trace
  // source exhausts after its epochs (or never, epochs=0), the ring source
  // never does — --max-packets bounds the latter two.
  util::Timer timer;
  std::vector<net::Packet> pulled;
  std::size_t submitted = 0;
  bool swapped = db2 == nullptr;
  while (!source.exhausted() &&
         (opt.max_packets == 0 || submitted < opt.max_packets)) {
    pulled.clear();
    if (source.poll(pulled, 256) == 0) continue;  // ring sources wait inside
    for (net::Packet& p : pulled) {
      submit(p);
      ++submitted;
      if (!swapped && submitted >= opt.swap_after) {
        // Quiesce-then-swap: every packet so far is attributed to generation
        // 1, everything after to generation 2 — the zero-drop reload recipe.
        rt.quiesce();
        rt.swap_database(db2);
        swapped = true;
      }
    }
    if (capture_metrics != nullptr) capture_metrics->publish(source);
  }
  rt.stop();
  const double secs = timer.seconds();
  if (capture_metrics != nullptr) capture_metrics->publish(source);
  if (json_sink != nullptr) json_sink->flush();

  // With --alert-json the live sink collected the alerts; otherwise the
  // runtime buffered them per worker.
  const std::vector<ids::Alert>& alerts =
      json_sink != nullptr ? collected : rt.alerts();

  if (db2 != nullptr && swapped) {
    std::size_t gen1 = 0, gen2 = 0;
    for (const ids::Alert& a : alerts) {
      if (a.generation == db->generation()) ++gen1;
      if (a.generation == db2->generation()) ++gen2;
    }
    std::printf("hot-swap after %zu packets: %zu alerts under generation %llu, "
                "%zu under generation %llu (fingerprints %016llx / %016llx)\n",
                opt.swap_after, gen1,
                static_cast<unsigned long long>(db->generation()), gen2,
                static_cast<unsigned long long>(db2->generation()),
                static_cast<unsigned long long>(db->fingerprint()),
                static_cast<unsigned long long>(db2->fingerprint()));
  }

  const auto cap_stats = source.stats();
  const auto stats = rt.stats();
  const auto totals = stats.totals();
  std::printf("%zu packets (skipped %llu), batch %zu, overlap policy %s, "
              "overload policy %s, prefilter %s\n",
              submitted, static_cast<unsigned long long>(cap_stats.skipped),
              cfg.batch_packets, net::overlap_policy_name(opt.reassembly.overlap),
              opt.overload_name.c_str(),
              std::string(core::prefilter_mode_name(opt.prefilter)).c_str());
  std::printf("%s\n", capture::describe_capture_stats(source).c_str());
  // The one shared stats formatter (every WorkerStats field, totals + per
  // worker) — the same field table the /metrics endpoint renders from.
  std::fputs(telemetry::describe_pipeline_stats(stats).c_str(), stdout);
  std::printf("inspected %llu payload bytes in %.3f s (%.2f Gbps end-to-end, "
              "%.0f kpkt/s)\n",
              static_cast<unsigned long long>(totals.bytes_inspected), secs,
              util::gbps(totals.bytes_inspected, secs),
              secs > 0 ? static_cast<double>(submitted) / secs / 1e3 : 0.0);
  std::printf("%zu alerts; first 10:\n", alerts.size());
  for (std::size_t i = 0; i < alerts.size() && i < 10; ++i) {
    std::printf("  %s\n", format_alert(alerts[i], rules).c_str());
  }
  if (json_sink != nullptr) {
    std::printf("wrote %llu NDJSON alerts to %s%s\n",
                static_cast<unsigned long long>(json_sink->emitted()),
                opt.alert_json.c_str(),
                json_sink->ok() ? "" : " (WRITE ERRORS)");
  }

  if (exporter != nullptr && opt.serve_seconds > 0) {
    std::printf("serving /metrics for %u more seconds...\n", opt.serve_seconds);
    std::this_thread::sleep_for(std::chrono::seconds(opt.serve_seconds));
  }
  return json_sink != nullptr && !json_sink->ok() ? 1 : 0;
}

// Opens the source spec and routes to the sharded pipeline or the
// single-threaded inspect_pcap reference.  The reference path consumes raw
// pcap bytes; a trace source is drained and round-tripped through the pcap
// writer so both paths inspect the identical byte stream.
int run(const util::Bytes& pcap_bytes, const pattern::PatternSet& rules,
        const SensorOptions& opt);

int dispatch(const std::string& spec, const pattern::PatternSet& rules,
             const SensorOptions& opt) {
  std::unique_ptr<capture::CaptureSource> source = capture::open_source(spec);
  if (opt.workers > 0) return run_sharded(*source, rules, opt);
  if (const auto* pf = dynamic_cast<const capture::PcapFileSource*>(source.get())) {
    return run(pf->raw(), rules, opt);
  }
  if (source->kind() == "trace") {
    std::vector<net::Packet> packets;
    while (!source->exhausted() &&
           (opt.max_packets == 0 || packets.size() < opt.max_packets)) {
      if (source->poll(packets, 4096) == 0) break;
    }
    if (opt.max_packets != 0 && packets.size() > opt.max_packets) {
      packets.resize(opt.max_packets);
    }
    return run(net::write_pcap(packets), rules, opt);
  }
  std::fprintf(stderr, "--source=%s is a live capture; add --workers=N\n",
               spec.c_str());
  return 2;
}

int run(const util::Bytes& pcap_bytes, const pattern::PatternSet& rules,
        const SensorOptions& opt) {
  util::Timer timer;
  const auto result = ids::inspect_pcap(pcap_bytes, compile(opt.algo, rules), opt.prefilter,
                                        opt.reassembly);
  const double secs = timer.seconds();

  std::printf("packets: %zu (skipped %zu), flows: %llu, reassembly drops: %llu, "
              "overlap bytes trimmed: %llu\n",
              result.packets, result.skipped_records,
              static_cast<unsigned long long>(result.counters.flows),
              static_cast<unsigned long long>(result.reassembly.dropped_segments),
              static_cast<unsigned long long>(result.reassembly.overlap_bytes_trimmed()));
  const net::ReassemblyStats& rs = result.reassembly;
  std::printf("reassembly [%s]: c2s %llu B in %llu chunks, s2c %llu B in %llu "
              "chunks, overwritten %llu B, connections %llu started / %llu ended "
              "(%llu fins, %llu resets), discarded on close %llu B\n",
              net::overlap_policy_name(opt.reassembly.overlap),
              static_cast<unsigned long long>(rs.side[0].delivered_bytes),
              static_cast<unsigned long long>(rs.side[0].chunks),
              static_cast<unsigned long long>(rs.side[1].delivered_bytes),
              static_cast<unsigned long long>(rs.side[1].chunks),
              static_cast<unsigned long long>(rs.side[0].overwritten_bytes +
                                              rs.side[1].overwritten_bytes),
              static_cast<unsigned long long>(rs.connections_started),
              static_cast<unsigned long long>(rs.connections_ended),
              static_cast<unsigned long long>(rs.fins),
              static_cast<unsigned long long>(rs.resets),
              static_cast<unsigned long long>(rs.discarded_on_close_bytes));
  std::printf("prefilter [%s]: passed %llu payloads / %llu B, rejected %llu "
              "payloads / %llu B\n",
              std::string(core::prefilter_mode_name(opt.prefilter)).c_str(),
              static_cast<unsigned long long>(result.counters.prefilter_pass_payloads),
              static_cast<unsigned long long>(result.counters.prefilter_pass_bytes),
              static_cast<unsigned long long>(result.counters.prefilter_reject_payloads),
              static_cast<unsigned long long>(result.counters.prefilter_reject_bytes));
  std::printf("inspected %llu payload bytes in %.3f s (%.2f Gbps incl. reassembly, "
              "%.0f kpkt/s)\n",
              static_cast<unsigned long long>(result.counters.bytes_inspected), secs,
              util::gbps(result.counters.bytes_inspected, secs),
              secs > 0 ? static_cast<double>(result.packets) / secs / 1e3 : 0.0);
  std::printf("%zu alerts; first 10:\n", result.alerts.size());
  for (std::size_t i = 0; i < result.alerts.size() && i < 10; ++i) {
    std::printf("  %s\n", format_alert(result.alerts[i], rules).c_str());
  }
  return 0;
}

int run_demo(const SensorOptions& opt) {
  std::printf("demo: synthesizing a capture with reordered segments and planted attacks\n\n");

  // Flows with 30% adjacent-segment reordering.
  net::FlowGenConfig cfg;
  cfg.flow_count = 6;
  cfg.bytes_per_flow = 1 << 20;
  cfg.reorder_fraction = 0.3;
  cfg.seed = 11;
  auto flows = net::generate_flows(cfg);

  // Plant an attack string ACROSS a segment boundary of flow 0: segment
  // payloads come from the stream, so patching the stream before packets are
  // cut would be invisible; instead patch two consecutive packets' payloads.
  const char* attack = "GET /cgi-bin/../../../../etc/passwd HTTP/1.1";
  std::vector<net::Packet*> flow0;
  for (auto& p : flows.packets) {
    if (p.tuple == flows.tuples[0]) flow0.push_back(&p);
  }
  if (flow0.size() >= 4) {
    net::Packet& a = *flow0[2];
    net::Packet& b = *flow0[3];
    const std::size_t len = std::strlen(attack);
    const std::size_t first = std::min(a.payload.size(), len / 2);
    std::memcpy(a.payload.data() + a.payload.size() - first, attack, first);
    std::memcpy(b.payload.data(), attack + first, std::min(b.payload.size(), len - first));
  }

  const auto pcap = net::write_pcap(flows.packets);
  std::printf("synthesized %zu packets (%zu KB) in memory\n\n", flows.packets.size(),
              pcap.size() >> 10);

  pattern::PatternSet rules;
  rules.add("/etc/passwd", true, pattern::Group::http);
  rules.add("cgi-bin/..", true, pattern::Group::http);
  rules.add("UNION SELECT", true, pattern::Group::http);
  rules.add("<script>alert(", true, pattern::Group::http);
  if (opt.workers > 0) {
    capture::PcapFileSource source(pcap);
    return run_sharded(source, rules, opt);
  }
  return run(pcap, rules, opt);
}

// The engine list is the factory's advertised contract for THIS CPU (vector
// variants only appear when the kernels can dispatch), never a hard-coded
// string that silently goes stale when an algorithm is added.
std::string algo_names() {
  std::string names;
  for (const core::Algorithm a : core::available_algorithms()) {
    if (!names.empty()) names += "|";
    names += core::algorithm_name(a);
  }
  return names;
}

void print_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--source=SPEC] [--workers=N] [--batch=N] [--algo=NAME] "
               "[--prefilter=MODE] [--swap-after=N] [--cpu-list=LIST] [--numa=auto] "
               "[--max-packets=N] "
               "[--overlap-policy=NAME] [--overload-policy=NAME] [--fail=SPEC] "
               "[--fail-seed=N] [--metrics-port=N] [--serve-seconds=N] "
               "[--alert-json=FILE] <capture.pcap> [rules.rules]  |  %s --demo\n"
               "  --source=SPEC    pcap:FILE | trace:mixed|evasion[,flows=N,"
               "seed=N,epochs=N] | afpacket:IFACE[,blocks=N,block_kb=N,fanout=ID] "
               "(a bare path means pcap)\n"
               "  --cpu-list=LIST  pin worker i to the i-th CPU of LIST (0-3,8) "
               "and replicate the ruleset per NUMA node\n"
               "  --numa=auto      derive the pin list from sysfs topology, "
               "interleaved across nodes\n"
               "  --max-packets=N  stop after N packets (endless/live sources)\n"
               "  --algo=NAME      matcher engine (default v-patch); available on "
               "this CPU:\n                   %s\n"
               "  --prefilter=MODE approximate q-gram prefilter ahead of the exact "
               "engines: on|off|auto (default auto; alerts are identical in every "
               "mode)\n"
               "  --swap-after=N   with --workers: hot-swap to a recompiled "
               "database after N packets\n"
               "  --overlap-policy=NAME  segment-overlap arbitration: "
               "first|last|target_bsd|target_linux (default first)\n"
               "  --overload-policy=NAME with --workers: graceful-degradation "
               "ladder: off|conservative|aggressive (default off)\n"
               "  --fail=SPEC      arm deterministic failpoints, e.g. "
               "ring_push=every:100,alert_sink_write=prob:0.01\n"
               "  --fail-seed=N    seed for probabilistic failpoint modes\n"
               "  --metrics-port=N with --workers: serve Prometheus /metrics and "
               "/healthz on port N (0 = ephemeral)\n"
               "  --serve-seconds=N      keep /metrics up N seconds after the run\n"
               "  --alert-json=FILE      with --workers: stream alerts as NDJSON "
               "(one JSON object per line) to FILE\n",
               prog, prog, algo_names().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  SensorOptions opt;
  bool demo = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      opt.workers = static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      opt.batch_packets =
          static_cast<std::size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strncmp(argv[i], "--swap-after=", 13) == 0) {
      opt.swap_after =
          static_cast<std::size_t>(std::strtoull(argv[i] + 13, nullptr, 10));
    } else if (std::strncmp(argv[i], "--source=", 9) == 0) {
      opt.source_spec = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--max-packets=", 14) == 0) {
      opt.max_packets =
          static_cast<std::size_t>(std::strtoull(argv[i] + 14, nullptr, 10));
    } else if (std::strncmp(argv[i], "--cpu-list=", 11) == 0) {
      const auto cpus = capture::parse_cpu_list(argv[i] + 11);
      if (!cpus || cpus->empty()) {
        std::fprintf(stderr, "bad --cpu-list=%s; expected e.g. 0-3,8\n",
                     argv[i] + 11);
        return 2;
      }
      opt.worker_cpus = *cpus;
    } else if (std::strcmp(argv[i], "--numa=auto") == 0) {
      opt.worker_cpus = capture::CpuTopology::detect().interleaved_cpus();
    } else if (std::strncmp(argv[i], "--metrics-port=", 15) == 0) {
      opt.metrics_port = static_cast<int>(std::strtol(argv[i] + 15, nullptr, 10));
      if (opt.metrics_port < 0 || opt.metrics_port > 65535) {
        std::fprintf(stderr, "bad --metrics-port=%s; expected 0..65535\n",
                     argv[i] + 15);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--serve-seconds=", 16) == 0) {
      opt.serve_seconds =
          static_cast<unsigned>(std::strtoul(argv[i] + 16, nullptr, 10));
    } else if (std::strncmp(argv[i], "--alert-json=", 13) == 0) {
      opt.alert_json = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--overload-policy=", 18) == 0) {
      const auto policy = pipeline::overload_policy_from_name(argv[i] + 18);
      if (!policy) {
        std::fprintf(stderr,
                     "unknown --overload-policy=%s; expected "
                     "off|conservative|aggressive\n",
                     argv[i] + 18);
        return 2;
      }
      opt.overload = *policy;
      opt.overload_name = argv[i] + 18;
    } else if (std::strncmp(argv[i], "--fail=", 7) == 0) {
      opt.fail_spec = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--fail-seed=", 12) == 0) {
      opt.fail_seed = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--overlap-policy=", 17) == 0) {
      const auto policy = net::overlap_policy_from_name(argv[i] + 17);
      if (!policy) {
        std::fprintf(stderr,
                     "unknown --overlap-policy=%s; expected "
                     "first|last|target_bsd|target_linux\n",
                     argv[i] + 17);
        return 2;
      }
      opt.reassembly.overlap = *policy;
    } else if (std::strncmp(argv[i], "--prefilter=", 12) == 0) {
      const auto mode = core::prefilter_mode_from_name(argv[i] + 12);
      if (!mode) {
        std::fprintf(stderr, "unknown --prefilter=%s; expected on|off|auto\n",
                     argv[i] + 12);
        return 2;
      }
      opt.prefilter = *mode;
    } else if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      const auto parsed = core::algorithm_from_name(argv[i] + 7);
      if (!parsed || !core::algorithm_available(*parsed)) {
        std::fprintf(stderr, "unknown or unavailable --algo=%s; available: %s\n",
                     argv[i] + 7, algo_names().c_str());
        return 2;
      }
      opt.algo = *parsed;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0]);
      return 0;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (opt.workers == 0) {
    if (opt.batch_packets > 0) {
      std::fprintf(
          stderr, "note: --batch=N only affects the sharded pipeline; add --workers=N\n");
    }
    if (opt.swap_after > 0) {
      std::fprintf(stderr,
                   "note: --swap-after=N only affects the sharded pipeline; add "
                   "--workers=N\n");
    }
    if (opt.metrics_port >= 0 || !opt.alert_json.empty()) {
      std::fprintf(stderr,
                   "note: --metrics-port/--alert-json require the sharded pipeline; "
                   "add --workers=N\n");
    }
  }
  // Chaos arming before any pipeline runs, so the failure paths of BOTH the
  // single-threaded and the sharded sensor can be exercised from the CLI
  // (equivalent to VPM_FAILPOINTS=<spec> in the environment).
  if (!opt.fail_spec.empty()) {
    const std::string err = util::failpoint::arm(opt.fail_spec, opt.fail_seed);
    if (!err.empty()) {
      std::fprintf(stderr, "bad --fail=%s: %s\n", opt.fail_spec.c_str(), err.c_str());
      return 2;
    }
  }
  const auto finish = [](int rc) {
    if (util::failpoint::any_armed()) {
      std::printf("failpoints:\n%s", util::failpoint::describe().c_str());
    }
    return rc;
  };
  if (demo) return finish(run_demo(opt));
  if (opt.source_spec.empty() && positional.empty()) {
    print_usage(argv[0]);
    return 2;
  }
  // Positional file and --source are the same thing: a bare path opens as a
  // pcap source, so the historical `pcap_sensor capture.pcap` form routes
  // through the exact code the live modes use.
  const std::string spec =
      !opt.source_spec.empty() ? opt.source_spec : std::string(positional[0]);
  const std::size_t rules_arg = opt.source_spec.empty() ? 1 : 0;
  pattern::PatternSet rules;
  if (positional.size() > rules_arg) {
    rules = pattern::patterns_from_rules(
        util::to_string(util::read_file(positional[rules_arg])));
  } else {
    rules = pattern::generate_ruleset(pattern::s1_config(1));
  }
  std::printf("%zu patterns\n", rules.size());
  try {
    return finish(dispatch(spec, rules, opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return finish(1);
  }
}
