// sensorbench: the end-to-end sensor benchmark.
//
//   sensorbench --workload NAME|all --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no telemetry attached;
// --trace 1 measures the per-layer metrics (telemetry-enabled pipeline runs
// interleaved with untraced ones, then the single-threaded layer walk).
// Every run's alerts are checked against the independent reference, and the
// drain and lifecycle identities are asserted; any failure makes the exit
// code non-zero.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/vpatch.hpp"
#include "sensorbench.hpp"
#include "telemetry/metrics.hpp"

namespace sensorbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v);
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                     &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

// Refuses numbers from a build that would not measure the shipped library.
bool build_guard(std::string& why) {
  const std::string type = SENSORBENCH_BUILD_TYPE;
  if (SENSORBENCH_LIB_SANITIZED) why = "the library was built with a sanitizer";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sensorbench was built with a sanitizer";
#endif
#ifndef __OPTIMIZE__
  why = "sensorbench was built without optimisation";
#endif
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    why = "CMake build type '" + type + "' is not an optimised build";
  }
  return why.empty();
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* source_name(SourceKind k) {
  switch (k) {
    case SourceKind::trace_mixed: return "trace:mixed";
    case SourceKind::trace_evasion: return "trace:evasion";
    case SourceKind::pcap: return "pcap:memory";
  }
  return "?";
}

// The pinning and host record: identical inputs and configuration show up
// as identical fingerprint / stream_hash / config on both commits.
std::string record_json(const Inputs& in, const Args& a) {
  const WorkloadSpec& s = in.spec();
  const vpm::pipeline::PipelineConfig cfg = in.pipeline_config(nullptr);
  const Placement place = placement(cfg.workers);
  std::string cpus;
  for (int c : place.workers) cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  std::ostringstream o;
  o << "{\"workload\":" << json_str(s.name) << ",\"seed\":" << a.seed
    << ",\"seconds\":" << num(a.seconds) << ",\"trace\":" << a.trace
    << ",\"ruleset\":" << json_str(s.ruleset) << ",\"patterns\":" << in.rules().size()
    << ",\"prefilter_groups\":" << in.prefilter_groups()
    << ",\"fingerprint\":" << json_str(hex(in.fingerprint()))
    << ",\"stream_hash\":" << json_str(hex(in.stream_hash()))
    << ",\"packets_per_epoch\":" << in.base_packets().size()
    << ",\"payload_bytes_per_epoch\":" << in.payload_bytes_per_epoch()
    << ",\"config\":{\"engine\":" << json_str(std::string(vpm::core::algorithm_name(s.algorithm)))
    << ",\"prefilter\":" << json_str(std::string(vpm::core::prefilter_mode_name(s.prefilter)))
    << ",\"workers\":" << cfg.workers << ",\"batch_packets\":" << cfg.batch_packets
    << ",\"ring_batches\":" << cfg.ring_batches
    << ",\"backpressure\":\"block\",\"idle_timeout_us\":" << cfg.idle_timeout_us
    << ",\"eviction_sweep_packets\":" << cfg.eviction_sweep_packets
    << ",\"eviction_max_steps\":" << cfg.eviction_max_steps << ",\"worker_cpus\":\"" << cpus
    << "\",\"submit_cpu\":" << place.submitter
    << ",\"phases\":" << (s.closed_phase ? "\"closed+open\"" : "\"open\"")
    << ",\"paced_pps\":" << num(s.paced_pps) << ",\"source\":" << json_str(source_name(s.source))
    << ",\"flows_per_epoch\":" << s.flows << ",\"bytes_per_flow\":" << s.bytes_per_flow << "}"
    << ",\"host\":{\"cpu\":" << json_str(cpu_model())
    << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"isa\":"
    << json_str(std::string(vpm::core::isa_name(vpm::core::resolve_isa(vpm::core::Isa::best))))
    << ",\"compiler\":" << json_str(__VERSION__)
    << ",\"build_type\":" << json_str(SENSORBENCH_BUILD_TYPE) << "}}";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

const std::uint64_t process_start_ns = now_ns();
double elapsed_s() { return static_cast<double>(now_ns() - process_start_ns) * 1e-9; }

// Quantile across every worker's instance of one histogram family.
vpm::telemetry::HistogramSnapshot merged(const vpm::telemetry::MetricsRegistry& reg,
                                         const char* name, unsigned workers) {
  vpm::telemetry::HistogramSnapshot m;
  for (unsigned w = 0; w < workers; ++w) {
    const vpm::telemetry::Histogram* h = reg.find_histogram(name, {{"worker", std::to_string(w)}});
    if (h == nullptr) continue;
    const vpm::telemetry::HistogramSnapshot s = h->snapshot();
    if (m.bounds.empty()) {
      m = s;
      continue;
    }
    for (std::size_t i = 0; i < m.counts.size(); ++i) m.counts[i] += s.counts[i];
    m.count += s.count;
    m.sum += s.sum;
  }
  return m;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void absorb(Result& r, const Verdict& v, const std::string& label) {
  r.attempted += v.attempted;
  r.failed += v.failed;
  if (v.failed > 0) r.correct = false;
  for (const std::string& p : v.problems) std::printf("FAIL %s: %s\n", label.c_str(), p.c_str());
}

void print_result_line(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].name.c_str(), num(r.metrics[i].value).c_str(),
                r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// The run is cut into consecutive windows of at least kWindowSeconds at
// submitted-batch boundaries; each end-to-end rate and percentile is taken
// per window and the median over windows is reported, so one host stall
// moves one window, not the run's figure.  The first window (rings filling
// from empty) is dropped when at least two others remain.
constexpr double kWindowSeconds = 1.0;

struct Windows {
  std::vector<double> gbps, kpps, latency_p50, latency_p99, lag_p99;
  std::size_t min_latency_samples = 0;
  double q99 = 0.99;
};

Windows windows(const RunOutcome& run, const Latency& lat) {
  Windows w;
  const auto& m = run.marks;
  std::vector<std::pair<std::size_t, std::size_t>> cuts;  // [begin, end) mark indices
  for (std::size_t b = 0, i = 1; i < m.size(); ++i) {
    if (m[i].due_ns - m[b].due_ns >= static_cast<std::uint64_t>(kWindowSeconds * 1e9)) {
      cuts.emplace_back(b, i);
      b = i;
    }
  }
  if (cuts.size() >= 3) cuts.erase(cuts.begin());
  // Latency samples per window and delivering worker.
  std::vector<std::vector<std::vector<double>>> lat_in(cuts.size());
  for (std::size_t k = 0, c = 0; k < lat.samples.size() && c < cuts.size(); ++k) {
    const Latency::Sample& s = lat.samples[k];
    if (s.due_ns < m[cuts[c].first].due_ns) continue;
    while (c < cuts.size() && s.due_ns >= m[cuts[c].second].due_ns) ++c;
    if (c == cuts.size()) break;
    if (lat_in[c].size() <= s.thread) lat_in[c].resize(s.thread + 1);
    lat_in[c][s.thread].push_back(s.us);
  }
  std::size_t fewest = cuts.empty() ? 0 : SIZE_MAX;
  for (const auto& per_thread : lat_in) {
    for (const auto& v : per_thread) {
      if (!v.empty()) fewest = std::min(fewest, v.size());
    }
  }
  w.min_latency_samples = fewest;
  // p99 where every worker's window supports it (at least 10 samples beyond
  // it), else the highest percentile that does.
  if (fewest < 1000) w.q99 = fewest > 20 ? 1.0 - 10.0 / static_cast<double>(fewest) : 0.5;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const auto [b, e] = cuts[c];
    const double secs = static_cast<double>(m[e].due_ns - m[b].due_ns) * 1e-9;
    w.gbps.push_back(static_cast<double>(m[e].bytes - m[b].bytes) * 8.0 / secs / 1e9);
    w.kpps.push_back(static_cast<double>(m[e].packet - m[b].packet) / secs / 1e3);
    w.lag_p99.push_back(quantile(std::vector<double>(run.lag_us.begin() + m[b].lag_index,
                                                     run.lag_us.begin() + m[e].lag_index),
                                 0.99));
    // A detection waits on the shard its flow hashes to: report the slowest
    // worker's percentile.
    double p50 = 0, p99 = 0;
    for (std::vector<double>& v : lat_in[c]) {
      if (v.empty()) continue;
      std::sort(v.begin(), v.end());
      p50 = std::max(p50, sorted_quantile(v, 0.5));
      p99 = std::max(p99, sorted_quantile(v, w.q99));
    }
    if (p50 > 0) {  // a window without samples has no latency to report
      w.latency_p50.push_back(p50);
      w.latency_p99.push_back(p99);
    }
  }
  return w;
}

void print_run(const char* phase, const RunOutcome& run, const Expectation& exp) {
  std::printf("%s: %.3f s wall, %llu packets, %llu payload bytes, %llu epochs, %llu alerts "
              "(reference %llu); whole-run %.4f Gbit/s %.2f kpkt/s\n",
              phase, run.wall_s, static_cast<unsigned long long>(run.packets),
              static_cast<unsigned long long>(run.payload_bytes),
              static_cast<unsigned long long>(run.epochs),
              static_cast<unsigned long long>(run.tally.count),
              static_cast<unsigned long long>(exp.tally.count),
              static_cast<double>(run.payload_bytes) * 8.0 / run.wall_s / 1e9,
              static_cast<double>(run.packets) / run.wall_s / 1e3);
}

Result end_to_end(const Inputs& in, const Args& a) {
  const WorkloadSpec& spec = in.spec();
  std::fprintf(stderr, "phase inputs ready at %.1f s\n", elapsed_s());
  // Throughput in a closed loop, then latency in an open loop at a fixed
  // rate below capacity: a saturated pipeline's latency is only its queue
  // depth divided by its throughput.
  std::vector<SetupTimes> setups;
  std::vector<RunOutcome> runs;
  if (spec.closed_phase) {
    RunOptions closed;
    closed.seconds = a.seconds / 2;
    closed.repeat_setup = true;
    closed.setup_times = &setups;
    runs.push_back(run_pipeline(in, closed));
  }
  RunOptions paced;
  paced.seconds = spec.closed_phase ? a.seconds / 2 : a.seconds;
  paced.open_loop = true;
  paced.repeat_setup = setups.empty();
  paced.setup_times = setups.empty() ? &setups : nullptr;
  runs.push_back(run_pipeline(in, paced));
  const double rss = peak_rss_mb();
  std::fprintf(stderr, "phase runs done at %.1f s\n", elapsed_s());

  const Reference ref = build_reference(in);
  std::uint64_t max_epochs = 0;
  for (const RunOutcome& run : runs) max_epochs = std::max(max_epochs, run.epochs);
  const std::vector<std::vector<std::uint64_t>> keys = in.epoch_flow_keys(max_epochs);
  Result r;
  std::vector<Expectation> exps;
  for (const RunOutcome& run : runs) {
    exps.push_back(expect(ref, keys, run.epochs));
    absorb(r, check_run(run, exps.back()), spec.name);
  }
  std::fprintf(stderr, "phase reference done at %.1f s\n", elapsed_s());
  const RunOutcome& paced_run = runs.back();
  const Latency lat = detection_latency(paced_run, in, ref, exps.back());
  const Windows rate = windows(runs.front(), Latency{});
  const Windows w = windows(paced_run, lat);

  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total());
  // Below capacity the generator's lag is microseconds of its own jitter,
  // which host interference can only add to; a submit() that blocks raises
  // it in every window.  The quietest window's p99 is the repeatable figure.
  const double lag_p99 =
      w.lag_p99.empty() ? 0.0 : *std::min_element(w.lag_p99.begin(), w.lag_p99.end());
  r.metrics = {
      {"gbps", median(rate.gbps), "Gbit/s"},
      {"kpps", median(rate.kpps), "kpkt/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", rss, "MiB"},
      {"latency_p50_us", median(w.latency_p50), "us"},
      {"latency_p99_us", median(w.latency_p99), "us"},
  };
  const double error_frac = r.attempted > 0 ? static_cast<double>(r.failed) /
                                                  static_cast<double>(r.attempted)
                                            : 1.0;
  if (spec.closed_phase) print_run("closed loop", runs.front(), exps.front());
  print_run("open loop", paced_run, exps.back());
  std::printf("windows: %zu + %zu of %.2f s; latency %zu samples (%llu unresolved, %llu past "
              "the sample buffers), fewest per worker and window %zu, p99 per window at q=%.4f\n",
              spec.closed_phase ? rate.gbps.size() : 0, w.gbps.size(), kWindowSeconds,
              lat.samples.size(), static_cast<unsigned long long>(lat.unresolved),
              static_cast<unsigned long long>(paced_run.samples_dropped), w.min_latency_samples,
              w.q99);
  // Printed, not gated: below capacity it measures host jitter (README).
  std::printf("metric %-30s %14.6f us (not in BENCHMARK.json)\n", "gen_lag_p99_us", lag_p99);
  std::printf("window gbps:");
  for (double g : rate.gbps) std::printf(" %.3f", g);
  std::printf("\nsetup_s runs:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nerror_frac %.9g ratio\n", error_frac);
  return r;
}

Result per_layer(const Inputs& in, const Args& a) {
  const WorkloadSpec& spec = in.spec();
  Result r;
  // Part 1: untraced and telemetry-enabled pipeline runs, interleaved with
  // alternating order after one warm-up run, so drift and warm-up do not
  // land on one side of trace.overhead_frac.
  constexpr int kPairs = 3;
  const double part = std::max(0.5, 0.6 * a.seconds / (2 * kPairs + 1));
  std::vector<RunOutcome> runs;
  std::vector<double> gbps_off, gbps_on;
  std::vector<SetupTimes> setups;
  double db_mb = 0;
  std::unique_ptr<vpm::telemetry::MetricsRegistry> reg;
  const auto gbps = [](const RunOutcome& r) {
    return static_cast<double>(r.payload_bytes) * 8.0 / r.wall_s / 1e9;
  };
  {
    RunOptions warm;
    warm.seconds = part;
    warm.open_loop = !spec.closed_phase;
    runs.push_back(run_pipeline(in, warm));
  }
  RunOutcome traced;
  for (int i = 0; i < 2 * kPairs; ++i) {
    const bool on = (i % 2 == 0) == (i / 2 % 2 == 1);  // off,on  on,off  off,on
    RunOptions opt;
    opt.seconds = part;
    opt.open_loop = !spec.closed_phase;
    if (on) {
      reg = std::make_unique<vpm::telemetry::MetricsRegistry>();
      opt.metrics = reg.get();
      opt.time_submit = true;
      opt.repeat_setup = setups.empty();
      opt.setup_times = setups.empty() ? &setups : nullptr;
      opt.db_memory_mb = &db_mb;
    }
    RunOutcome r = run_pipeline(in, opt);
    (on ? gbps_on : gbps_off).push_back(gbps(r));
    if (on) traced = r;
    runs.push_back(std::move(r));
  }
  std::fprintf(stderr, "phase pipeline runs done at %.1f s\n", elapsed_s());
  // Part 2: the single-threaded layer walk.
  std::string spans_path;
  if (!a.out_dir.empty()) {
    spans_path = a.out_dir + "/" + spec.name + "-seed" + std::to_string(a.seed) + ".spans.tsv";
  }
  const WalkReport walk = layer_walk(in, spans_path);
  std::fprintf(stderr, "phase layer walk done at %.1f s\n", elapsed_s());

  const Reference ref = build_reference(in);
  std::uint64_t max_epochs = walk.epochs;
  for (const RunOutcome& run : runs) max_epochs = std::max(max_epochs, run.epochs);
  const std::vector<std::vector<std::uint64_t>> keys = in.epoch_flow_keys(max_epochs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    absorb(r, check_run(runs[i], expect(ref, keys, runs[i].epochs)),
           spec.name + " pipeline run " + std::to_string(i));
  }
  {
    const Expectation exp = expect(ref, keys, walk.epochs);
    Verdict v;
    v.attempted = exp.tally.count;
    if (!(walk.tally == exp.tally)) {
      v.failed = 1;
      v.problems.push_back("layer walk alerts differ from the reference: got " +
                           std::to_string(walk.tally.count) + ", expected " +
                           std::to_string(exp.tally.count));
    }
    absorb(r, v, spec.name + " layer walk");
  }

  const vpm::pipeline::WorkerStats t = traced.stats.totals();
  const unsigned workers = static_cast<unsigned>(traced.stats.workers.size());
  const auto dwell = merged(*reg, "vpm_ring_dwell_seconds", workers);
  const auto scan = merged(*reg, "vpm_scan_latency_seconds", workers);
  std::uint64_t max_worker = 0;
  for (const auto& w : traced.stats.workers) max_worker = std::max(max_worker, w.packets);
  const double mean_worker = static_cast<double>(t.packets) / std::max(1u, workers);
  const std::uint64_t screened = t.prefilter_pass_payloads + t.prefilter_reject_payloads;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<double> des, con, sta;
  for (const SetupTimes& s : setups) {
    des.push_back(s.deserialize_s);
    con.push_back(s.construct_s);
    sta.push_back(s.start_s);
  }
  const auto walk_metric = [&](const std::string& name) {
    for (const auto& [k, v] : walk.metrics) {
      if (k == name) return v;
    }
    std::fprintf(stderr, "sensorbench: walk metric %s missing\n", name.c_str());
    return 0.0;
  };
  r.metrics = {
      {"capture.poll_ns_per_pkt", walk_metric("capture.poll_ns_per_pkt"), "ns"},
      {"capture.skipped", walk_metric("capture.skipped"), "count"},
      {"pipeline.submit_ns_per_pkt", ratio(static_cast<double>(traced.submit_ns),
                                           static_cast<double>(traced.packets)), "ns"},
      {"pipeline.batch_fill_mean", ratio(static_cast<double>(t.packets),
                                         static_cast<double>(t.batches)), "packets"},
      {"pipeline.ring_dwell_p50_us", dwell.quantile(0.5) * 1e6, "us"},
      {"pipeline.ring_dwell_p99_us", dwell.quantile(0.99) * 1e6, "us"},
      {"pipeline.worker_skew", ratio(static_cast<double>(max_worker), mean_worker), "ratio"},
      {"net.ingest_self_ns_per_seg", walk_metric("net.ingest_self_ns_per_seg"), "ns"},
      {"net.chunks_per_seg", walk_metric("net.chunks_per_seg"), "ratio"},
      {"net.overlap_bytes_trimmed", walk_metric("net.overlap_bytes_trimmed"), "bytes"},
      {"net.reassembly_drops", walk_metric("net.reassembly_drops"), "count"},
      {"net.evict_ns_per_call", walk_metric("net.evict_ns_per_call"), "ns"},
      {"net.peak_tracked", walk_metric("net.peak_tracked"), "count"},
      {"net.flows_evicted", walk_metric("net.flows_evicted"), "count"},
      {"ids.stage_ns_per_chunk", walk_metric("ids.stage_ns_per_chunk"), "ns"},
      {"ids.scan_batch_width_mean", walk_metric("ids.scan_batch_width_mean"), "chunks"},
      {"ids.forced_flushes_per_kpkt", walk_metric("ids.forced_flushes_per_kpkt"), "count"},
      {"ids.flush_self_ns_per_round", walk_metric("ids.flush_self_ns_per_round"), "ns"},
      {"ids.scan_round_p50_us", scan.quantile(0.5) * 1e6, "us"},
      {"ids.scan_round_p99_us", scan.quantile(0.99) * 1e6, "us"},
      {"ids.bytes_inspected_per_byte", ratio(static_cast<double>(t.bytes_inspected),
                                             static_cast<double>(t.payload_bytes)), "ratio"},
      {"core.prefilter_ns_per_kb", walk_metric("core.prefilter_ns_per_kb"), "ns"},
      {"core.prefilter_screened_frac", ratio(static_cast<double>(screened),
                                             static_cast<double>(t.chunks)), "ratio"},
      {"core.prefilter_pass_ratio", ratio(static_cast<double>(t.prefilter_pass_payloads),
                                          static_cast<double>(screened)), "ratio"},
      {"core.prefilter_fp_ratio", walk_metric("core.prefilter_fp_ratio"), "ratio"},
      {"match.scan_ns_per_kb", walk_metric("match.scan_ns_per_kb"), "ns"},
      {"match.filter_time_frac", walk_metric("match.filter_time_frac"), "ratio"},
      {"match.candidates_per_kb", walk_metric("match.candidates_per_kb"), "count"},
      {"match.f3_lane_util", walk_metric("match.f3_lane_util"), "ratio"},
      {"match.matches_per_kb", walk_metric("match.matches_per_kb"), "count"},
      {"core.deserialize_s", median(des), "s"},
      {"pipeline.construct_s", median(con), "s"},
      {"pipeline.start_s", median(sta), "s"},
      {"core.db_memory_mb", db_mb, "MiB"},
      {"trace.unattributed_frac", walk_metric("trace.unattributed_frac"), "ratio"},
      {"trace.overhead_frac", 1.0 - median(gbps_on) / median(gbps_off), "ratio"},
  };
  std::printf("layer walk: %.3f s wall over %llu epochs, %zu spans; self time by layer:",
              walk.wall_s, static_cast<unsigned long long>(walk.epochs), walk.spans);
  for (const auto& [layer, s] : walk.self_s) {
    std::printf(" %s=%.4fs(%.1f%%)", layer.c_str(), s, 100.0 * s / walk.wall_s);
  }
  std::printf("\npipeline (traced): scan rounds %llu, chunks per round %.2f\n",
              static_cast<unsigned long long>(scan.count),
              ratio(static_cast<double>(t.chunks), static_cast<double>(scan.count)));
  std::printf("gbps untraced:");
  for (double g : gbps_off) std::printf(" %.4f", g);
  std::printf("  traced:");
  for (double g : gbps_on) std::printf(" %.4f", g);
  std::printf("\n");
  return r;
}

int run(const Args& a) {
  std::string why;
  if (!build_guard(why)) {
    std::fprintf(stderr, "sensorbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  std::vector<const WorkloadSpec*> todo;
  if (a.workload == "all") {
    for (const WorkloadSpec& w : workloads()) todo.push_back(&w);
  } else if (const WorkloadSpec* w = find_workload(a.workload)) {
    todo.push_back(w);
  } else {
    std::fprintf(stderr, "sensorbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (!a.out_dir.empty()) std::filesystem::create_directories(a.out_dir);
  bool all_correct = true;
  for (const WorkloadSpec* spec : todo) {
    const Inputs in(*spec, a.seed);
    const std::string record = record_json(in, a);
    std::printf("record %s\n", record.c_str());
    const Result r = a.trace == 0 ? end_to_end(in, a) : per_layer(in, a);
    for (const Metric& m : r.metrics) {
      std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!a.out_dir.empty()) {
      std::ofstream f(a.out_dir + "/" + spec->name + "-seed" + std::to_string(a.seed) +
                      "-trace" + std::to_string(a.trace) + ".json");
      f << "{\"record\":" << record << ",\"correct\":" << (r.correct ? "true" : "false")
        << ",\"metrics\":{";
      for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        f << (i ? "," : "") << json_str(r.metrics[i].name) << ":" << num(r.metrics[i].value);
      }
      f << "}}\n";
    }
    std::fflush(stdout);
    print_result_line(r);
    std::fflush(stdout);
    all_correct = all_correct && r.correct;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace sensorbench

int main(int argc, char** argv) {
  sensorbench::Args a;
  if (!sensorbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: sensorbench --workload NAME|all --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  try {
    return sensorbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sensorbench: %s\n", e.what());
    return 1;
  }
}
