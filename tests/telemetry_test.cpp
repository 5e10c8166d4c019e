// The telemetry subsystem's contract suite: registry semantics (idempotent
// registration, kind safety, concurrent recording — the TSan target), exact
// histogram bucketing, the pinned Prometheus text rendering, the HTTP
// exporter over a real loopback socket, NDJSON alert lines (escaping, tuple
// enrichment, multiset fidelity), the field-table-driven stats surfaces, and
// the observer property: telemetry on vs off changes zero alerts.
#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "helpers.hpp"
#include "net/flowgen.hpp"
#include "pipeline/runtime.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson_sink.hpp"
#include "telemetry/pipeline_metrics.hpp"

namespace vpm {
namespace {

using telemetry::Labels;
using telemetry::MetricsRegistry;

// ---------------------------------------------------------------- escaping

TEST(JsonEscape, CoversControlAndQuoteCharacters) {
  EXPECT_EQ(telemetry::json_escaped("plain text"), "plain text");
  EXPECT_EQ(telemetry::json_escaped("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(telemetry::json_escaped("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(telemetry::json_escaped(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // Bytes >= 0x80 pass through: the payload may be UTF-8 and JSON allows it.
  EXPECT_EQ(telemetry::json_escaped("caf\xC3\xA9"), "caf\xC3\xA9");
}

// ------------------------------------------------------------- histograms

TEST(Histogram, BoundaryValuesLandInTheirLeBucket) {
  telemetry::Histogram h({1.0, 2.0, 4.0});
  // Prometheus `le` semantics: bucket i counts v <= bounds[i].
  h.record(0.5);
  h.record(1.0);  // exactly on a bound: belongs to that bucket
  h.record(1.5);
  h.record(2.0);
  h.record(3.0);
  h.record(5.0);  // past the last bound: +Inf bucket
  const auto s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(s.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(s.counts[2], 1u);  // 3.0
  EXPECT_EQ(s.counts[3], 1u);  // 5.0 (+Inf)
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0);
}

TEST(Histogram, QuantilesAreMonotonicAndBounded) {
  telemetry::Histogram h(telemetry::exponential_buckets(1.0, 2.0, 10));
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i % 300));
  const auto s = h.snapshot();
  double prev = 0.0;
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double v = s.quantile(q);
    EXPECT_GE(v, prev) << "quantile must be monotonic in q (q=" << q << ")";
    prev = v;
  }
  // The +Inf bucket reports the last finite bound, never infinity.
  telemetry::Histogram tiny({1.0});
  tiny.record(100.0);
  EXPECT_DOUBLE_EQ(tiny.snapshot().quantile(0.99), 1.0);
  // Empty histogram: quantile is 0, not NaN.
  EXPECT_DOUBLE_EQ(telemetry::Histogram({1.0}).snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, BucketHelpersValidateArguments) {
  EXPECT_EQ(telemetry::exponential_buckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(telemetry::linear_buckets(1.0, 8.0, 3),
            (std::vector<double>{1.0, 9.0, 17.0}));
  EXPECT_THROW(telemetry::exponential_buckets(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(telemetry::exponential_buckets(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(telemetry::linear_buckets(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(telemetry::Histogram({1.0, 1.0}), std::invalid_argument);
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, RegistrationIsIdempotentPerNameAndLabels) {
  MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("ops_total", "ops", {{"worker", "0"}});
  telemetry::Counter& b = reg.counter("ops_total", "ops", {{"worker", "0"}});
  telemetry::Counter& c = reg.counter("ops_total", "ops", {{"worker", "1"}});
  EXPECT_EQ(&a, &b) << "same (name, labels) must return the same instrument";
  EXPECT_NE(&a, &c) << "different labels are a different series";

  telemetry::Histogram& h1 =
      reg.histogram("lat_seconds", "l", telemetry::latency_buckets_seconds());
  telemetry::Histogram& h2 =
      reg.histogram("lat_seconds", "l", telemetry::latency_buckets_seconds());
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistry, KindAndBucketMismatchesThrow) {
  MetricsRegistry reg;
  reg.counter("ops_total", "ops");
  EXPECT_THROW(reg.gauge("ops_total", "ops"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("ops_total", "ops", {1.0}), std::invalid_argument);
  reg.histogram("lat", "l", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("lat", "l", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusRenderingMatchesGolden) {
  MetricsRegistry reg;
  reg.counter("vpm_ops_total", "Operations performed", {{"worker", "0"}}).add(7);
  reg.gauge("vpm_depth", "Queue depth").set(-3);
  telemetry::Histogram& h =
      reg.histogram("vpm_lat_seconds", "Latency", {0.001, 0.01}, {{"worker", "0"}});
  h.record(0.0005);
  h.record(0.0005);
  h.record(0.005);
  h.record(1.0);

  // Families sort by name; histogram buckets are CUMULATIVE with an +Inf
  // terminal, followed by _sum and _count.
  const std::string expected =
      "# HELP vpm_depth Queue depth\n"
      "# TYPE vpm_depth gauge\n"
      "vpm_depth -3\n"
      "# HELP vpm_lat_seconds Latency\n"
      "# TYPE vpm_lat_seconds histogram\n"
      "vpm_lat_seconds_bucket{worker=\"0\",le=\"0.001\"} 2\n"
      "vpm_lat_seconds_bucket{worker=\"0\",le=\"0.01\"} 3\n"
      "vpm_lat_seconds_bucket{worker=\"0\",le=\"+Inf\"} 4\n"
      "vpm_lat_seconds_sum{worker=\"0\"} 1.006\n"
      "vpm_lat_seconds_count{worker=\"0\"} 4\n"
      "# HELP vpm_ops_total Operations performed\n"
      "# TYPE vpm_ops_total counter\n"
      "vpm_ops_total{worker=\"0\"} 7\n";
  EXPECT_EQ(reg.render_prometheus(), expected);
}

// The TSan target: many threads hammer shared instruments; totals must be
// exact (relaxed atomics lose ordering, never increments).
TEST(MetricsRegistry, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  telemetry::Counter& counter = reg.counter("vpm_ops_total", "ops");
  telemetry::Gauge& gauge = reg.gauge("vpm_depth", "depth");
  telemetry::Histogram& hist = reg.histogram("vpm_lat", "lat", {1.0, 10.0, 100.0});

  constexpr int kThreads = 4;
  constexpr int kOps = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        counter.add(2);
        gauge.add(1);
        gauge.sub(1);
        hist.record(static_cast<double>((i + t) % 150));
        if (i % 1024 == 0) {
          // Concurrent scrapes must coexist with recording.
          std::string out;
          reg.render_prometheus(out);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kOps * 2);
  EXPECT_EQ(gauge.value(), 0);
  const auto s = hist.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kOps);
}

// ----------------------------------------------------------- field table

TEST(PipelineStatsSurfaces, FieldTableCoversEveryFieldOnEverySurface) {
  std::vector<std::string> names;
  pipeline::WorkerStats::for_each_field(
      [&](const char* name, pipeline::StatKind, auto) { names.emplace_back(name); });
  EXPECT_EQ(names.size(), pipeline::WorkerStats::kFieldCount);

  pipeline::PipelineStats stats;
  stats.workers.resize(2);
  const std::string human = telemetry::describe_pipeline_stats(stats);
  std::string prom;
  telemetry::render_pipeline_prometheus(prom, stats);
  for (const std::string& n : names) {
    EXPECT_NE(human.find(' ' + n + '='), std::string::npos)
        << "field '" << n << "' missing from the human formatter";
    EXPECT_TRUE(prom.find("vpm_worker_" + n + "_total{") != std::string::npos ||
                prom.find("vpm_worker_" + n + "{") != std::string::npos)
        << "field '" << n << "' missing from the Prometheus renderer";
  }
}

TEST(PipelineStatsSurfaces, GaugesAreNeverExportedAsCounters) {
  pipeline::PipelineStats stats;
  stats.workers.resize(1);
  std::string prom;
  telemetry::render_pipeline_prometheus(prom, stats);
  // Gauges: bare name, TYPE gauge, no _total suffix.
  EXPECT_NE(prom.find("# TYPE vpm_active_flows gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE vpm_rules_generation gauge"), std::string::npos);
  EXPECT_EQ(prom.find("vpm_active_flows_total"), std::string::npos);
  EXPECT_EQ(prom.find("vpm_rules_generation_total"), std::string::npos);
  // Counters: _total suffix, TYPE counter.
  EXPECT_NE(prom.find("# TYPE vpm_packets_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE vpm_worker_alerts_total counter"), std::string::npos);
}

TEST(PipelineStatsSurfaces, TotalsSumCountersAndGaugesButMaxGenerations) {
  pipeline::PipelineStats stats;
  stats.workers.resize(2);
  stats.workers[0].packets = 10;
  stats.workers[1].packets = 5;
  stats.workers[0].active_flows = 3;
  stats.workers[1].active_flows = 4;
  stats.workers[0].rules_generation = 1;  // mid-swap: workers straddle
  stats.workers[1].rules_generation = 2;
  stats.workers[0].rules_swaps = 0;
  stats.workers[1].rules_swaps = 1;
  const auto totals = stats.totals();
  EXPECT_EQ(totals.packets, 15u);           // counter: sum
  EXPECT_EQ(totals.active_flows, 7u);       // gauge: fleet-wide level sums
  EXPECT_EQ(totals.rules_generation, 2u);   // gauge_max: newest generation
  EXPECT_EQ(totals.rules_swaps, 1u);        // gauge_max, NOT sum of adoptions
}

// ----------------------------------------------------------- HTTP exporter

std::string http_request(std::uint16_t port, const std::string& head) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const std::string req = head + "\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0), static_cast<ssize_t>(req.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporter, ServesMetricsHealthzAndErrors) {
  MetricsRegistry reg;
  reg.counter("vpm_test_ops_total", "ops", {{"worker", "0"}}).add(42);

  telemetry::HttpExporterConfig cfg;
  cfg.bind_address = "127.0.0.1";
  cfg.port = 0;  // ephemeral
  telemetry::HttpExporter exporter(cfg);
  exporter.add_registry(reg);
  exporter.add_source([](std::string& out) { out += "vpm_extra_source 1\n"; });
  exporter.start();
  ASSERT_GT(exporter.port(), 0);

  const std::string metrics = http_request(exporter.port(), "GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(metrics.find("vpm_test_ops_total{worker=\"0\"} 42"), std::string::npos);
  EXPECT_NE(metrics.find("vpm_extra_source 1"), std::string::npos)
      << "sources must concatenate in registration order";

  const std::string health = http_request(exporter.port(), "GET /healthz HTTP/1.1");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  EXPECT_NE(http_request(exporter.port(), "GET /nope HTTP/1.1").find("404"),
            std::string::npos);
  EXPECT_NE(http_request(exporter.port(), "POST /metrics HTTP/1.1").find("405"),
            std::string::npos);

  EXPECT_GE(exporter.requests_served(), 4u);
  exporter.stop();
  exporter.stop();  // idempotent
}

// ------------------------------------------------------------ NDJSON sink

net::FiveTuple test_tuple() {
  net::FiveTuple t;
  t.src_ip = 0x0A000002;  // 10.0.0.2
  t.dst_ip = 0xC0A80001;  // 192.168.0.1
  t.src_port = 49152;
  t.dst_port = 80;
  t.proto = net::IpProto::tcp;
  return t;
}

TEST(NdjsonAlertSink, EmitsSchemaWithTupleEnrichmentAndEscaping) {
  pattern::PatternSet patterns;
  patterns.add("bad\"quote\npattern", true, pattern::Group::http);

  char* buffer = nullptr;
  std::size_t buffer_size = 0;
  std::FILE* mem = open_memstream(&buffer, &buffer_size);
  ASSERT_NE(mem, nullptr);
  {
    telemetry::NdjsonAlertSink sink(mem, &patterns);
    const net::FiveTuple tuple = test_tuple();
    sink.register_flow(77, tuple, net::Direction::client_to_server);
    sink.register_flow(77, tuple, net::Direction::server_to_client);  // ignored dup

    sink.on_alert(ids::Alert{77, 0, 1234, pattern::Group::http, 3});
    sink.on_alert(ids::Alert{99, 0, 5, pattern::Group::dns, 3});  // unregistered
    sink.flush();
    EXPECT_EQ(sink.emitted(), 2u);
    EXPECT_TRUE(sink.ok());
  }
  std::fclose(mem);
  const std::string out(buffer, buffer_size);
  free(buffer);

  const std::size_t newline = out.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string line1 = out.substr(0, newline);
  const std::string line2 = out.substr(newline + 1);

  // Registered flow: full tuple, first registration's direction wins.
  EXPECT_NE(line1.find("\"flow\":77"), std::string::npos);
  EXPECT_NE(line1.find("\"src_ip\":\"10.0.0.2\""), std::string::npos);
  EXPECT_NE(line1.find("\"src_port\":49152"), std::string::npos);
  EXPECT_NE(line1.find("\"dst_ip\":\"192.168.0.1\""), std::string::npos);
  EXPECT_NE(line1.find("\"dst_port\":80"), std::string::npos);
  EXPECT_NE(line1.find("\"proto\":\"tcp\""), std::string::npos);
  EXPECT_NE(line1.find("\"dir\":\"c2s\""), std::string::npos);
  EXPECT_NE(line1.find("\"group\":\"http\""), std::string::npos);
  EXPECT_NE(line1.find("\"offset\":1234"), std::string::npos);
  EXPECT_NE(line1.find("\"generation\":3"), std::string::npos);
  // The match text is Pattern::printable() (control bytes already hex-
  // escaped to \x0a form) pushed through the central JSON escaper, which
  // escapes the quote and the printable form's own backslashes.
  EXPECT_NE(line1.find("\"match\":\"bad\\\"quote\\\\x0apattern\""), std::string::npos);
  // No raw control bytes may survive into the line.
  EXPECT_EQ(line1.find('\n'), std::string::npos);

  // Unregistered flow: no tuple fields, the rest intact.
  EXPECT_NE(line2.find("\"flow\":99"), std::string::npos);
  EXPECT_EQ(line2.find("src_ip"), std::string::npos);
  EXPECT_NE(line2.find("\"group\":\"dns\""), std::string::npos);
}

// ------------------------------------------------- the observer property

// Patterns that actually occur in the generated HTTP traces, so the
// differential workloads alert for sure.
pattern::PatternSet web_rules() {
  pattern::PatternSet rules;
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("ion", false, pattern::Group::generic);
  return rules;
}

std::vector<net::Packet> web_traffic(std::uint64_t seed) {
  net::FlowGenConfig cfg;
  cfg.flow_count = 8;
  cfg.bytes_per_flow = 100000;
  cfg.reorder_fraction = 0.25;
  cfg.seed = seed;
  cfg.dst_port = 80;
  return net::generate_flows(cfg).packets;
}

// Runs are compared alert-for-alert, generation included, so they share `db`.
std::vector<ids::Alert> run_pipeline(const std::vector<net::Packet>& packets,
                                     const DatabasePtr& db,
                                     telemetry::MetricsRegistry* metrics,
                                     ids::AlertSink* sink = nullptr) {
  pipeline::PipelineConfig cfg;
  cfg.workers = 2;
  cfg.metrics = metrics;
  cfg.alert_sink = sink;
  pipeline::PipelineRuntime rt(db, cfg);
  rt.start();
  rt.submit(std::span<const net::Packet>(packets));
  rt.stop();
  std::vector<ids::Alert> alerts = rt.alerts();
  std::sort(alerts.begin(), alerts.end());
  return alerts;
}

// Telemetry must be a pure observer: enabling the registry (clock reads,
// histogram records, stamped batches) changes zero alerts.
TEST(TelemetryDifferential, EnablingTelemetryChangesNoAlerts) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, web_rules());
  const auto packets = web_traffic(testutil::case_seed(700));

  const auto plain = run_pipeline(packets, db, nullptr);
  ASSERT_GT(plain.size(), 0u) << "workload must alert to be meaningful ("
                              << testutil::seed_note() << ")";

  telemetry::MetricsRegistry registry;
  const auto instrumented = run_pipeline(packets, db, &registry);
  EXPECT_EQ(instrumented, plain);

  // And the instruments actually recorded the run.
  const telemetry::Histogram* h =
      registry.find_histogram("vpm_scan_latency_seconds", {{"worker", "0"}});
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->snapshot().count, 0u);
  const telemetry::Histogram* dwell =
      registry.find_histogram("vpm_ring_dwell_seconds", {{"worker", "0"}});
  ASSERT_NE(dwell, nullptr);
  EXPECT_GT(dwell->snapshot().count, 0u);
}

// The NDJSON sink's alert multiset equals the plain buffered path's, and
// every alert becomes exactly one parseable line.
TEST(TelemetryDifferential, NdjsonSinkPreservesTheAlertMultiset) {
  const auto rules = web_rules();
  const DatabasePtr db = compile(core::Algorithm::vpatch, rules);
  const auto packets = web_traffic(testutil::case_seed(701));

  const auto plain = run_pipeline(packets, db, nullptr);
  ASSERT_GT(plain.size(), 0u);

  char* buffer = nullptr;
  std::size_t buffer_size = 0;
  std::FILE* mem = open_memstream(&buffer, &buffer_size);
  ASSERT_NE(mem, nullptr);
  std::vector<ids::Alert> collected;
  ids::AlertBuffer collect(collected);
  std::uint64_t emitted = 0;
  {
    telemetry::NdjsonAlertSink sink(mem, &rules, &collect);
    run_pipeline(packets, db, nullptr, &sink);
    sink.flush();
    emitted = sink.emitted();
    EXPECT_TRUE(sink.ok());
  }
  std::fclose(mem);
  const std::string ndjson(buffer, buffer_size);
  free(buffer);

  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, plain) << "NDJSON sink must forward the identical multiset";
  EXPECT_EQ(emitted, plain.size());

  // One line per alert; every line is one JSON object.
  std::size_t lines = 0;
  std::size_t pos = 0;
  while ((pos = ndjson.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, plain.size());
  EXPECT_EQ(ndjson.rfind("{\"ts_us\":", 0), 0u) << "lines start with the schema";
}

}  // namespace
}  // namespace vpm
