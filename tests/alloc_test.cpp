// Proves the batch-scan steady state is allocation-free: this binary
// replaces global operator new/delete with counting versions, warms up the
// matcher scratch / engine flow tables / batch machinery, then drives many
// more rounds under churny batch- and chunk-size variation and asserts the
// allocation counter does not move.  This is the zero-alloc contract the
// pipeline worker's scan loop relies on under sustained small-packet load.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>
#include <vector>

#include "core/matcher_factory.hpp"
#include "helpers.hpp"
#include "ids/engine.hpp"
#include "telemetry/metrics.hpp"
#include "util/failpoint.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
// Nothrow variants too (std::stable_sort's temporary buffer uses them):
// leaving them to the default implementation would pair a foreign new with
// our free-based delete — an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace vpm {
namespace {

using testutil::case_seed;
using testutil::seed_note;

struct CountingBatchSink final : BatchSink {
  std::uint64_t matches = 0;
  void on_match(std::uint32_t, const Match&) override { ++matches; }
};

struct CountingAlertSink final : ids::AlertSink {
  std::uint64_t alerts = 0;
  void on_alert(const ids::Alert&) override { ++alerts; }
};

// Matcher-level: scan_batch with a reused scratch, batch size churning
// between rounds, must not allocate after the first full-size round.  The
// AC compact variant pins the lane kernel's staging + hit-pool scratch (the
// pipeline's fallback engine for long/dense rulesets) alongside V-PATCH and
// DFC.
TEST(AllocTest, MatcherBatchScanSteadyStateIsAllocationFree) {
  for (core::Algorithm algo : {core::Algorithm::vpatch, core::Algorithm::dfc,
                               core::Algorithm::aho_corasick_compact}) {
    const auto set = testutil::random_set(300, 6, case_seed(301));
    const auto matcher = core::make_matcher(algo, set);
    std::vector<util::Bytes> payloads;
    for (std::size_t i = 0; i < 32; ++i) {
      payloads.push_back(testutil::random_text(256, case_seed(302) + i));
    }
    std::vector<util::ByteView> views(payloads.begin(), payloads.end());

    ScanScratch scratch;
    CountingBatchSink sink;
    const auto drive = [&](std::size_t batch) {
      for (std::size_t begin = 0; begin < views.size(); begin += batch) {
        const std::size_t count = std::min(batch, views.size() - begin);
        matcher->scan_batch({views.data() + begin, count}, sink, scratch);
      }
    };

    // Warm-up: largest batch first (high-water scratch), then churn.
    for (std::size_t batch : {std::size_t{32}, std::size_t{20}, std::size_t{7},
                              std::size_t{1}}) {
      drive(batch);
    }

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t batch : {std::size_t{32}, std::size_t{7}, std::size_t{1},
                                std::size_t{20}}) {
        drive(batch);
      }
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << core::algorithm_name(algo)
                             << " allocated in steady state (" << seed_note() << ")";
    EXPECT_GT(sink.matches, 0u) << "workload must produce matches to be meaningful";
  }
}

// Engine-level: the worker scan loop body — stage() per chunk across mixed
// protocol groups and flows, flush_batch() per round — with chunk sizes
// churning, must not allocate once flow buffers and scratch reached their
// high-water marks.
TEST(AllocTest, EngineStageFlushSteadyStateIsAllocationFree) {
  const auto rules = testutil::random_set(200, 6, case_seed(303));
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "engine batch loop allocated in steady state ("
                           << seed_note() << ")";
  EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
}

// Engine-level with the approximate prefilter forced on: the screen stages
// case-folded payload copies and emits verdicts every flush — all of it
// grow-to-high-water, so the steady state must stay allocation-free.  The
// ruleset has a length floor (random_set's 1-byte patterns would null the
// signatures and silently skip the screen path).
TEST(AllocTest, EnginePrefilterScreenSteadyStateIsAllocationFree) {
  pattern::PatternSet rules;
  {
    util::Rng rng(case_seed(305));
    while (rules.size() < 150) {
      const std::size_t len = 4 + rng.below(5);  // 4..8 bytes
      util::Bytes b(len);
      for (auto& c : b) c = static_cast<std::uint8_t>('a' + rng.below(4));
      rules.add(std::move(b), rng.chance(0.3));
    }
  }
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  engine.set_prefilter_mode(core::PrefilterMode::on);
  CountingAlertSink sink;

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(306));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "prefilter screen allocated in steady state ("
                           << seed_note() << ")";
  const auto& counters = engine.counters();
  EXPECT_GT(counters.prefilter_pass_payloads + counters.prefilter_reject_payloads, 0u)
      << "the screen must actually have run to be meaningful";
  EXPECT_GT(sink.alerts, 0u) << "workload must produce alerts to be meaningful";
}

// The disarmed failpoint check sits on the hottest paths (every ring push
// and pop, every reassembly buffering decision): it must stay one relaxed
// load — no allocation, and no fires.
TEST(AllocTest, DisarmedFailpointCheckIsAllocationFree) {
  util::failpoint::disarm();
  bool any = false;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1'000'000; ++i) {
    any |= util::failpoint::should_fail(util::failpoint::Site::ring_push);
    any |= util::failpoint::should_fail(util::failpoint::Site::reassembly_buffer);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disarmed should_fail must not allocate";
  EXPECT_FALSE(any);
}

// Telemetry record paths: counter add, gauge set, histogram record — the
// operations the scan path performs once instruments are registered — must
// never allocate.  Registration may (and does) allocate; that is setup.
TEST(AllocTest, TelemetryRecordPathIsAllocationFree) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter =
      registry.counter("alloc_test_ops_total", "ops", {{"worker", "0"}});
  telemetry::Gauge& gauge = registry.gauge("alloc_test_depth", "depth");
  telemetry::Histogram& latency =
      registry.histogram("alloc_test_latency_seconds", "lat",
                         telemetry::latency_buckets_seconds(), {{"worker", "0"}});
  telemetry::Histogram& sizes = registry.histogram(
      "alloc_test_bytes", "sz", telemetry::size_buckets_bytes(), {{"worker", "0"}});

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    counter.add(3);
    gauge.set(i);
    latency.record(static_cast<double>(i % 977) * 1e-6);
    sizes.record(static_cast<double>((i * 131) % 65536));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "telemetry record path allocated";
  EXPECT_EQ(counter.value(), 300000u);
  EXPECT_EQ(latency.snapshot().count, 100000u);
}

// Engine-level with instruments installed: the flush-latency histogram and
// per-group counters ride the batch loop without breaking its zero-alloc
// steady state (the contract PipelineConfig::metrics documents).
TEST(AllocTest, EngineWithTelemetrySteadyStateIsAllocationFree) {
  const auto rules = testutil::random_set(200, 6, case_seed(303));
  ids::IdsEngine engine(compile(core::Algorithm::vpatch, rules));
  CountingAlertSink sink;

  telemetry::MetricsRegistry registry;
  ids::EngineTelemetry et;
  et.flush_latency = &registry.histogram(
      "vpm_scan_latency_seconds", "lat", telemetry::latency_buckets_seconds());
  for (std::size_t gi = 0; gi < ids::kEngineGroupCount; ++gi) {
    const std::string group(pattern::group_name(static_cast<pattern::Group>(gi)));
    et.group_scan_bytes[gi] =
        &registry.counter("vpm_group_scan_bytes_total", "b", {{"group", group}});
    et.group_alerts[gi] =
        &registry.counter("vpm_group_alerts_total", "a", {{"group", group}});
  }
  engine.set_telemetry(et);

  const util::Bytes pool = testutil::random_text(1 << 16, case_seed(304));
  const pattern::Group groups[] = {pattern::Group::http, pattern::Group::generic,
                                   pattern::Group::dns};
  const std::size_t sizes[] = {1500, 700, 256, 64, 1};

  const auto drive = [&](int round) {
    for (std::uint64_t flow = 0; flow < 6; ++flow) {
      const std::size_t size = sizes[(round + flow) % std::size(sizes)];
      const std::size_t offset = ((round * 131 + flow * 977) % (pool.size() - 1500));
      engine.stage(flow, groups[flow % std::size(groups)],
                   {pool.data() + offset, size}, sink);
    }
    engine.flush_batch(sink);
  };

  for (int round = 0; round < 10; ++round) drive(round);  // warm-up

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 50; ++round) drive(round);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "instrumented engine batch loop allocated ("
                           << seed_note() << ")";
  const telemetry::Histogram* h = registry.find_histogram("vpm_scan_latency_seconds", {});
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->snapshot().count, 0u) << "flush latency must have been recorded";
}

}  // namespace
}  // namespace vpm
