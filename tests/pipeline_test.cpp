// Pipeline runtime unit tests: the SPSC ring, flow-stable sharding, batching
// and backpressure in the router, drain semantics, idle-flow eviction under
// adversarial churn, live stats snapshots, and alert-sink decoupling.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "helpers.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pipeline/runtime.hpp"

namespace vpm::pipeline {
namespace {

net::Packet tcp_packet(std::uint32_t src_ip, std::uint16_t src_port, std::uint32_t seq,
                       std::string_view payload, std::uint64_t ts = 0,
                       std::uint16_t dst_port = 80) {
  net::Packet p;
  p.timestamp_us = ts;
  p.tuple.src_ip = src_ip;
  p.tuple.dst_ip = 0xC0A80001;
  p.tuple.src_port = src_port;
  p.tuple.dst_port = dst_port;
  p.tuple.proto = net::IpProto::tcp;
  p.tcp_seq = seq;
  p.payload = util::to_bytes(payload);
  return p;
}

// ---- SPSC ring ------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> r3(3);
  EXPECT_EQ(r3.capacity(), 4u);
  SpscRing<int> r8(8);
  EXPECT_EQ(r8.capacity(), 8u);
  SpscRing<int> r1(1);
  EXPECT_EQ(r1.capacity(), 1u);
}

TEST(SpscRing, FifoOrderAndFullEmpty) {
  SpscRing<int> ring(4);
  int v;
  EXPECT_FALSE(ring.try_pop(v));
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(ring.try_push(item)) << i;
  }
  int extra = 99;
  EXPECT_FALSE(ring.try_push(extra));
  EXPECT_EQ(extra, 99) << "failed push must leave the item untouched";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(SpscRing, TwoThreadTransferPreservesEveryItem) {
  constexpr int kItems = 100000;
  SpscRing<int> ring(64);
  std::atomic<bool> done{false};
  std::uint64_t sum = 0;
  int received = 0;
  std::thread consumer([&] {
    int v;
    for (;;) {
      if (ring.try_pop(v)) {
        sum += static_cast<std::uint64_t>(v);
        ++received;
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        if (ring.try_pop(v)) {
          sum += static_cast<std::uint64_t>(v);
          ++received;
          continue;
        }
        break;
      }
      std::this_thread::yield();
    }
  });
  for (int i = 1; i <= kItems; ++i) {
    int item = i;
    while (!ring.try_push(item)) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kItems) * (kItems + 1) / 2);
}

// ---- sharding -------------------------------------------------------------

TEST(ShardRouter, ShardIsStableAndInRange) {
  for (unsigned shards : {1u, 2u, 4u, 7u}) {
    for (std::uint32_t i = 0; i < 200; ++i) {
      net::FiveTuple t;
      t.src_ip = 0x0A000000u + i;
      t.src_port = static_cast<std::uint16_t>(40000 + i);
      t.dst_port = 80;
      const unsigned s = shard_of(t, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard_of(t, shards)) << "must be deterministic";
    }
  }
}

TEST(ShardRouter, AllShardsGetFlowsEventually) {
  // 256 distinct tuples over 4 shards: every shard should own at least one
  // flow unless the mixer is badly broken.
  std::vector<bool> hit(4, false);
  for (std::uint32_t i = 0; i < 256; ++i) {
    net::FiveTuple t;
    t.src_ip = 0x0A000000u + i;
    t.src_port = static_cast<std::uint16_t>(40000 + (i * 7) % 20000);
    t.dst_port = 80;
    hit[shard_of(t, 4)] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(hit[s]) << "shard " << s << " never hit";
}

TEST(ShardRouter, DropPolicyCountsDiscardedPackets) {
  // Router + ring without a consumer: the ring fills, then drops are counted
  // and route() reports them.
  SpscRing<PacketBatch> ring(2);
  ShardRouter router({&ring}, /*batch_packets=*/1, BackpressurePolicy::drop);
  int accepted = 0, rejected = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (router.route(tcp_packet(1, 40000, i * 4, "abcd"))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);  // ring capacity
  EXPECT_EQ(rejected, 8);
  EXPECT_EQ(router.routed(), 2u);
  EXPECT_EQ(router.dropped(), 8u);
}

TEST(ShardRouter, FlushDeliversPartialBatches) {
  SpscRing<PacketBatch> ring(8);
  ShardRouter router({&ring}, /*batch_packets=*/64, BackpressurePolicy::block);
  for (std::uint32_t i = 0; i < 5; ++i) {
    router.route(tcp_packet(1, 40000, i * 4, "abcd"));
  }
  PacketBatch batch;
  EXPECT_FALSE(ring.try_pop(batch)) << "batch not full yet";
  router.flush();
  ASSERT_TRUE(ring.try_pop(batch));
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(router.routed(), 5u);
}

// ---- runtime --------------------------------------------------------------

pattern::PatternSet demo_rules() {
  pattern::PatternSet rules;
  rules.add("NEEDLE", false, pattern::Group::http);
  rules.add("GET /", false, pattern::Group::http);
  rules.add("zz-generic-zz", false, pattern::Group::generic);
  return rules;
}

TEST(PipelineRuntime, FindsPatternSplitAcrossSegmentsAndWorkers) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 4;
  cfg.batch_packets = 2;
  PipelineRuntime rt(db, cfg);
  rt.start();
  // 8 flows; each carries "NEEDLE" split across the first two segments, and
  // the later segments arrive out of order (the head segment must come
  // first — it pins the flow's initial sequence number).
  for (std::uint32_t f = 0; f < 8; ++f) {
    rt.submit(tcp_packet(100 + f, 50000, 100, "NEE", 10));
    rt.submit(tcp_packet(100 + f, 50000, 107, "tail-part", 20));  // buffered
    rt.submit(tcp_packet(100 + f, 50000, 103, "DLE ", 30));       // fills the hole
  }
  rt.stop();
  EXPECT_EQ(rt.alerts().size(), 8u);
  for (const auto& a : rt.alerts()) {
    EXPECT_EQ(a.pattern_id, 0u);
    EXPECT_EQ(a.stream_offset, 0u);
    EXPECT_EQ(a.group, pattern::Group::http);
  }
  const auto totals = rt.stats().totals();
  EXPECT_EQ(totals.packets, 24u);
  EXPECT_EQ(totals.alerts, 8u);
  EXPECT_EQ(totals.flows_seen, 8u);
  EXPECT_EQ(rt.stats().routed, 24u);
  EXPECT_EQ(rt.stats().dropped_backpressure, 0u);
}

TEST(PipelineRuntime, BlockingBackpressureIsLossless) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 1;
  cfg.ring_batches = 2;  // tiny rings so the producer actually blocks
  PipelineRuntime rt(db, cfg);
  rt.start();
  constexpr std::uint32_t kPackets = 5000;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    rt.submit(tcp_packet(1 + (i % 16), 40000, (i / 16) * 8, "GET /abc", i));
  }
  rt.stop();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kPackets);
  EXPECT_EQ(stats.routed, kPackets);
  EXPECT_EQ(stats.dropped_backpressure, 0u);
  EXPECT_EQ(stats.totals().packets, kPackets);
}

TEST(PipelineRuntime, StatsSnapshotWhileRunning) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 4;
  PipelineRuntime rt(db, cfg);
  rt.start();
  for (std::uint32_t i = 0; i < 2000; ++i) {
    rt.submit(tcp_packet(1 + (i % 8), 40000, (i / 8) * 8, "GET /abc", i));
    if (i == 1000) {
      rt.flush();
      const auto mid = rt.stats();
      EXPECT_EQ(mid.submitted, 1001u);
      EXPECT_LE(mid.totals().packets, 1001u);
      EXPECT_EQ(mid.workers.size(), 2u);
    }
  }
  rt.stop();
  EXPECT_EQ(rt.stats().totals().packets, 2000u);
}

TEST(PipelineRuntime, ThreadSafeAlertSinkReceivesEverything) {
  struct LockedSink final : ids::AlertSink {
    std::mutex mu;
    std::vector<ids::Alert> alerts;
    void on_alert(const ids::Alert& a) override {
      std::lock_guard<std::mutex> lock(mu);
      alerts.push_back(a);
    }
  } sink;
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 3;
  cfg.alert_sink = &sink;
  PipelineRuntime rt(db, cfg);
  rt.start();
  for (std::uint32_t f = 0; f < 12; ++f) {
    rt.submit(tcp_packet(200 + f, 50000, 0, "xx NEEDLE yy", f));
  }
  rt.stop();
  EXPECT_TRUE(rt.alerts().empty()) << "alerts were routed to the external sink";
  EXPECT_EQ(sink.alerts.size(), 12u);
  EXPECT_EQ(rt.stats().totals().alerts, 12u);
}

// quiesce() returns only after every submitted packet's alerts reached the
// sink: a worker publishes a batch's `packets` after that batch's scan round,
// so the count read between quiesce() and stop() is already complete.
TEST(PipelineRuntime, QuiesceReturnsAfterEverySubmittedAlertReachedTheSink) {
  struct CountingSink final : ids::AlertSink {
    std::atomic<std::uint64_t> count{0};
    void on_alert(const ids::Alert&) override {
      count.fetch_add(1, std::memory_order_relaxed);
    }
  };
  pattern::PatternSet rules;
  rules.add("GET /", false, pattern::Group::http);
  rules.add("HTTP/1.1", true, pattern::Group::http);
  rules.add("Host:", true, pattern::Group::http);
  rules.add("ion", false, pattern::Group::generic);
  rules.add("admin", true, pattern::Group::generic);
  const DatabasePtr db = compile(core::Algorithm::aho_corasick, rules);

  net::FlowGenConfig fcfg;
  fcfg.flow_count = 8;
  fcfg.bytes_per_flow = 16000;
  fcfg.reorder_fraction = 0.2;
  fcfg.seed = testutil::case_seed(140);
  fcfg.evasion = true;
  const std::vector<net::Packet> packets = net::generate_flows(fcfg).packets;
  const std::size_t expected =
      ids::inspect_pcap(net::write_pcap(packets), db).alerts.size();
  ASSERT_GT(expected, 0u) << testutil::seed_note();

  for (unsigned workers : {1u, 2u, 4u}) {
    for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      CountingSink sink;
      PipelineConfig cfg;
      cfg.workers = workers;
      cfg.batch_packets = batch;
      cfg.alert_sink = &sink;
      PipelineRuntime rt(db, cfg);
      rt.start();
      rt.submit(std::span<const net::Packet>(packets));
      rt.quiesce();
      EXPECT_EQ(sink.count.load(std::memory_order_relaxed), expected)
          << workers << " workers, batch " << batch << " (" << testutil::seed_note()
          << ")";
      rt.stop();
      EXPECT_EQ(sink.count.load(std::memory_order_relaxed), expected)
          << workers << " workers, batch " << batch;
    }
  }
}

TEST(PipelineRuntime, IsOneShot) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineRuntime rt(db, {});
  EXPECT_THROW(rt.submit(tcp_packet(1, 2, 0, "x")), std::logic_error);
  rt.start();
  EXPECT_THROW(rt.start(), std::logic_error);
  rt.stop();
  rt.stop();  // idempotent
  EXPECT_THROW(rt.start(), std::logic_error);
}

// ---- idle eviction under churn -------------------------------------------
//
// The satellite contract: many short-lived flows plus out-of-order floods
// must trigger the eviction/drop counters without leaking flow state —
// active_flows() stays bounded no matter how many flows pass through.

TEST(PipelineRuntime, ChurnOfShortLivedFlowsStaysBounded) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 2;
  cfg.batch_packets = 8;
  cfg.idle_timeout_us = 1000;        // 1 ms of capture time
  cfg.eviction_sweep_packets = 64;
  cfg.reassembly.max_buffered_bytes = 4096;
  PipelineRuntime rt(db, cfg);
  rt.start();

  constexpr std::uint32_t kFlows = 3000;
  std::uint64_t now_us = 0;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    now_us += 50;  // each flow starts 50 us after the previous one
    const std::uint32_t src_ip = 0x0A000000u + f;
    const auto src_port = static_cast<std::uint16_t>(40000 + (f % 20000));
    // A short-lived flow: one in-order segment, then an out-of-order flood
    // beyond a hole that can never fill (sequence gap), exercising both the
    // reassembly budget (drops) and eviction (the hole never completes).
    rt.submit(tcp_packet(src_ip, src_port, 0, "GET /index.html", now_us));
    for (std::uint32_t k = 0; k < 6; ++k) {
      rt.submit(tcp_packet(src_ip, src_port, 2000 + k * 1000,
                           std::string(900, 'a' + static_cast<char>(k % 26)),
                           now_us + k));
    }
  }
  rt.stop();

  const auto totals = rt.stats().totals();
  EXPECT_EQ(totals.flows_seen, kFlows) << "every flow inspected at least once";
  EXPECT_GT(totals.flows_evicted, 0u) << "idle eviction must have fired";
  EXPECT_GT(totals.reassembly_drops, 0u) << "flood must exhaust the per-flow budget";
  // The leak check: far fewer flows retained than were ever seen.  The exact
  // count depends on sweep timing; the bound just has to be "not O(flows)".
  EXPECT_LT(totals.active_flows, kFlows / 4)
      << "flow tables must stay bounded under churn (" << testutil::seed_note() << ")";
}

TEST(PipelineRuntime, EvictionDisabledKeepsAllFlows) {
  const DatabasePtr db = compile(core::Algorithm::vpatch, demo_rules());
  PipelineConfig cfg;
  cfg.workers = 2;
  cfg.idle_timeout_us = 0;  // disabled
  PipelineRuntime rt(db, cfg);
  rt.start();
  for (std::uint32_t f = 0; f < 100; ++f) {
    rt.submit(tcp_packet(0x0A000000u + f, 40000, 0, "GET /x", f * 1000000));
  }
  rt.stop();
  const auto totals = rt.stats().totals();
  EXPECT_EQ(totals.flows_seen, 100u);
  EXPECT_EQ(totals.flows_evicted, 0u);
  EXPECT_EQ(totals.active_flows, 100u);
}

}  // namespace
}  // namespace vpm::pipeline
