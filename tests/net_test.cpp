// Network substrate tests: pcap round-trip and robustness, TCP reassembly
// semantics (ordering, overlap trimming, budget limits), flow generation,
// and the full pcap -> reassembly -> IDS pipeline.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"

namespace vpm::net {
namespace {

FiveTuple tuple_a() {
  FiveTuple t;
  t.src_ip = 0x0A000002;
  t.dst_ip = 0xC0A80001;
  t.src_port = 49152;
  t.dst_port = 80;
  t.proto = IpProto::tcp;
  return t;
}

Packet make_packet(const FiveTuple& t, std::uint32_t seq, std::string_view payload,
                   std::uint64_t ts = 0, std::uint8_t flags = kTcpPsh | kTcpAck) {
  Packet p;
  p.timestamp_us = ts;
  p.tuple = t;
  p.tcp_seq = seq;
  p.tcp_flags = flags;
  p.payload = util::to_bytes(payload);
  return p;
}

// ---- pcap -----------------------------------------------------------------

TEST(Pcap, RoundTripTcpPackets) {
  std::vector<Packet> packets;
  packets.push_back(make_packet(tuple_a(), 1000, "GET / HTTP/1.1\r\n", 5));
  packets.push_back(make_packet(tuple_a(), 1016, "Host: x\r\n\r\n", 6));
  const auto bytes = write_pcap(packets);
  const auto parsed = read_pcap(bytes);
  ASSERT_EQ(parsed.packets.size(), 2u);
  EXPECT_EQ(parsed.skipped_records, 0u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(parsed.packets[i].tuple, packets[i].tuple) << i;
    EXPECT_EQ(parsed.packets[i].tcp_seq, packets[i].tcp_seq) << i;
    EXPECT_EQ(parsed.packets[i].payload, packets[i].payload) << i;
    EXPECT_EQ(parsed.packets[i].timestamp_us, packets[i].timestamp_us) << i;
  }
}

TEST(Pcap, RoundTripUdpPacket) {
  Packet p = make_packet(tuple_a(), 0, "dns-ish payload");
  p.tuple.proto = IpProto::udp;
  p.tuple.dst_port = 53;
  const auto parsed = read_pcap(write_pcap({p}));
  ASSERT_EQ(parsed.packets.size(), 1u);
  EXPECT_EQ(parsed.packets[0].tuple.proto, IpProto::udp);
  EXPECT_EQ(parsed.packets[0].payload, p.payload);
}

TEST(Pcap, EmptyCapture) {
  const auto parsed = read_pcap(write_pcap({}));
  EXPECT_TRUE(parsed.packets.empty());
}

TEST(Pcap, BinaryPayloadSurvives) {
  Packet p = make_packet(tuple_a(), 7, "");
  for (int i = 0; i < 300; ++i) p.payload.push_back(static_cast<std::uint8_t>(i & 0xFF));
  const auto parsed = read_pcap(write_pcap({p}));
  ASSERT_EQ(parsed.packets.size(), 1u);
  EXPECT_EQ(parsed.packets[0].payload, p.payload);
}

TEST(Pcap, RejectsBadMagic) {
  util::Bytes junk(64, 0x42);
  EXPECT_THROW(read_pcap(junk), std::invalid_argument);
}

TEST(Pcap, RejectsTruncatedHeader) {
  util::Bytes tiny(10, 0);
  EXPECT_THROW(read_pcap(tiny), std::invalid_argument);
}

TEST(Pcap, SkipsTruncatedRecordTail) {
  auto bytes = write_pcap({make_packet(tuple_a(), 1, "hello world")});
  bytes.resize(bytes.size() - 4);  // chop the last frame
  const auto parsed = read_pcap(bytes);
  EXPECT_EQ(parsed.packets.size(), 0u);
  EXPECT_EQ(parsed.skipped_records, 1u);
}

// ---- reassembly -----------------------------------------------------------------

struct Collected {
  util::Bytes stream;
  std::vector<std::uint64_t> offsets;
};

TcpReassembler::ChunkCallback collector(Collected& c) {
  return [&c](const StreamChunk& chunk) {
    c.offsets.push_back(chunk.offset);
    EXPECT_EQ(chunk.offset, c.stream.size()) << "chunks must be delivered in order";
    c.stream.insert(c.stream.end(), chunk.data.begin(), chunk.data.end());
  };
}

TEST(Reassembly, InOrderSegments) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 100, "hello "));
  r.ingest(make_packet(t, 106, "world"));
  EXPECT_EQ(util::to_string(c.stream), "hello world");
}

TEST(Reassembly, OutOfOrderSegmentsReordered) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 100, "AAA"));
  r.ingest(make_packet(t, 109, "CCC"));  // gap
  r.ingest(make_packet(t, 103, "bbbbbb"));
  EXPECT_EQ(util::to_string(c.stream), "AAAbbbbbbCCC");
}

TEST(Reassembly, RetransmissionFirstWins) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "original"));
  r.ingest(make_packet(t, 0, "OVERRIDE"));  // full retransmission, ignored
  EXPECT_EQ(util::to_string(c.stream), "original");
  EXPECT_EQ(r.duplicate_bytes_trimmed(), 8u);
}

TEST(Reassembly, PartialOverlapTrimmed) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "abcdef"));
  r.ingest(make_packet(t, 4, "EFghij"));  // first 2 bytes overlap delivered data
  EXPECT_EQ(util::to_string(c.stream), "abcdefghij");
}

TEST(Reassembly, InitialSequenceIsPinnedPerFlow) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0xFFFFFFF0u, "wrap"));
  r.ingest(make_packet(t, 0xFFFFFFF4u, "around"));  // crosses the 32-bit wrap
  EXPECT_EQ(util::to_string(c.stream), "wraparound");
}

TEST(Reassembly, FlowsAreIndependent) {
  Collected c;
  std::size_t chunks = 0;
  TcpReassembler r([&](const StreamChunk&) { ++chunks; });
  auto t1 = tuple_a();
  auto t2 = tuple_a();
  t2.src_port = 55555;
  r.ingest(make_packet(t1, 10, "flow-one"));
  r.ingest(make_packet(t2, 999, "flow-two"));
  EXPECT_EQ(chunks, 2u);
  EXPECT_EQ(r.active_flows(), 2u);
  r.close_flow(t1);
  EXPECT_EQ(r.active_flows(), 1u);
}

TEST(Reassembly, BufferBudgetDropsFloods) {
  ReassemblyLimits limits;
  limits.max_buffered_bytes = 64;
  std::size_t chunks = 0;
  TcpReassembler r([&](const StreamChunk&) { ++chunks; }, limits);
  const auto t = tuple_a();
  // Pin the initial sequence number, then flood with segments after a hole:
  // the 64-byte budget admits only the first four 16-byte segments.
  r.ingest(make_packet(t, 100, "x"));
  for (std::uint32_t i = 1; i <= 10; ++i) {
    r.ingest(make_packet(t, 100 + i * 16, std::string(16, 'y')));
  }
  EXPECT_GE(r.dropped_segments(), 6u);
  EXPECT_EQ(chunks, 1u) << "only the pinning segment is in order";
}

TEST(Reassembly, EvictIdleRemovesOnlyStaleFlows) {
  std::size_t chunks = 0;
  TcpReassembler r([&](const StreamChunk&) { ++chunks; });
  auto stale = tuple_a();
  auto fresh = tuple_a();
  fresh.src_port = 55555;
  r.ingest(make_packet(stale, 0, "old flow", /*ts=*/1000));
  r.ingest(make_packet(fresh, 0, "new flow", /*ts=*/900000));
  ASSERT_EQ(r.active_flows(), 2u);

  const auto evicted = r.evict_idle(/*now_us=*/1000000, /*idle_us=*/500000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], stale);
  EXPECT_EQ(r.active_flows(), 1u);
  EXPECT_EQ(r.evicted_flows(), 1u);

  // idle_us == 0 disables eviction entirely.
  EXPECT_TRUE(r.evict_idle(1u << 30, 0).empty());
  EXPECT_EQ(r.active_flows(), 1u);
}

TEST(Reassembly, EvictedFlowForgetsPendingAndRestartsClean) {
  std::string stream;
  std::vector<std::uint64_t> offsets;
  TcpReassembler r([&](const StreamChunk& chunk) {
    offsets.push_back(chunk.offset);
    stream += util::to_string(chunk.data);
  });
  const auto t = tuple_a();
  r.ingest(make_packet(t, 100, "head", 10));
  r.ingest(make_packet(t, 120, "buffered-beyond-a-hole", 20));  // pending, never drains
  EXPECT_EQ(stream, "head");

  ASSERT_EQ(r.evict_idle(2000000, 1000).size(), 1u);
  // The flow returns after eviction: it re-pins a fresh initial sequence and
  // the stale buffered segment must not resurface.
  r.ingest(make_packet(t, 5000, "restarted", 3000000));
  EXPECT_EQ(stream, "headrestarted");
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[1], 0u) << "post-eviction data re-pins at stream offset 0";
}

// The satellite churn contract at the reassembler layer: short-lived flows
// plus out-of-order floods; periodic eviction keeps the flow table bounded
// and the drop/evict counters account for the abuse.
TEST(Reassembly, AdversarialChurnStaysBounded) {
  ReassemblyLimits limits;
  limits.max_buffered_bytes = 2048;
  std::size_t chunks = 0;
  TcpReassembler r([&](const StreamChunk&) { ++chunks; }, limits);

  constexpr std::uint32_t kFlows = 2000;
  std::size_t max_active = 0;
  std::uint64_t now_us = 0;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    now_us += 100;
    FiveTuple t = tuple_a();
    t.src_ip = 0x0A000000u + f;
    t.src_port = static_cast<std::uint16_t>(40000 + (f % 10000));
    r.ingest(make_packet(t, 0, "hello", now_us));
    // Out-of-order flood behind a hole: most of it must hit the budget.
    for (std::uint32_t k = 0; k < 8; ++k) {
      r.ingest(make_packet(t, 10000 + k * 600, std::string(600, 'x'), now_us));
    }
    if (f % 64 == 0) {
      r.evict_idle(now_us, /*idle_us=*/3200);
      max_active = std::max(max_active, r.active_flows());
    }
  }
  r.evict_idle(now_us + 10000, 3200);
  EXPECT_EQ(r.active_flows(), 0u);
  EXPECT_LT(max_active, 256u) << "flow table must stay bounded under churn";
  EXPECT_GT(r.dropped_segments(), 0u);
  EXPECT_GE(r.evicted_flows(), kFlows - 256u);
  EXPECT_EQ(chunks, kFlows) << "each flow's single in-order segment is delivered";
}

TEST(Reassembly, EmptyPayloadIgnored) {
  std::size_t chunks = 0;
  TcpReassembler r([&](const StreamChunk&) { ++chunks; });
  r.ingest(make_packet(tuple_a(), 0, ""));
  EXPECT_EQ(chunks, 0u);
  EXPECT_EQ(r.active_flows(), 0u);
}

// ---- reassembly: evasion fixes and lifecycle ------------------------------------

// Regression (seq-wrap stall): a segment one sequence number below the pinned
// ISN — a TCP keep-alive probe, or a retransmit clipped by the capture — used
// to compute stream offset ≈ 2^32 and wedge the flow behind an unfillable
// hole.  Wrap-safe placement classifies it as before-window garbage instead.
TEST(Reassembly, SeqJustBelowIsnIsBeforeWindowNotFarFuture) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 1000, "hello"));
  r.ingest(make_packet(t, 999, "K"));  // keep-alive probe below the window
  r.ingest(make_packet(t, 1005, " world"));
  EXPECT_EQ(util::to_string(c.stream), "hello world");
  EXPECT_EQ(r.dropped_segments(), 0u);
  EXPECT_EQ(r.active_flows(), 1u);
}

TEST(Reassembly, KeepAliveBelowWrappedIsnDoesNotStall) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  // SYN at ISN 2^32-1: stream byte 0 lives at sequence 0 (wrapped).
  r.ingest(make_packet(t, 0xFFFFFFFFu, "", 0, kTcpSyn));
  r.ingest(make_packet(t, 0, "first"));
  r.ingest(make_packet(t, 0xFFFFFFFFu, "K", 0, kTcpAck));  // probe below the wrap
  r.ingest(make_packet(t, 5, "second"));
  EXPECT_EQ(util::to_string(c.stream), "firstsecond");
  EXPECT_EQ(r.dropped_segments(), 0u);
}

// Regression (duplicate-offset data loss): a longer retransmit at the same
// offset as a buffered segment used to be discarded wholesale by
// pending.emplace — losing the tail bytes the original never carried.
TEST(Reassembly, DuplicateOffsetLongerRetransmitFillsHole) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "ab"));     // pins, delivers [0,2)
  r.ingest(make_packet(t, 10, "XY"));    // buffered [10,12)
  r.ingest(make_packet(t, 10, "XYZW"));  // same offset, longer: tail must survive
  r.ingest(make_packet(t, 2, "cdefghij"));  // fill the hole [2,10)
  EXPECT_EQ(util::to_string(c.stream), "abcdefghijXYZW");
}

// One conflicting-segment scenario, four policies, four distinct streams.
// Segments (offsets relative to the pinned start): "x"@0 pins; "AAAA"@4
// buffered; "BBBB"@4 conflicts at an equal start; "CCCC"@2 conflicts from an
// earlier start; "DD"@6 conflicts from a later start; "f"@1 fills the hole
// and drains everything.
std::string policy_stream(OverlapPolicy p) {
  ReassemblyConfig cfg;
  cfg.overlap = p;
  Collected c;
  TcpReassembler r(collector(c), cfg);
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "x"));
  r.ingest(make_packet(t, 4, "AAAA"));
  r.ingest(make_packet(t, 4, "BBBB"));
  r.ingest(make_packet(t, 2, "CCCC"));
  r.ingest(make_packet(t, 6, "DD"));
  r.ingest(make_packet(t, 1, "f"));
  return util::to_string(c.stream);
}

TEST(ReassemblyPolicy, FirstBufferedBytesWin) {
  EXPECT_EQ(policy_stream(OverlapPolicy::first), "xfCCAAAA");
}

TEST(ReassemblyPolicy, LastNewSegmentWins) {
  EXPECT_EQ(policy_stream(OverlapPolicy::last), "xfCCCCDD");
}

TEST(ReassemblyPolicy, TargetBsdEarlierStartWins) {
  EXPECT_EQ(policy_stream(OverlapPolicy::target_bsd), "xfCCCCAA");
}

TEST(ReassemblyPolicy, TargetLinuxTiesGoToNewSegment) {
  EXPECT_EQ(policy_stream(OverlapPolicy::target_linux), "xfCCCCBB");
}

TEST(ReassemblyPolicy, DeliveredPrefixIsAlwaysFirstWins) {
  // Bytes already handed to the consumer can never be retracted, so even the
  // most aggressive policy discards data overlapping the delivered prefix.
  for (const auto p : {OverlapPolicy::first, OverlapPolicy::last,
                       OverlapPolicy::target_bsd, OverlapPolicy::target_linux}) {
    ReassemblyConfig cfg;
    cfg.overlap = p;
    Collected c;
    TcpReassembler r(collector(c), cfg);
    const auto t = tuple_a();
    r.ingest(make_packet(t, 0, "original"));
    r.ingest(make_packet(t, 0, "OVERRIDE"));
    EXPECT_EQ(util::to_string(c.stream), "original") << overlap_policy_name(p);
  }
}

TEST(ReassemblyPolicy, NamesRoundTrip) {
  for (const auto p : {OverlapPolicy::first, OverlapPolicy::last,
                       OverlapPolicy::target_bsd, OverlapPolicy::target_linux}) {
    const auto parsed = overlap_policy_from_name(overlap_policy_name(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(overlap_policy_from_name("nope").has_value());
}

TEST(Reassembly, DataPastFinIsTrimmed) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 100, "real"));
  r.ingest(make_packet(t, 104, "", 0, kTcpFin | kTcpAck));  // FIN at offset 4
  r.ingest(make_packet(t, 104, "EVIL"));  // past the FIN: never reaches the endpoint
  EXPECT_EQ(util::to_string(c.stream), "real");
  EXPECT_EQ(r.stats().fins, 1u);
}

TEST(Reassembly, FinTruncatesBufferedDataBeyondIt) {
  Collected c;
  TcpReassembler r(collector(c));
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "ab"));
  r.ingest(make_packet(t, 10, "WXYZ"));           // buffered past the coming FIN
  r.ingest(make_packet(t, 6, "", 0, kTcpFin));    // FIN at offset 6
  r.ingest(make_packet(t, 2, "cdef"));
  EXPECT_EQ(util::to_string(c.stream), "abcdef");
}

TEST(Reassembly, LifecycleCallbacksAndRstTeardown) {
  std::size_t starts = 0;
  std::vector<std::pair<FiveTuple, EndReason>> ends;
  TcpReassembler r([](const StreamChunk&) {});
  r.on_connection_start([&](const FiveTuple&) { ++starts; });
  r.on_connection_end(
      [&](const FiveTuple& client, EndReason why) { ends.emplace_back(client, why); });
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "", 0, kTcpSyn));
  r.ingest(make_packet(t, 1, "data"));
  r.ingest(make_packet(t, 999, "", 0, kTcpRst));
  EXPECT_EQ(starts, 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].first, t) << "end callback reports the client-side tuple";
  EXPECT_EQ(ends[0].second, EndReason::rst);
  EXPECT_EQ(r.active_flows(), 0u);
  EXPECT_EQ(r.stats().resets, 1u);
  EXPECT_EQ(r.stats().connections_ended, 1u);
}

TEST(Reassembly, BidirectionalFinHandshakeEndsConnection) {
  std::vector<EndReason> ends;
  util::Bytes c2s, s2c;
  TcpReassembler r([&](const StreamChunk& ch) {
    EXPECT_EQ(ch.server_port, 80) << "both directions classify by the server port";
    auto& s = ch.dir == Direction::client_to_server ? c2s : s2c;
    EXPECT_EQ(ch.offset, s.size());
    s.insert(s.end(), ch.data.begin(), ch.data.end());
  });
  r.on_connection_end([&](const FiveTuple&, EndReason why) { ends.push_back(why); });
  const auto t = tuple_a();
  const auto rt = t.reversed();
  r.ingest(make_packet(t, 100, "", 0, kTcpSyn));
  r.ingest(make_packet(rt, 500, "", 0, kTcpSyn | kTcpAck));
  EXPECT_EQ(r.active_flows(), 1u) << "both directions are ONE connection";
  r.ingest(make_packet(t, 101, "request"));
  r.ingest(make_packet(rt, 501, "response!"));
  r.ingest(make_packet(t, 108, "", 0, kTcpFin | kTcpAck));
  EXPECT_TRUE(ends.empty()) << "half-closed: the server side is still open";
  r.ingest(make_packet(rt, 510, "", 0, kTcpFin | kTcpAck));
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], EndReason::fin);
  EXPECT_EQ(util::to_string(c2s), "request");
  EXPECT_EQ(util::to_string(s2c), "response!");
  EXPECT_EQ(r.active_flows(), 0u);
  EXPECT_EQ(r.stats().side[0].delivered_bytes, 7u);
  EXPECT_EQ(r.stats().side[1].delivered_bytes, 9u);
}

TEST(Reassembly, BidirectionalOutOfOrderSidesAreIndependent) {
  util::Bytes c2s, s2c;
  TcpReassembler r([&](const StreamChunk& ch) {
    auto& s = ch.dir == Direction::client_to_server ? c2s : s2c;
    EXPECT_EQ(ch.offset, s.size());
    s.insert(s.end(), ch.data.begin(), ch.data.end());
  });
  const auto t = tuple_a();
  const auto rt = t.reversed();
  r.ingest(make_packet(t, 0, "AB"));     // first sender pins as the client
  r.ingest(make_packet(rt, 100, "xy"));
  r.ingest(make_packet(t, 4, "EF"));     // client-side hole
  r.ingest(make_packet(rt, 103, "w"));   // server-side hole
  r.ingest(make_packet(t, 2, "CD"));
  r.ingest(make_packet(rt, 102, "z"));
  EXPECT_EQ(util::to_string(c2s), "ABCDEF");
  EXPECT_EQ(util::to_string(s2c), "xyzw");
  EXPECT_EQ(r.active_flows(), 1u);
  EXPECT_EQ(r.stats().side[0].segments, 3u);
  EXPECT_EQ(r.stats().side[1].segments, 3u);
}

TEST(Reassembly, CloseCountsDiscardedPendingBytes) {
  TcpReassembler r([](const StreamChunk&) {});
  const auto t = tuple_a();
  r.ingest(make_packet(t, 0, "a"));
  r.ingest(make_packet(t, 10, "pending!"));  // 8 bytes buffered behind a hole
  r.close_flow(t.reversed());  // either direction's tuple closes the connection
  EXPECT_EQ(r.stats().discarded_on_close_bytes, 8u);
  EXPECT_EQ(r.active_flows(), 0u);
  EXPECT_EQ(r.stats().connections_ended, 1u);
}

// ---- flowgen --------------------------------------------------------------------

TEST(FlowGen, ReassemblesBackToOriginalStreams) {
  FlowGenConfig cfg;
  cfg.flow_count = 3;
  cfg.bytes_per_flow = 40000;
  cfg.seed = 5;
  const auto flows = generate_flows(cfg);
  ASSERT_EQ(flows.streams.size(), 3u);

  std::unordered_map<std::uint64_t, util::Bytes> rebuilt;
  TcpReassembler r([&](const StreamChunk& chunk) {
    auto& s = rebuilt[chunk.tuple.hash()];
    s.insert(s.end(), chunk.data.begin(), chunk.data.end());
  });
  for (const Packet& p : flows.packets) r.ingest(p);
  for (std::size_t f = 0; f < flows.streams.size(); ++f) {
    EXPECT_EQ(rebuilt[flows.tuples[f].hash()], flows.streams[f]) << "flow " << f;
  }
}

TEST(FlowGen, ReorderingStillReassembles) {
  FlowGenConfig cfg;
  cfg.flow_count = 2;
  cfg.bytes_per_flow = 30000;
  cfg.reorder_fraction = 0.4;
  cfg.seed = 6;
  const auto flows = generate_flows(cfg);
  std::unordered_map<std::uint64_t, util::Bytes> rebuilt;
  TcpReassembler r([&](const StreamChunk& chunk) {
    auto& s = rebuilt[chunk.tuple.hash()];
    s.insert(s.end(), chunk.data.begin(), chunk.data.end());
  });
  for (const Packet& p : flows.packets) r.ingest(p);
  for (std::size_t f = 0; f < flows.streams.size(); ++f) {
    EXPECT_EQ(rebuilt[flows.tuples[f].hash()], flows.streams[f]) << "flow " << f;
  }
}

// The adversarial corpus must reassemble to the exact ground-truth streams
// on BOTH sides under every overlap policy: at reorder_fraction=0 the
// conflicting retransmits always trail the genuine bytes, so they hit the
// delivered prefix — which is first-wins regardless of policy.
TEST(FlowGen, EvasionCorpusReassemblesToGroundTruthUnderEveryPolicy) {
  FlowGenConfig cfg;
  cfg.flow_count = 5;
  cfg.bytes_per_flow = 20000;
  cfg.seed = 9;
  cfg.evasion = true;
  const auto flows = generate_flows(cfg);
  ASSERT_EQ(flows.reverse_streams.size(), 5u);

  for (const auto policy : {OverlapPolicy::first, OverlapPolicy::last,
                            OverlapPolicy::target_bsd, OverlapPolicy::target_linux}) {
    ReassemblyConfig rcfg;
    rcfg.overlap = policy;
    std::unordered_map<std::uint64_t, util::Bytes> rebuilt;
    TcpReassembler r(
        [&](const StreamChunk& chunk) {
          auto& s = rebuilt[chunk.tuple.hash()];
          EXPECT_EQ(chunk.offset, s.size());
          s.insert(s.end(), chunk.data.begin(), chunk.data.end());
        },
        rcfg);
    for (const Packet& p : flows.packets) r.ingest(p);
    for (std::size_t f = 0; f < flows.streams.size(); ++f) {
      EXPECT_EQ(rebuilt[flows.tuples[f].hash()], flows.streams[f])
          << "c2s flow " << f << " policy " << overlap_policy_name(policy);
      EXPECT_EQ(rebuilt[flows.tuples[f].reversed().hash()], flows.reverse_streams[f])
          << "s2c flow " << f << " policy " << overlap_policy_name(policy);
    }
    EXPECT_GT(r.stats().overlap_bytes_trimmed(), 0u)
        << "conflicting retransmits and probes must have been discarded";
    EXPECT_GT(r.stats().fins, 0u);
    EXPECT_GT(r.stats().resets, 0u);
    EXPECT_EQ(r.dropped_segments(), 0u);
    EXPECT_EQ(r.active_flows(), 0u)
        << "every connection was torn down by FIN or RST";
  }
}

TEST(FlowGen, EvasionCorpusSurvivesReorderingDeterministically) {
  // With reordering the policy outcome is data-dependent; what must hold is
  // that the same corpus under the same policy always yields the same bytes.
  FlowGenConfig cfg;
  cfg.flow_count = 3;
  cfg.bytes_per_flow = 15000;
  cfg.reorder_fraction = 0.3;
  cfg.seed = 12;
  cfg.evasion = true;
  const auto flows = generate_flows(cfg);
  auto run = [&] {
    std::map<std::uint64_t, util::Bytes> rebuilt;
    ReassemblyConfig rcfg;
    rcfg.overlap = OverlapPolicy::target_linux;
    TcpReassembler r(
        [&](const StreamChunk& chunk) {
          auto& s = rebuilt[chunk.tuple.hash()];
          s.insert(s.end(), chunk.data.begin(), chunk.data.end());
        },
        rcfg);
    for (const Packet& p : flows.packets) r.ingest(p);
    return rebuilt;
  };
  EXPECT_EQ(run(), run());
}

TEST(FlowGen, Deterministic) {
  FlowGenConfig cfg;
  cfg.flow_count = 2;
  cfg.bytes_per_flow = 10000;
  cfg.seed = 7;
  const auto a = generate_flows(cfg);
  const auto b = generate_flows(cfg);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i].payload, b.packets[i].payload) << i;
  }
}

TEST(FlowGen, SegmentSizesRespectMss) {
  FlowGenConfig cfg;
  cfg.flow_count = 1;
  cfg.bytes_per_flow = 50000;
  cfg.mss = 512;
  cfg.seed = 8;
  for (const Packet& p : generate_flows(cfg).packets) {
    EXPECT_LE(p.payload.size(), 512u);
    EXPECT_GT(p.payload.size(), 0u);
  }
}

}  // namespace
}  // namespace vpm::net

namespace vpm::ids {
namespace {

TEST(PcapPipeline, ClassifyPorts) {
  EXPECT_EQ(classify_port(80), pattern::Group::http);
  EXPECT_EQ(classify_port(8080), pattern::Group::http);
  EXPECT_EQ(classify_port(53), pattern::Group::dns);
  EXPECT_EQ(classify_port(21), pattern::Group::ftp);
  EXPECT_EQ(classify_port(25), pattern::Group::smtp);
  EXPECT_EQ(classify_port(12345), pattern::Group::generic);
}

TEST(PcapPipeline, EndToEndMatchesDirectScan) {
  // Generate flows, plant a pattern, write pcap (with reordering), run the
  // pipeline; alerts must equal a direct scan of each reassembled stream.
  net::FlowGenConfig fcfg;
  fcfg.flow_count = 3;
  fcfg.bytes_per_flow = 60000;
  fcfg.reorder_fraction = 0.3;
  fcfg.seed = 11;
  auto flows = net::generate_flows(fcfg);

  pattern::PatternSet rules;
  rules.add("PLANTED-IN-FLOW", false, pattern::Group::http);
  rules.add("GET /", false, pattern::Group::http);
  // Plant the marker into flow 1's stream, then re-segment all flows from
  // the patched streams (fixed 1000-byte segments, in order).
  net::GeneratedFlows repacked = std::move(flows);
  std::copy_n("PLANTED-IN-FLOW", 15, repacked.streams[1].begin() + 1234);
  std::vector<net::Packet> packets;
  for (std::size_t f = 0; f < repacked.streams.size(); ++f) {
    const auto& s = repacked.streams[f];
    for (std::size_t off = 0; off < s.size(); off += 1000) {
      net::Packet p;
      p.tuple = repacked.tuples[f];
      p.tcp_seq = static_cast<std::uint32_t>(off);
      const std::size_t len = std::min<std::size_t>(1000, s.size() - off);
      p.payload.assign(s.begin() + static_cast<long>(off),
                       s.begin() + static_cast<long>(off + len));
      packets.push_back(std::move(p));
    }
  }

  const auto pcap = net::write_pcap(packets);
  const DatabasePtr db = compile(core::Algorithm::vpatch, rules);
  const auto result = inspect_pcap(pcap, db);
  EXPECT_EQ(result.skipped_records, 0u);
  EXPECT_EQ(result.reassembly.dropped_segments, 0u);

  // Ground truth: scan each stream directly with the http-group matcher.
  const GroupedRules grouped(db);
  std::size_t expected = 0;
  for (const auto& s : repacked.streams) {
    expected += grouped.matcher_for(pattern::Group::http).count_matches(s);
  }
  EXPECT_EQ(result.alerts.size(), expected);
  // The planted marker must be among the alerts.
  bool planted_found = false;
  for (const Alert& a : result.alerts) {
    if (a.pattern_id == 0) planted_found = true;
  }
  EXPECT_TRUE(planted_found);
}

TEST(PcapPipeline, UdpPayloadsScannedPerDatagram) {
  pattern::PatternSet rules;
  rules.add("dns-marker", false, pattern::Group::dns);
  net::Packet p;
  p.tuple.src_ip = 1;
  p.tuple.dst_ip = 2;
  p.tuple.src_port = 5353;
  p.tuple.dst_port = 53;
  p.tuple.proto = net::IpProto::udp;
  p.payload = util::to_bytes("xx dns-marker yy");
  const auto result =
      inspect_pcap(net::write_pcap({p}), compile(core::Algorithm::spatch, rules));
  ASSERT_EQ(result.alerts.size(), 1u);
  EXPECT_EQ(result.alerts[0].group, pattern::Group::dns);
}

}  // namespace
}  // namespace vpm::ids
