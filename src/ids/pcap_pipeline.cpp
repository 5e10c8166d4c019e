#include "ids/pcap_pipeline.hpp"

#include <unordered_map>

namespace vpm::ids {

pattern::Group classify_port(std::uint16_t dst_port) {
  switch (dst_port) {
    case 80:
    case 8080:
    case 8000:
      return pattern::Group::http;
    case 53:
      return pattern::Group::dns;
    case 21:
      return pattern::Group::ftp;
    case 25:
    case 587:
      return pattern::Group::smtp;
    default:
      return pattern::Group::generic;
  }
}

PcapPipelineResult inspect_pcap(util::ByteView pcap_bytes, DatabasePtr db,
                                core::PrefilterMode prefilter,
                                net::ReassemblyConfig reassembly) {
  PcapPipelineResult result;
  const net::PcapParseResult parsed = net::read_pcap(pcap_bytes);
  result.packets = parsed.packets.size();
  result.skipped_records = parsed.skipped_records;

  IdsEngine engine(std::move(db));
  engine.set_prefilter_mode(prefilter);

  // Dense flow ids per directional 5-tuple: each side of a connection scans
  // as its own stream.
  std::unordered_map<std::uint64_t, std::uint64_t> flow_ids;
  auto flow_id_of = [&](const net::FiveTuple& t) {
    const auto [it, inserted] = flow_ids.emplace(t.hash(), flow_ids.size());
    return it->second;
  };

  net::TcpReassembler reassembler(
      [&](const net::StreamChunk& chunk) {
        engine.inspect(flow_id_of(chunk.tuple), classify_port(chunk.server_port),
                       chunk.data, result.alerts);
      },
      reassembly);
  // Connection end (FIN/RST/eviction) is a stream boundary: drop both
  // sides' scanner state so a reused tuple starts a fresh stream.
  reassembler.on_connection_end([&](const net::FiveTuple& client, net::EndReason) {
    engine.close_flow(flow_id_of(client));
    engine.close_flow(flow_id_of(client.reversed()));
  });

  for (const net::Packet& p : parsed.packets) {
    if (p.tuple.proto == net::IpProto::tcp) {
      reassembler.ingest(p);
    } else {
      // UDP: no reassembly; the engine's per-flow carry spans the datagrams
      // of one directional tuple.
      engine.inspect(flow_id_of(p.tuple), classify_port(p.tuple.dst_port), p.payload,
                     result.alerts);
    }
  }

  result.counters = engine.counters();
  result.reassembly = reassembler.stats();
  return result;
}

}  // namespace vpm::ids
