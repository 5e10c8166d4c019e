// End-to-end packet pipeline: pcap bytes -> bidirectional TCP reassembly ->
// protocol classification -> grouped IDS inspection.  The full path a
// deployed sensor runs, assembled from the library's pieces.
#pragma once

#include <vector>

#include "ids/engine.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"

namespace vpm::ids {

struct PcapPipelineResult {
  std::vector<Alert> alerts;
  EngineCounters counters;
  std::size_t packets = 0;
  std::size_t skipped_records = 0;
  // Per-side/lifecycle reassembly counters (dropped_segments,
  // overlap_bytes_trimmed(), ...).
  net::ReassemblyStats reassembly;
};

// Classifies a flow by its server-side port, mirroring how Snort binds rule
// groups to port groups.  For reassembled TCP this is StreamChunk::server_port
// (the client's destination), so BOTH directions of a connection classify
// into the same group; for UDP it is the datagram's destination port.
pattern::Group classify_port(std::uint16_t dst_port);

// Parses `pcap_bytes`, reassembles every TCP flow bidirectionally (each side
// scans as its own stream), and inspects each stream with the rules grouped
// off `db`; alerts carry db->generation().  UDP datagrams of one directional
// tuple are scanned as one stream too: the engine keeps that flow's carry
// across datagrams, as the pipeline worker does.  `prefilter` sets the
// engine's screen mode; `reassembly` selects the overlap policy and
// buffering limits.
PcapPipelineResult inspect_pcap(util::ByteView pcap_bytes, DatabasePtr db,
                                core::PrefilterMode prefilter = core::PrefilterMode::automatic,
                                net::ReassemblyConfig reassembly = {});

}  // namespace vpm::ids
