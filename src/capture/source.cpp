#include "capture/source.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "capture/afpacket_source.hpp"
#include "capture/pcap_source.hpp"
#include "capture/trace_source.hpp"

namespace vpm::capture {

namespace {

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::invalid_argument("capture source spec: bad " + std::string(what) +
                                " value '" + std::string(text) + "'");
  }
  return value;
}

// Splits "head,key=v,key=v" into head + key/value pairs.
struct SpecBody {
  std::string_view head;
  std::vector<std::pair<std::string_view, std::string_view>> options;
};

SpecBody split_spec_body(std::string_view body) {
  SpecBody out;
  std::size_t comma = body.find(',');
  out.head = body.substr(0, comma);
  while (comma != std::string_view::npos) {
    body.remove_prefix(comma + 1);
    comma = body.find(',');
    const std::string_view item = body.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (item.empty() || eq == 0 || eq == std::string_view::npos) {
      throw std::invalid_argument("capture source spec: expected key=value, got '" +
                                  std::string(item) + "'");
    }
    out.options.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return out;
}

std::unique_ptr<CaptureSource> open_trace(std::string_view body) {
  const SpecBody spec = split_spec_body(body);
  TraceConfig cfg;
  if (!spec.head.empty()) cfg.profile = std::string(spec.head);
  for (const auto& [key, value] : spec.options) {
    if (key == "flows") {
      cfg.flows = parse_u64(value, key);
    } else if (key == "mb") {
      cfg.bytes_per_flow = parse_u64(value, key) * 1024 * 1024 / std::max<std::size_t>(cfg.flows, 1);
    } else if (key == "bytes_per_flow") {
      cfg.bytes_per_flow = parse_u64(value, key);
    } else if (key == "seed") {
      cfg.seed = parse_u64(value, key);
    } else if (key == "epochs") {
      cfg.epochs = parse_u64(value, key);
    } else {
      throw std::invalid_argument("capture source spec: unknown trace option '" +
                                  std::string(key) + "'");
    }
  }
  return std::make_unique<TraceSource>(cfg);
}

std::unique_ptr<CaptureSource> open_afpacket(std::string_view body) {
  const SpecBody spec = split_spec_body(body);
  if (spec.head.empty()) {
    throw std::invalid_argument("capture source spec: afpacket needs an interface");
  }
  AfPacketConfig cfg;
  cfg.interface = std::string(spec.head);
  for (const auto& [key, value] : spec.options) {
    if (key == "blocks") {
      cfg.block_count = parse_u64(value, key);
    } else if (key == "block_kb") {
      cfg.block_size = parse_u64(value, key) * 1024;
    } else if (key == "fanout") {
      cfg.fanout_group = static_cast<std::uint16_t>(parse_u64(value, key));
    } else {
      throw std::invalid_argument(
          "capture source spec: unknown afpacket option '" + std::string(key) + "'");
    }
  }
  return std::make_unique<AfPacketSource>(cfg);
}

}  // namespace

std::string describe_capture_stats(const CaptureSource& source) {
  const CaptureStats s = source.stats();
  std::ostringstream out;
  out << "capture[" << source.kind() << "]: packets=" << s.packets
      << " bytes=" << s.bytes << " kernel_drops=" << s.kernel_drops
      << " ring_full=" << s.ring_full << " truncated=" << s.truncated
      << " skipped=" << s.skipped;
  if (s.ring_occupancy > 0.0) {
    out << " ring_occupancy=" << s.ring_occupancy;
  }
  return out.str();
}

std::unique_ptr<CaptureSource> open_source(std::string_view spec) {
  if (spec.empty()) {
    throw std::invalid_argument("capture source spec: empty");
  }
  const std::size_t colon = spec.find(':');
  // No scheme tag (or a path like C:\...): treat the whole spec as a pcap
  // path for backward compatibility with positional file arguments.
  const std::string_view scheme =
      colon == std::string_view::npos ? std::string_view{} : spec.substr(0, colon);
  const std::string_view body =
      colon == std::string_view::npos ? spec : spec.substr(colon + 1);

  if (scheme == "pcap") {
    return std::make_unique<PcapFileSource>(PcapFileSource::open(std::string(body)));
  }
  if (scheme == "trace") return open_trace(body);
  if (scheme == "afpacket") return open_afpacket(body);
  if (scheme.empty()) {
    return std::make_unique<PcapFileSource>(PcapFileSource::open(std::string(spec)));
  }
  throw std::invalid_argument("capture source spec: unknown scheme '" +
                              std::string(scheme) + "' (expected pcap|trace|afpacket)");
}

}  // namespace vpm::capture
