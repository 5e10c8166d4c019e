// The correctness reference.  It shares no code with net/ (reassembly,
// decode) or ids/ (engine, rule groups): each ground-truth stream is scanned
// whole, in one call, by full-matrix Aho-Corasick built over the stream's
// group working set (the group's own patterns plus the generic ones).  The
// only library pieces used are the pattern types, the AC matcher and the
// flow-id definition pipeline::flow_key that alerts are keyed by.
#include <algorithm>
#include <map>
#include <unordered_map>

#include "sensorbench.hpp"
#include "util/hash.hpp"

namespace sensorbench {

using vpm::pattern::Group;

vpm::pattern::PatternSet working_set(const vpm::pattern::PatternSet& master, Group g,
                                     std::vector<std::uint32_t>* to_master) {
  vpm::pattern::PatternSet set;
  for (const vpm::pattern::Pattern& p : master) {
    if (p.group != g && p.group != Group::generic) continue;
    const std::size_t before = set.size();
    set.add(p.bytes, p.nocase, p.group);
    if (to_master != nullptr && set.size() > before) to_master->push_back(p.id);
  }
  return set;
}

namespace {

// In-order delivery frontier of one directional stream, from its packets'
// sequence numbers alone: a byte becomes deliverable once every byte before
// it has arrived.  Returns, per packet position in `pkts`, the frontier
// after that packet.
struct StreamPackets {
  std::vector<std::uint32_t> index;  // base-epoch packet indices, in order
};

std::vector<std::uint64_t> frontiers(const std::vector<vpm::net::Packet>& base,
                                     const StreamPackets& sp) {
  // Offset zero: one past the SYN when the stream has one, else the lowest
  // data sequence number seen (mid-stream pickup).
  std::int64_t origin = 0;
  bool have_origin = false;
  for (std::uint32_t i : sp.index) {
    if (base[i].tcp_flags & vpm::net::kTcpSyn) {
      origin = static_cast<std::int64_t>(base[i].tcp_seq) + 1;
      have_origin = true;
      break;
    }
  }
  if (!have_origin) {
    const std::uint32_t first = base[sp.index.front()].tcp_seq;
    std::int32_t lowest = 0;
    for (std::uint32_t i : sp.index) {
      if (base[i].payload.empty()) continue;
      lowest = std::min(lowest, static_cast<std::int32_t>(base[i].tcp_seq - first));
    }
    origin = static_cast<std::int64_t>(first) + lowest;
  }
  std::vector<std::uint64_t> out;
  out.reserve(sp.index.size());
  std::uint64_t frontier = 0;
  std::map<std::uint64_t, std::uint64_t> held;  // begin -> end, beyond frontier
  for (std::uint32_t i : sp.index) {
    const vpm::net::Packet& p = base[i];
    if (!p.payload.empty()) {
      const auto rel = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(p.tcp_seq - static_cast<std::uint32_t>(origin)));
      if (rel >= 0) {
        const std::uint64_t b = static_cast<std::uint64_t>(rel);
        const std::uint64_t e = b + p.payload.size();
        if (b <= frontier) {
          frontier = std::max(frontier, e);
        } else {
          std::uint64_t& end = held[b];
          end = std::max(end, e);
        }
        for (auto it = held.begin(); it != held.end() && it->first <= frontier;) {
          frontier = std::max(frontier, it->second);
          it = held.erase(it);
        }
      }
    }
    out.push_back(frontier);
  }
  return out;
}

}  // namespace

Reference build_reference(const Inputs& in) {
  const std::vector<Stream>& streams = in.streams();
  const std::vector<vpm::net::Packet>& base = in.base_packets();

  std::unordered_map<std::uint64_t, std::uint32_t> stream_of;
  for (std::uint32_t s = 0; s < streams.size(); ++s) {
    stream_of.emplace(vpm::pipeline::flow_key(streams[s].tuple), s);
  }
  std::vector<StreamPackets> per_stream(streams.size());
  for (std::uint32_t i = 0; i < base.size(); ++i) {
    const auto it = stream_of.find(vpm::pipeline::flow_key(base[i].tuple));
    if (it != stream_of.end() && streams[it->second].tuple == base[i].tuple) {
      per_stream[it->second].index.push_back(i);
    }
  }

  Reference ref;
  for (std::size_t gi = 0; gi < static_cast<std::size_t>(Group::count); ++gi) {
    const auto g = static_cast<Group>(gi);
    std::vector<std::uint32_t> members;
    for (std::uint32_t s = 0; s < streams.size(); ++s) {
      if (streams[s].group == g) members.push_back(s);
    }
    if (members.empty()) continue;
    std::vector<std::uint32_t> to_master;
    const vpm::pattern::PatternSet set = working_set(in.rules(), g, &to_master);
    if (set.empty()) continue;
    const vpm::MatcherPtr ac = vpm::core::make_matcher(vpm::core::Algorithm::aho_corasick, set);
    for (std::uint32_t s : members) {
      const std::vector<vpm::Match> found = ac->find_matches(*streams[s].bytes);
      if (found.empty()) continue;
      // Trigger packet per match: the first packet after which the
      // stream's frontier covers the match's last byte.
      const std::vector<std::uint64_t> fr = frontiers(base, per_stream[s]);
      for (const vpm::Match& m : found) {
        const std::uint32_t master = to_master[m.pattern_id];
        const std::uint64_t end = m.pos + in.rules()[master].size();
        const auto pos = std::lower_bound(fr.begin(), fr.end(), end);
        const std::uint32_t trigger =
            pos == fr.end() ? per_stream[s].index.back()
                            : per_stream[s].index[static_cast<std::size_t>(pos - fr.begin())];
        ref.alerts.push_back({s, master, m.pos, trigger});
      }
    }
  }
  std::sort(ref.alerts.begin(), ref.alerts.end(), [](const RefAlert& a, const RefAlert& b) {
    return std::tie(a.stream, a.pattern, a.offset) < std::tie(b.stream, b.pattern, b.offset);
  });
  return ref;
}

const RefAlert* Reference::find(std::uint32_t stream, std::uint32_t pattern,
                                std::uint64_t offset) const {
  const auto it = std::lower_bound(
      alerts.begin(), alerts.end(), std::tie(stream, pattern, offset),
      [](const RefAlert& a, const std::tuple<std::uint32_t&, std::uint32_t&, std::uint64_t&>& k) {
        return std::tie(a.stream, a.pattern, a.offset) < k;
      });
  if (it == alerts.end() || it->stream != stream || it->pattern != pattern ||
      it->offset != offset) {
    return nullptr;
  }
  return &*it;
}

void Tally::add(std::uint64_t flow_id, std::uint32_t pattern, std::uint64_t offset) {
  const std::uint64_t k =
      vpm::util::mix64(flow_id ^ vpm::util::mix64((std::uint64_t{pattern} << 40) ^ offset));
  ++count;
  h1 += k;
  h2 += vpm::util::mix64(k ^ 0xA5A5A5A55A5A5A5Aull);
}

Expectation expect(const Reference& ref,
                   const std::vector<std::vector<std::uint64_t>>& epoch_keys,
                   std::uint64_t epochs) {
  Expectation exp;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const std::vector<std::uint64_t>& keys = epoch_keys[e];
    for (const RefAlert& a : ref.alerts) exp.tally.add(keys[a.stream], a.pattern, a.offset);
    for (std::uint32_t s = 0; s < keys.size(); ++s) {
      exp.keys.push_back({keys[s], static_cast<std::uint32_t>(e), s});
    }
  }
  std::sort(exp.keys.begin(), exp.keys.end(),
            [](const Expectation::Key& a, const Expectation::Key& b) {
              return std::tie(a.flow_id, a.epoch) < std::tie(b.flow_id, b.epoch);
            });
  return exp;
}

}  // namespace sensorbench
