// Set-up timing, the closed- and open-loop pipeline runs, the checking sink,
// and the per-run verdict (alert digest + drain and lifecycle identities).
#include <algorithm>
#include <atomic>
#include <cmath>

#include <sched.h>

#include "capture/topology.hpp"
#include "pipeline/runtime.hpp"
#include "sensorbench.hpp"
#include "util/hash.hpp"

namespace sensorbench {

namespace {

std::atomic<std::uint64_t> next_sink_id{1};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

CheckingSink::CheckingSink(std::uint64_t sample_mask, std::size_t threads,
                           std::size_t capacity)
    : id_(next_sink_id.fetch_add(1, std::memory_order_relaxed)), sample_mask_(sample_mask) {
  for (std::size_t i = 0; i < threads; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->samples.resize(capacity);
    slots_.back()->samples.clear();
  }
}

CheckingSink::Slot& CheckingSink::slot() {
  // Sink ids are never reused, so a thread's cached slot is only ever
  // dereferenced while the sink that owns it is alive.
  thread_local std::uint64_t cached_id = 0;
  thread_local Slot* cached = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (claimed_ == slots_.size()) slots_.push_back(std::make_unique<Slot>());
    cached = slots_[claimed_++].get();
    cached_id = id_;
  }
  return *cached;
}

void CheckingSink::on_alert(const vpm::ids::Alert& alert) {
  Slot& s = slot();
  const std::uint64_t before = s.tally.h1;
  s.tally.add(alert.flow_id, alert.pattern_id, alert.stream_offset);
  // The key just added, recovered from the digest: picks the sampled subset
  // by content, identically on every commit.
  const std::uint64_t key = s.tally.h1 - before;
  if (((key >> 40) & sample_mask_) == 0) {
    if (s.samples.size() < s.samples.capacity()) {
      s.samples.push_back({alert.flow_id, alert.stream_offset, now_ns(), alert.pattern_id, 0});
    } else {
      ++s.dropped;
    }
  }
}

Tally CheckingSink::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  Tally t;
  for (const auto& s : slots_) {
    t.count += s->tally.count;
    t.h1 += s->tally.h1;
    t.h2 += s->tally.h2;
  }
  return t;
}

std::uint64_t CheckingSink::samples_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->dropped;
  return n;
}

std::vector<AlertSample> CheckingSink::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AlertSample> all;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    for (AlertSample a : slots_[i]->samples) {
      a.thread = i;
      all.push_back(a);
    }
  }
  return all;
}

Placement placement(unsigned workers) {
  // The CPUs the process started with, read once: after the first run the
  // calling thread's own mask is its pinned CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  Placement p;
  if (cpus.size() < workers + 1) return p;
  p.submitter = cpus.back();
  p.workers.assign(cpus.end() - 1 - workers, cpus.end() - 1);
  return p;
}

RunOutcome run_pipeline(const Inputs& in, const RunOptions& opt) {
  const WorkloadSpec& spec = in.spec();
  // Harness buffers are sized and touched before set-up, so they add a
  // constant to peak_rss_mb: up to 16 K latency samples per second per
  // worker (CheckingSink), and in the closed loop up to 8 K batches per
  // second (2 M packets/s) before the mark and lag arrays would grow.
  // Only the open loop samples latency.
  const bool open = opt.open_loop;
  const double span_s = opt.seconds + 2;
  CheckingSink sink(open ? spec.sample_mask : ~std::uint64_t{0}, kWorkers,
                    open ? static_cast<std::size_t>(span_s * 16000) : 0);
  RunOutcome out;
  out.open_loop = open;
  out.pps = spec.paced_pps;
  const auto batches = static_cast<std::size_t>(span_s * (open ? spec.paced_pps : 8000));
  out.lag_us.resize(batches);
  out.lag_us.clear();
  out.marks.resize(open ? static_cast<std::size_t>(span_s * 1000) : batches);
  out.marks.clear();
  vpm::pipeline::PipelineConfig cfg = in.pipeline_config(&sink);
  cfg.metrics = opt.metrics;
  std::unique_ptr<Feed> feed = in.make_feed();
  const Placement place = placement(cfg.workers);
  if (place.submitter >= 0) {
    cfg.worker_cpus = place.workers;
    vpm::capture::pin_current_thread(place.submitter);
  }

  // Set-up: serialized blob in memory -> started runtime, repeated when
  // set-up is being measured; the last runtime carries the run.
  std::unique_ptr<vpm::pipeline::PipelineRuntime> rt;
  const std::uint64_t setup_begin = now_ns();
  for (int i = 0;; ++i) {
    const bool more = opt.repeat_setup && i < 25 && (i < 5 || now_ns() - setup_begin < 1'000'000'000);
    if (i > 0 && !more) break;
    if (rt != nullptr) {
      rt->stop();
      rt.reset();
    }
    const std::uint64_t t0 = now_ns();
    vpm::DatabasePtr db = vpm::Database::from_serialized(in.serialized_db());
    const std::uint64_t t1 = now_ns();
    rt = std::make_unique<vpm::pipeline::PipelineRuntime>(db, cfg);
    const std::uint64_t t2 = now_ns();
    rt->start();
    const std::uint64_t t3 = now_ns();
    if (opt.setup_times != nullptr) {
      opt.setup_times->push_back({(t1 - t0) * 1e-9, (t2 - t1) * 1e-9, (t3 - t2) * 1e-9});
    }
    if (opt.db_memory_mb != nullptr) {
      *opt.db_memory_mb = static_cast<double>(db->memory_bytes()) / (1024.0 * 1024.0);
    }
  }

  const auto limit_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<vpm::net::Packet> batch;
  batch.reserve(256);
  const std::uint64_t t0 = now_ns();
  out.t0_ns = t0;
  std::uint64_t sent = 0;
  if (!open) {
    for (;;) {
      if (sent > 0 && feed->at_epoch_boundary() && now_ns() - t0 >= limit_ns) break;
      batch.clear();
      const std::size_t n = feed->poll(batch, 256);
      const std::uint64_t due = now_ns();
      const std::uint64_t bytes_before = out.payload_bytes;
      for (vpm::net::Packet& p : batch) {
        out.payload_bytes += p.payload.size();
        rt->submit(std::move(p));
      }
      const std::uint64_t done = now_ns();
      out.marks.push_back({sent, due, bytes_before, out.lag_us.size()});
      out.lag_us.push_back(static_cast<float>(static_cast<double>(done - due) * 1e-3));
      out.submit_ns += done - due;
      sent += n;
    }
  } else {
    const double ns_per_packet = 1e9 / spec.paced_pps;
    for (;;) {
      const std::uint64_t now = now_ns();
      const auto due_count = static_cast<std::uint64_t>(static_cast<double>(now - t0) / ns_per_packet) + 1;
      if (sent >= due_count) {
        cpu_relax();
        continue;
      }
      if (sent > 0 && feed->at_epoch_boundary() && now - t0 >= limit_ns) break;
      batch.clear();
      const std::size_t n = feed->poll(batch, std::min<std::uint64_t>(due_count - sent, 64));
      const double due = static_cast<double>(t0) + static_cast<double>(sent) * ns_per_packet;
      const std::uint64_t bytes_before = out.payload_bytes;
      const std::uint64_t s0 = opt.time_submit ? now_ns() : 0;
      for (vpm::net::Packet& p : batch) {
        out.payload_bytes += p.payload.size();
        rt->submit(std::move(p));
      }
      const std::uint64_t done = now_ns();
      if (opt.time_submit) out.submit_ns += done - s0;
      if (out.marks.empty() || now - out.marks.back().due_ns >= 1'000'000) {
        out.marks.push_back({sent, now, bytes_before, out.lag_us.size()});
      }
      out.lag_us.push_back(static_cast<float>((static_cast<double>(done) - due) * 1e-3));
      sent += n;
    }
  }
  // Closing mark: the last window can end at the final batch (not after the
  // drain in stop()).
  out.marks.push_back({sent, now_ns(), out.payload_bytes, out.lag_us.size()});
  rt->stop();
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.packets = sent;
  out.epochs = feed->epochs_done();
  out.stats = rt->stats();
  out.tally = sink.tally();
  out.samples = sink.samples();
  out.samples_dropped = sink.samples_dropped();
  return out;
}

Verdict check_run(const RunOutcome& run, const Expectation& exp) {
  Verdict v;
  const vpm::pipeline::PipelineStats& st = run.stats;
  const vpm::pipeline::WorkerStats t = st.totals();
  v.attempted = run.packets + exp.tally.count;
  const std::uint64_t lost = st.dropped_backpressure + t.shed_packets;
  v.failed += lost;
  if (lost > 0) {
    v.problems.push_back("lost packets: dropped=" + std::to_string(st.dropped_backpressure) +
                         " shed=" + std::to_string(t.shed_packets));
  }
  if (!(run.tally == exp.tally)) {
    const std::uint64_t diff = run.tally.count > exp.tally.count
                                   ? run.tally.count - exp.tally.count
                                   : exp.tally.count - run.tally.count;
    v.failed += std::max<std::uint64_t>(1, diff);
    v.problems.push_back("alert multiset differs from the reference: got " +
                         std::to_string(run.tally.count) + " alerts, expected " +
                         std::to_string(exp.tally.count));
  }
  const auto violated = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++v.failed;
    v.problems.push_back("identity violated: " + what);
  };
  std::uint64_t packets = 0;
  for (std::size_t w = 0; w < st.workers.size(); ++w) {
    const vpm::pipeline::WorkerStats& ws = st.workers[w];
    packets += ws.packets;
    violated(ws.packets == ws.processed_packets + ws.shed_packets,
             "worker " + std::to_string(w) + " packets == processed + shed");
  }
  violated(st.routed == packets, "routed == sum of worker packets");
  violated(st.submitted == run.packets, "submitted == packets polled");
  violated(st.submitted == st.routed + st.dropped_backpressure, "submitted == routed + dropped");
  violated(t.connections_started == t.connections_ended + t.tracked_connections,
           "connections_started == connections_ended + tracked_connections");
  violated(st.worker_failures == 0, "no worker failures");
  return v;
}

Latency detection_latency(const RunOutcome& run, const Inputs& in, const Reference& ref,
                          const Expectation& exp) {
  const std::uint64_t per_epoch = in.base_packets().size();
  const bool open = run.open_loop;
  const double ns_per_packet = open ? 1e9 / run.pps : 0.0;
  const auto due_of = [&](std::uint64_t packet) -> double {
    if (open) return static_cast<double>(run.t0_ns) + static_cast<double>(packet) * ns_per_packet;
    auto it = std::upper_bound(run.marks.begin(), run.marks.end(), packet,
                               [](std::uint64_t p, const RunOutcome::Mark& m) {
                                 return p < m.packet;
                               });
    return static_cast<double>(std::prev(it)->due_ns);
  };
  Latency lat;
  lat.samples.reserve(run.samples.size());
  for (const AlertSample& s : run.samples) {
    // Candidate (epoch, stream) pairs carrying this flow id; where ids repeat
    // across epochs, the latest trigger already due when the alert fired.
    auto lo = std::lower_bound(exp.keys.begin(), exp.keys.end(), s.flow_id,
                               [](const Expectation::Key& k, std::uint64_t id) {
                                 return k.flow_id < id;
                               });
    // Entries of one flow id are in epoch order, and for one stream a later
    // epoch's trigger is due later: stop at the first one not yet due.
    double best = -1.0;
    const RefAlert* ra = nullptr;
    std::uint32_t ra_stream = UINT32_MAX;
    for (; lo != exp.keys.end() && lo->flow_id == s.flow_id; ++lo) {
      if (lo->stream != ra_stream) {
        ra = ref.find(lo->stream, s.pattern, s.offset);
        ra_stream = lo->stream;
      }
      if (ra == nullptr) continue;
      const double due = due_of(lo->epoch * per_epoch + ra->trigger);
      if (due > static_cast<double>(s.t_ns)) break;
      best = due;
    }
    if (best < 0) {
      ++lat.unresolved;
      continue;
    }
    lat.samples.push_back({static_cast<std::uint64_t>(best),
                           (static_cast<double>(s.t_ns) - best) * 1e-3, s.thread});
  }
  std::sort(lat.samples.begin(), lat.samples.end());
  return lat;
}

double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

}  // namespace sensorbench
