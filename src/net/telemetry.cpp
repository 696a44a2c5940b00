#include "zipflm/net/telemetry.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "zipflm/net/frame.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm::net::telemetry {
namespace {

using frame::Writer;

struct Reader : frame::Reader {
  Reader(const std::vector<std::byte>& bytes, FrameType expected)
      : frame::Reader(bytes, expected, "telemetry") {}
};

// Smallest possible encodings, used to bound decoded counts.
constexpr std::size_t kMinEventBytes =
    8 /*name len*/ + 1 /*arg mask*/ + 8 /*start*/ + 8 /*dur*/ + 1 /*instant*/;
constexpr std::size_t kMinLaneBytes =
    8 /*label len*/ + 8 /*sort_key*/ + 8 /*dropped*/ + 8 /*event count*/;
constexpr std::size_t kMinMetricBytes = 8 /*name len*/ + 8 /*value*/;

void write_event(Writer& w, const obs::OwnedTraceEvent& ev) {
  w.str(ev.name);
  std::uint8_t mask = 0;
  for (std::size_t i = 0; i < obs::TraceEvent::kMaxArgs; ++i) {
    if (!ev.arg_name[i].empty()) mask |= static_cast<std::uint8_t>(1u << i);
  }
  w.u8(mask);
  for (std::size_t i = 0; i < obs::TraceEvent::kMaxArgs; ++i) {
    if (ev.arg_name[i].empty()) continue;
    w.str(ev.arg_name[i]);
    w.f64(ev.arg[i]);
  }
  w.u64(ev.start_ns);
  w.u64(ev.dur_ns);
  w.u8(ev.instant ? 1 : 0);
}

obs::OwnedTraceEvent read_event(Reader& r) {
  obs::OwnedTraceEvent ev;
  ev.name = r.str();
  const std::uint8_t mask = r.u8();
  if (mask >= (1u << obs::TraceEvent::kMaxArgs)) {
    throw ProtocolError("telemetry event carries unknown arg mask " +
                        std::to_string(mask));
  }
  for (std::size_t i = 0; i < obs::TraceEvent::kMaxArgs; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    ev.arg_name[i] = r.str();
    ev.arg[i] = r.f64();
  }
  ev.start_ns = r.u64();
  ev.dur_ns = r.u64();
  ev.instant = r.u8() != 0;
  return ev;
}

void write_histogram(Writer& w, const obs::HistogramSnapshot& h) {
  w.u64(h.count);
  w.f64(h.sum);
  w.f64(h.min);
  w.f64(h.max);
  w.u64(h.buckets.size());
  for (const std::uint64_t b : h.buckets) w.u64(b);
}

obs::HistogramSnapshot read_histogram(Reader& r) {
  obs::HistogramSnapshot h;
  h.count = r.u64();
  h.sum = r.f64();
  h.min = r.f64();
  h.max = r.f64();
  const std::uint64_t buckets = r.count(8);
  h.buckets.resize(static_cast<std::size_t>(buckets));
  for (auto& b : h.buckets) b = r.u64();
  return h;
}

}  // namespace

std::vector<std::byte> encode_begin(const Begin& begin) {
  Writer w(FrameType::Begin);
  w.u32(begin.probes);
  w.u8(begin.want_trace ? 1 : 0);
  w.u8(begin.want_metrics ? 1 : 0);
  return w.take();
}

Begin decode_begin(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::Begin);
  Begin begin;
  begin.probes = r.u32();
  begin.want_trace = r.u8() != 0;
  begin.want_metrics = r.u8() != 0;
  r.finish();
  if (begin.probes == 0 || begin.probes > 4096) {
    throw ProtocolError("telemetry Begin carries implausible probe count " +
                        std::to_string(begin.probes));
  }
  return begin;
}

std::vector<std::byte> encode_clock_probe(const ClockProbe& probe) {
  Writer w(FrameType::ClockProbe);
  w.u64(probe.probe_id);
  w.u64(probe.send_ns);
  return w.take();
}

ClockProbe decode_clock_probe(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::ClockProbe);
  ClockProbe probe;
  probe.probe_id = r.u64();
  probe.send_ns = r.u64();
  r.finish();
  return probe;
}

std::vector<std::byte> encode_clock_reply(const ClockReply& reply) {
  Writer w(FrameType::ClockReply);
  w.u64(reply.probe_id);
  w.u64(reply.recv_ns);
  w.u64(reply.send_ns);
  return w.take();
}

ClockReply decode_clock_reply(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::ClockReply);
  ClockReply reply;
  reply.probe_id = r.u64();
  reply.recv_ns = r.u64();
  reply.send_ns = r.u64();
  r.finish();
  return reply;
}

std::vector<std::vector<std::byte>> encode_trace_chunks(
    const obs::ProcessTrace& trace, std::size_t target_bytes) {
  target_bytes = std::min(std::max<std::size_t>(target_bytes, 4096),
                          kMaxFrameBytes / 2);
  std::vector<std::vector<std::byte>> frames;

  Writer* w = nullptr;
  std::size_t lane_count_at = 0;
  std::uint64_t lanes_in_chunk = 0;
  // Writer has no default ctor on purpose; manage via optional-ish ptr.
  std::vector<Writer> storage;

  const auto open_chunk = [&] {
    storage.clear();
    storage.emplace_back(FrameType::TraceChunk);
    w = &storage.back();
    w->str(trace.label);
    lane_count_at = w->reserve_u64();
    lanes_in_chunk = 0;
  };
  const auto close_chunk = [&] {
    w->patch_u64(lane_count_at, lanes_in_chunk);
    frames.push_back(w->take());
  };

  open_chunk();
  for (const obs::LaneSnapshot& lane : trace.lanes) {
    if (lane.events.empty() && lane.dropped == 0) continue;

    // Open a section for this lane; continuation sections (after a
    // chunk split) repeat the label with dropped = 0 so the count is
    // not double-merged.
    bool first_section = true;
    std::size_t emitted = 0;
    while (true) {
      ++lanes_in_chunk;
      w->str(lane.label);
      w->i64(lane.sort_key);
      w->u64(first_section ? lane.dropped : 0);
      const std::size_t event_count_at = w->reserve_u64();
      std::uint64_t in_section = 0;
      while (emitted < lane.events.size() && w->size() < target_bytes) {
        write_event(*w, lane.events[emitted]);
        ++emitted;
        ++in_section;
      }
      w->patch_u64(event_count_at, in_section);
      if (emitted >= lane.events.size()) break;
      close_chunk();
      open_chunk();
      first_section = false;
    }
    if (w->size() >= target_bytes) {
      close_chunk();
      open_chunk();
    }
  }
  close_chunk();

  // Drop a trailing empty chunk unless it is the only one (an empty
  // trace still ships its process label).
  if (frames.size() > 1) {
    Reader probe(frames.back(), FrameType::TraceChunk);
    probe.str();
    if (probe.u64() == 0) frames.pop_back();
  }
  return frames;
}

void merge_trace_chunk(const std::vector<std::byte>& payload,
                       obs::ProcessTrace& into) {
  Reader r(payload, FrameType::TraceChunk);
  into.label = r.str();
  const std::uint64_t sections = r.count(kMinLaneBytes);
  for (std::uint64_t s = 0; s < sections; ++s) {
    const std::string label = r.str();
    const std::int64_t sort_key = r.i64();
    const std::uint64_t dropped = r.u64();
    const std::uint64_t events = r.count(kMinEventBytes);

    obs::LaneSnapshot* lane = nullptr;
    for (auto& existing : into.lanes) {
      if (existing.label == label) {
        lane = &existing;
        break;
      }
    }
    if (lane == nullptr) {
      into.lanes.emplace_back();
      lane = &into.lanes.back();
      lane->label = label;
      lane->sort_key = static_cast<int>(sort_key);
    }
    lane->dropped += dropped;
    lane->events.reserve(lane->events.size() +
                         static_cast<std::size_t>(events));
    for (std::uint64_t e = 0; e < events; ++e) {
      lane->events.push_back(read_event(r));
    }
  }
  r.finish();
}

void write_metrics_snapshot(std::vector<std::byte>& out,
                            const obs::MetricsSnapshot& snap) {
  Writer w(FrameType::MetricsChunk);  // type byte stripped below
  w.u64(snap.counters.size());
  for (const auto& [name, v] : snap.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u64(snap.gauges.size());
  for (const auto& [name, v] : snap.gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u64(snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    w.str(name);
    write_histogram(w, h);
  }
  std::vector<std::byte> bytes = w.take();
  out.insert(out.end(), bytes.begin() + 1, bytes.end());
}

obs::MetricsSnapshot read_metrics_snapshot(
    const std::vector<std::byte>& bytes, std::size_t& cursor) {
  // Reframe the remainder as a MetricsChunk body so the strict Reader
  // does the bounds work; trailing bytes after the snapshot are the
  // caller's to judge.
  std::vector<std::byte> body;
  body.reserve(1 + bytes.size() - cursor);
  body.push_back(
      static_cast<std::byte>(static_cast<std::uint8_t>(FrameType::MetricsChunk)));
  body.insert(body.end(), bytes.begin() + static_cast<std::ptrdiff_t>(cursor),
              bytes.end());

  Reader r(body, FrameType::MetricsChunk);
  obs::MetricsSnapshot snap;
  const std::uint64_t counters = r.count(kMinMetricBytes);
  for (std::uint64_t i = 0; i < counters; ++i) {
    std::string name = r.str();
    snap.counters[std::move(name)] = r.u64();
  }
  const std::uint64_t gauges = r.count(kMinMetricBytes);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    std::string name = r.str();
    snap.gauges[std::move(name)] = r.f64();
  }
  const std::uint64_t histograms = r.count(kMinMetricBytes);
  for (std::uint64_t i = 0; i < histograms; ++i) {
    std::string name = r.str();
    snap.histograms[std::move(name)] = read_histogram(r);
  }
  cursor = bytes.size() - r.remaining();
  return snap;
}

std::vector<std::byte> encode_metrics_frame(const obs::MetricsSnapshot& snap) {
  std::vector<std::byte> out;
  out.push_back(
      static_cast<std::byte>(static_cast<std::uint8_t>(FrameType::MetricsChunk)));
  write_metrics_snapshot(out, snap);
  return out;
}

obs::MetricsSnapshot decode_metrics_frame(
    const std::vector<std::byte>& payload) {
  if (frame_type(payload) != FrameType::MetricsChunk) {
    throw ProtocolError("telemetry frame is not a MetricsChunk");
  }
  std::size_t cursor = 1;
  obs::MetricsSnapshot snap = read_metrics_snapshot(payload, cursor);
  if (cursor != payload.size()) {
    throw ProtocolError("telemetry MetricsChunk carries " +
                        std::to_string(payload.size() - cursor) +
                        " trailing bytes");
  }
  return snap;
}

std::vector<std::byte> encode_done() {
  return Writer(FrameType::Done).take();
}

FrameType frame_type(const std::vector<std::byte>& payload) {
  if (payload.empty()) {
    throw ProtocolError("empty telemetry frame");
  }
  const auto type = static_cast<std::uint8_t>(payload.front());
  if (type < static_cast<std::uint8_t>(FrameType::Begin) ||
      type > static_cast<std::uint8_t>(FrameType::Done)) {
    throw ProtocolError("unknown telemetry frame type " +
                        std::to_string(type));
  }
  return static_cast<FrameType>(type);
}

void send_frame(Transport& transport, int peer,
                const std::vector<std::byte>& payload) {
  ZIPFLM_CHECK(payload.size() <= kMaxFrameBytes, "telemetry frame too large");
  const std::uint64_t length = payload.size();
  auto header = transport.send(
      peer,
      std::span(reinterpret_cast<const std::byte*>(&length), sizeof(length)));
  auto body = transport.send(peer, std::span(payload.data(), payload.size()));
  header.wait();
  body.wait();
}

std::vector<std::byte> recv_frame(Transport& transport, int peer) {
  std::uint64_t length = 0;
  transport.recv_blocking(
      peer, std::span(reinterpret_cast<std::byte*>(&length), sizeof(length)));
  if (length == 0 || length > kMaxFrameBytes) {
    throw ProtocolError("telemetry frame length " + std::to_string(length) +
                        " out of range");
  }
  std::vector<std::byte> payload(static_cast<std::size_t>(length));
  transport.recv_blocking(peer, std::span(payload.data(), payload.size()));
  frame_type(payload);  // validate before handing upward
  return payload;
}

WorkerTelemetry collect_from_peer(Transport& transport, int peer,
                                  const CollectOptions& options) {
  const ClockFn clock =
      options.clock ? options.clock : ClockFn(&obs::trace_now_ns);
  WorkerTelemetry result;

  Begin begin;
  begin.probes = static_cast<std::uint32_t>(std::max(options.probes, 1));
  begin.want_trace = options.want_trace;
  begin.want_metrics = options.want_metrics;
  send_frame(transport, peer, encode_begin(begin));

  std::vector<std::int64_t> offsets;
  offsets.reserve(begin.probes);
  std::int64_t min_rtt = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t i = 0; i < begin.probes; ++i) {
    ClockProbe probe;
    probe.probe_id = i;
    probe.send_ns = clock();
    const auto t0 = static_cast<std::int64_t>(probe.send_ns);
    send_frame(transport, peer, encode_clock_probe(probe));
    const std::vector<std::byte> payload = recv_frame(transport, peer);
    const auto t3 = static_cast<std::int64_t>(clock());
    const ClockReply reply = decode_clock_reply(payload);
    if (reply.probe_id != i) {
      throw ProtocolError("telemetry clock reply answers probe " +
                          std::to_string(reply.probe_id) + ", expected " +
                          std::to_string(i));
    }
    const auto t1 = static_cast<std::int64_t>(reply.recv_ns);
    const auto t2 = static_cast<std::int64_t>(reply.send_ns);
    offsets.push_back(((t1 - t0) + (t2 - t3)) / 2);
    min_rtt = std::min(min_rtt, (t3 - t0) - (t2 - t1));
  }
  // Median of K: robust to the odd probe that ate a scheduler hiccup.
  std::sort(offsets.begin(), offsets.end());
  const std::size_t n = offsets.size();
  result.clock.offset_ns = n % 2 == 1
                               ? offsets[n / 2]
                               : (offsets[n / 2 - 1] + offsets[n / 2]) / 2;
  result.clock.min_rtt_ns = min_rtt;
  result.clock.probes = static_cast<int>(n);
  result.trace.clock_offset_ns = result.clock.offset_ns;

  bool done = false;
  while (!done) {
    const std::vector<std::byte> payload = recv_frame(transport, peer);
    switch (frame_type(payload)) {
      case FrameType::TraceChunk:
        merge_trace_chunk(payload, result.trace);
        break;
      case FrameType::MetricsChunk:
        result.metrics = decode_metrics_frame(payload);
        break;
      case FrameType::Done:
        done = true;
        break;
      default:
        throw ProtocolError("unexpected telemetry frame " +
                            std::to_string(static_cast<int>(payload[0])) +
                            " while collecting");
    }
  }
  return result;
}

void serve_collector(Transport& transport, int collector_peer, ClockFn clock) {
  if (!clock) clock = ClockFn(&obs::trace_now_ns);

  const Begin begin = decode_begin(recv_frame(transport, collector_peer));
  for (std::uint32_t i = 0; i < begin.probes; ++i) {
    const std::vector<std::byte> payload =
        recv_frame(transport, collector_peer);
    const std::uint64_t t1 = clock();  // arrival stamp before decode
    const ClockProbe probe = decode_clock_probe(payload);
    ClockReply reply;
    reply.probe_id = probe.probe_id;
    reply.recv_ns = t1;
    reply.send_ns = clock();
    send_frame(transport, collector_peer, encode_clock_reply(reply));
  }

  if (begin.want_trace) {
    obs::ProcessTrace mine;
    mine.label = obs::process_label();
    mine.lanes = obs::trace_lane_snapshot();
    for (const auto& frame : encode_trace_chunks(mine)) {
      send_frame(transport, collector_peer, frame);
    }
  }
  if (begin.want_metrics) {
    send_frame(
        transport, collector_peer,
        encode_metrics_frame(obs::MetricsRegistry::global().snapshot()));
  }
  send_frame(transport, collector_peer, encode_done());
}

}  // namespace zipflm::net::telemetry
