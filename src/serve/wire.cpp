#include "zipflm/serve/wire.hpp"

#include <string>

#include "zipflm/net/frame.hpp"
#include "zipflm/net/telemetry.hpp"

namespace zipflm::serve::wire {
namespace {

using net::frame::Writer;

struct Reader : net::frame::Reader {
  Reader(const std::vector<std::byte>& bytes, FrameType expected)
      : net::frame::Reader(bytes, expected, "serve") {}
};

}  // namespace

std::vector<std::byte> encode_submit(const Request& request) {
  Writer w(FrameType::Submit);
  w.u64(request.session_id);
  w.u64(request.new_tokens);
  w.u64(request.seed);
  w.f64(request.options.temperature);
  w.i64(request.options.max_context);
  w.i64(request.options.top_k);
  w.array(request.context);
  return w.take();
}

Request decode_submit(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::Submit);
  Request request;
  request.session_id = r.u64();
  request.new_tokens = static_cast<std::size_t>(r.u64());
  request.seed = r.u64();
  request.options.temperature = r.f64();
  request.options.max_context = r.i64();
  request.options.top_k = r.i64();
  request.context = r.array<Index>();
  r.finish();
  return request;
}

std::vector<std::byte> encode_admission(const Admission& admission) {
  Writer w(FrameType::Admission);
  w.u8(admission.accepted ? 1 : 0);
  w.u64(admission.request_id);
  w.u64(admission.queue_depth);
  w.f64(admission.retry_after_seconds);
  return w.take();
}

Admission decode_admission(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::Admission);
  Admission admission;
  admission.accepted = r.u8() != 0;
  admission.request_id = r.u64();
  admission.queue_depth = static_cast<std::size_t>(r.u64());
  admission.retry_after_seconds = r.f64();
  r.finish();
  return admission;
}

std::vector<std::byte> encode_response(const Response& response) {
  Writer w(FrameType::Response);
  w.u64(response.request_id);
  w.u64(response.session_id);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.u8(response.cache_hit ? 1 : 0);
  w.f64(response.queue_seconds);
  w.f64(response.total_seconds);
  w.array(response.tokens);
  return w.take();
}

Response decode_response(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::Response);
  Response response;
  response.request_id = r.u64();
  response.session_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResponseStatus::Expired)) {
    throw net::ProtocolError("serve response carries unknown status " +
                             std::to_string(status));
  }
  response.status = static_cast<ResponseStatus>(status);
  response.cache_hit = r.u8() != 0;
  response.queue_seconds = r.f64();
  response.total_seconds = r.f64();
  response.tokens = r.array<Index>();
  r.finish();
  return response;
}

std::vector<std::byte> encode_bye() { return Writer(FrameType::Bye).take(); }

std::vector<std::byte> encode_stats_request(const std::string& prefix) {
  Writer w(FrameType::StatsRequest);
  w.str(prefix);
  return w.take();
}

std::string decode_stats_request(const std::vector<std::byte>& payload) {
  Reader r(payload, FrameType::StatsRequest);
  std::string prefix = r.str();
  r.finish();
  return prefix;
}

std::vector<std::byte> encode_stats_reply(const obs::MetricsSnapshot& snap) {
  // Type byte + the telemetry plane's snapshot encoding (full
  // histogram buckets, so the client computes exact windowed
  // percentiles from bucket deltas).
  std::vector<std::byte> payload;
  payload.push_back(
      static_cast<std::byte>(static_cast<std::uint8_t>(FrameType::StatsReply)));
  net::telemetry::write_metrics_snapshot(payload, snap);
  return payload;
}

obs::MetricsSnapshot decode_stats_reply(const std::vector<std::byte>& payload) {
  if (frame_type(payload) != FrameType::StatsReply) {
    throw net::ProtocolError("serve frame is not a StatsReply");
  }
  std::size_t cursor = 1;
  obs::MetricsSnapshot snap =
      net::telemetry::read_metrics_snapshot(payload, cursor);
  if (cursor != payload.size()) {
    throw net::ProtocolError(
        "serve StatsReply carries " + std::to_string(payload.size() - cursor) +
        " trailing bytes");
  }
  return snap;
}

FrameType frame_type(const std::vector<std::byte>& payload) {
  if (payload.empty()) {
    throw net::ProtocolError("empty serve frame");
  }
  const auto type = static_cast<std::uint8_t>(payload.front());
  if (type < static_cast<std::uint8_t>(FrameType::Submit) ||
      type > static_cast<std::uint8_t>(FrameType::StatsReply)) {
    throw net::ProtocolError("unknown serve frame type " +
                             std::to_string(type));
  }
  return static_cast<FrameType>(type);
}

void send_frame(net::Transport& transport, int peer,
                const std::vector<std::byte>& payload) {
  ZIPFLM_CHECK(payload.size() <= kMaxFrameBytes, "serve frame too large");
  const std::uint64_t length = payload.size();
  // Both sends must outlive their waits; post the pair, then wait the
  // pair, so a stream backend can coalesce them into one flush.
  auto header = transport.send(
      peer, std::span(reinterpret_cast<const std::byte*>(&length),
                      sizeof(length)));
  auto body = transport.send(peer, std::span(payload.data(), payload.size()));
  header.wait();
  body.wait();
}

std::vector<std::byte> recv_frame(net::Transport& transport, int peer) {
  std::uint64_t length = 0;
  transport.recv_blocking(
      peer,
      std::span(reinterpret_cast<std::byte*>(&length), sizeof(length)));
  if (length == 0 || length > kMaxFrameBytes) {
    throw net::ProtocolError("serve frame length " + std::to_string(length) +
                             " out of range");
  }
  std::vector<std::byte> payload(static_cast<std::size_t>(length));
  transport.recv_blocking(peer, std::span(payload.data(), payload.size()));
  frame_type(payload);  // validate before handing upward
  return payload;
}

}  // namespace zipflm::serve::wire
