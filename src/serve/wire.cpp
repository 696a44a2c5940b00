#include "zipflm/serve/wire.hpp"

#include <cstring>
#include <string>

#include "zipflm/net/telemetry.hpp"

namespace zipflm::serve::wire {
namespace {

/// Append-only little-endian writer over a byte vector.
class Writer {
 public:
  // The type byte is the vector's first element, not a 1-byte insert
  // (which GCC 12 misreports as -Wstringop-overflow).
  explicit Writer(FrameType type) : bytes_{static_cast<std::byte>(type)} {}

  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void tokens(const std::vector<Index>& t) {
    u64(t.size());
    if (!t.empty()) raw(t.data(), t.size() * sizeof(Index));
  }
  void str(const std::string& s) {
    u64(s.size());
    if (!s.empty()) raw(s.data(), s.size());
  }

  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  std::vector<std::byte> bytes_;
};

/// Strict reader: every underrun or leftover byte is a protocol error.
class Reader {
 public:
  Reader(const std::vector<std::byte>& bytes, FrameType expected)
      : bytes_(bytes) {
    const auto got = static_cast<FrameType>(u8());
    if (got != expected) {
      throw net::ProtocolError(
          "serve frame type mismatch: expected " +
          std::to_string(static_cast<int>(expected)) + ", got " +
          std::to_string(static_cast<int>(got)));
    }
  }

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
  }
  std::int64_t i64() {
    std::int64_t v;
    raw(&v, sizeof(v));
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof(v));
    return v;
  }
  std::vector<Index> tokens() {
    const std::uint64_t count = u64();
    if (count > kMaxFrameBytes / sizeof(Index)) {
      throw net::ProtocolError("serve frame token count " +
                               std::to_string(count) + " is implausible");
    }
    std::vector<Index> t(static_cast<std::size_t>(count));
    if (count > 0) raw(t.data(), t.size() * sizeof(Index));
    return t;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - cursor_) {
      throw net::ProtocolError("serve frame string length " +
                               std::to_string(n) + " exceeds the frame");
    }
    std::string s(static_cast<std::size_t>(n), '\0');
    if (n > 0) raw(s.data(), s.size());
    return s;
  }

  void finish() const {
    if (cursor_ != bytes_.size()) {
      throw net::ProtocolError(
          "serve frame carries " + std::to_string(bytes_.size() - cursor_) +
          " trailing bytes");
    }
  }

 private:
  void raw(void* out, std::size_t size) {
    if (bytes_.size() - cursor_ < size) {
      throw net::ProtocolError("serve frame truncated: wanted " +
                               std::to_string(size) + " bytes, " +
                               std::to_string(bytes_.size() - cursor_) +
                               " left");
    }
    std::memcpy(out, bytes_.data() + cursor_, size);
    cursor_ += size;
  }

  const std::vector<std::byte>& bytes_;
  std::size_t cursor_ = 0;
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
  w.tokens(request.context);
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
  request.context = r.tokens();
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
  w.tokens(response.tokens);
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
  response.tokens = r.tokens();
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
