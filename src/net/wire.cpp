#include "src/net/wire.h"

#include <cstring>

namespace blurnet::net {

using tensor::Shape;
using tensor::Tensor;

const char* to_string(Opcode opcode) {
  switch (opcode) {
    case Opcode::kClassify: return "classify";
    case Opcode::kClassifyBatch: return "classify_batch";
    case Opcode::kStats: return "stats";
    case Opcode::kPing: return "ping";
    case Opcode::kClassifyResponse: return "classify_response";
    case Opcode::kClassifyBatchResponse: return "classify_batch_response";
    case Opcode::kStatsResponse: return "stats_response";
    case Opcode::kPongResponse: return "pong";
    case Opcode::kErrorResponse: return "error";
  }
  return "?";
}

bool is_request_opcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kClassify:
    case Opcode::kClassifyBatch:
    case Opcode::kStats:
    case Opcode::kPing:
      return true;
    default:
      return false;
  }
}

bool is_known_opcode(std::uint8_t raw) {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kClassify:
    case Opcode::kClassifyBatch:
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kClassifyResponse:
    case Opcode::kClassifyBatchResponse:
    case Opcode::kStatsResponse:
    case Opcode::kPongResponse:
    case Opcode::kErrorResponse:
      return true;
  }
  return false;
}

Opcode response_for(Opcode request) {
  switch (request) {
    case Opcode::kClassify: return Opcode::kClassifyResponse;
    case Opcode::kClassifyBatch: return Opcode::kClassifyBatchResponse;
    case Opcode::kStats: return Opcode::kStatsResponse;
    case Opcode::kPing: return Opcode::kPongResponse;
    default:
      throw WireError(std::string("response_for: ") + to_string(request) +
                      " is not a request opcode");
  }
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

// ---- WireWriter -------------------------------------------------------------

void WireWriter::put_u8(std::uint8_t v) { out_.push_back(v); }

void WireWriter::put_u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::put_u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::put_u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void WireWriter::put_f32(float v) {
  std::uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(bits);
}

void WireWriter::put_f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void WireWriter::put_string(const std::string& s) {
  if (s.size() > 0xFFFF) {
    throw WireError("WireWriter: string of " + std::to_string(s.size()) +
                    " bytes exceeds the u16 length prefix");
  }
  put_u16(static_cast<std::uint16_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// ---- WireReader -------------------------------------------------------------

const std::uint8_t* WireReader::need(std::size_t n, const char* field) {
  if (size_ - cursor_ < n) {
    throw WireError(std::string("payload truncated reading ") + field + " (need " +
                    std::to_string(n) + " bytes, have " + std::to_string(size_ - cursor_) +
                    ")");
  }
  const std::uint8_t* at = data_ + cursor_;
  cursor_ += n;
  return at;
}

std::uint8_t WireReader::get_u8(const char* field) { return *need(1, field); }

std::uint16_t WireReader::get_u16(const char* field) {
  const std::uint8_t* p = need(2, field);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t WireReader::get_u32(const char* field) {
  const std::uint8_t* p = need(4, field);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::get_u64(const char* field) {
  const std::uint8_t* p = need(8, field);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

float WireReader::get_f32(const char* field) {
  const std::uint32_t bits = get_u32(field);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double WireReader::get_f64(const char* field) {
  const std::uint64_t bits = get_u64(field);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::get_string(const char* field) {
  const std::uint16_t n = get_u16(field);
  const std::uint8_t* p = need(n, field);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void WireReader::expect_end(const char* what) const {
  if (cursor_ != size_) {
    throw WireError(std::string(what) + ": " + std::to_string(size_ - cursor_) +
                    " trailing payload bytes after a complete message");
  }
}

// ---- classify payloads ------------------------------------------------------

std::vector<std::uint8_t> encode_classify_request(const ClassifyRequest& request, bool batch) {
  const Tensor& images = request.images;
  const int want_rank = batch ? 4 : 3;
  if (images.rank() != want_rank) {
    throw WireError(std::string("encode_classify_request: expected rank ") +
                    std::to_string(want_rank) + (batch ? " (NCHW batch)" : " (CHW image)") +
                    ", got shape " + images.shape().to_string());
  }
  WireWriter w;
  w.put_string(request.variant);
  w.put_u32(static_cast<std::uint32_t>(request.max_batch));
  std::int64_t n = 1;
  int axis = 0;
  if (batch) {
    n = images.dim(0);
    w.put_u32(static_cast<std::uint32_t>(n));
    axis = 1;
  }
  for (int d = 0; d < 3; ++d) {
    const std::int64_t dim = images.dim(axis + d);
    if (dim < 1 || dim > 0xFFFF) {
      throw WireError("encode_classify_request: dimension " + std::to_string(dim) +
                      " does not fit the u16 wire field (shape " +
                      images.shape().to_string() + ")");
    }
    w.put_u16(static_cast<std::uint16_t>(dim));
  }
  const std::int64_t numel = images.numel();
  for (std::int64_t i = 0; i < numel; ++i) w.put_f32(images.data()[i]);
  return std::move(w.bytes());
}

ClassifyRequest decode_classify_request(const std::uint8_t* data, std::size_t size,
                                        bool batch) {
  WireReader r(data, size);
  ClassifyRequest request;
  request.variant = r.get_string("variant");
  request.max_batch = static_cast<std::int32_t>(r.get_u32("max_batch"));
  std::int64_t n = 1;
  if (batch) n = static_cast<std::int64_t>(r.get_u32("batch size"));
  const std::int64_t c = r.get_u16("channels");
  const std::int64_t h = r.get_u16("height");
  const std::int64_t w = r.get_u16("width");
  if (n < 1 || c < 1 || h < 1 || w < 1) {
    throw WireError("decode_classify_request: non-positive image dimensions (n=" +
                    std::to_string(n) + ", c=" + std::to_string(c) + ", h=" +
                    std::to_string(h) + ", w=" + std::to_string(w) + ")");
  }
  // n is a raw u32 and c/h/w raw u16s: forming n*c*h*w directly can overflow
  // even int64 (and a product that wraps to match the payload size would
  // drive a gigantic Tensor allocation). Bound n against what the payload
  // could possibly hold before multiplying — c*h*w itself is safe, three
  // u16 factors stay far below 2^63.
  const std::int64_t per_image = c * h * w;
  const std::size_t per_image_bytes = static_cast<std::size_t>(per_image) * 4;
  if (static_cast<std::uint64_t>(n) > r.remaining() / per_image_bytes) {
    throw WireError("decode_classify_request: batch of " + std::to_string(n) + " " +
                    std::to_string(c) + "x" + std::to_string(h) + "x" + std::to_string(w) +
                    " images cannot fit the " + std::to_string(r.remaining()) +
                    " payload bytes present");
  }
  const std::int64_t numel = n * per_image;
  const std::size_t expect = static_cast<std::size_t>(numel) * 4;
  if (r.remaining() != expect) {
    throw WireError("decode_classify_request: image payload holds " +
                    std::to_string(r.remaining()) + " bytes, shape requires " +
                    std::to_string(expect));
  }
  request.images = Tensor(batch ? Shape::nchw(n, c, h, w) : Shape{c, h, w});
  for (std::int64_t i = 0; i < numel; ++i) {
    request.images.data()[i] = r.get_f32("pixels");
  }
  r.expect_end("decode_classify_request");
  return request;
}

std::vector<std::uint8_t> encode_predictions(const std::vector<serve::Prediction>& predictions,
                                             bool batch) {
  if (!batch && predictions.size() != 1) {
    throw WireError("encode_predictions: a single-classify response carries exactly one "
                    "prediction, got " + std::to_string(predictions.size()));
  }
  WireWriter w;
  if (batch) w.put_u32(static_cast<std::uint32_t>(predictions.size()));
  for (const auto& p : predictions) {
    w.put_u32(static_cast<std::uint32_t>(p.label));
    w.put_f32(p.confidence);
    w.put_u32(static_cast<std::uint32_t>(p.logits.size()));
    for (const float v : p.logits) w.put_f32(v);
  }
  return std::move(w.bytes());
}

std::vector<serve::Prediction> decode_predictions(const std::uint8_t* data, std::size_t size,
                                                  bool batch) {
  WireReader r(data, size);
  std::size_t n = 1;
  if (batch) {
    n = r.get_u32("prediction count");
    // label + confidence + logit count = 12 bytes minimum per prediction;
    // reject a hostile count before reserving anything against it.
    if (n > r.remaining() / 12) {
      throw WireError("decode_predictions: prediction count " + std::to_string(n) +
                      " exceeds what " + std::to_string(r.remaining()) +
                      " payload bytes can hold");
    }
  }
  std::vector<serve::Prediction> predictions;
  predictions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::Prediction p;
    p.label = static_cast<int>(r.get_u32("label"));
    p.confidence = r.get_f32("confidence");
    const std::uint32_t k = r.get_u32("logit count");
    if (k > r.remaining() / 4) {
      throw WireError("decode_predictions: logit count " + std::to_string(k) +
                      " exceeds what " + std::to_string(r.remaining()) +
                      " payload bytes can hold");
    }
    p.logits.reserve(k);
    for (std::uint32_t j = 0; j < k; ++j) p.logits.push_back(r.get_f32("logits"));
    predictions.push_back(std::move(p));
  }
  r.expect_end("decode_predictions");
  return predictions;
}

// ---- error payloads ---------------------------------------------------------

std::vector<std::uint8_t> encode_error(const ErrorFrame& error) {
  WireWriter w;
  w.put_u16(static_cast<std::uint16_t>(error.code));
  // Error text may exceed the u16 string prefix in pathological cases; clamp.
  std::string message = error.message;
  if (message.size() > 0xFFFF) message.resize(0xFFFF);
  w.put_string(message);
  return std::move(w.bytes());
}

ErrorFrame decode_error(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  ErrorFrame error;
  const std::uint16_t code = r.get_u16("error code");
  switch (static_cast<ErrorCode>(code)) {
    case ErrorCode::kInvalidRequest:
    case ErrorCode::kOverload:
    case ErrorCode::kShuttingDown:
    case ErrorCode::kInternal:
      error.code = static_cast<ErrorCode>(code);
      break;
    default:
      throw WireError("decode_error: unknown error code " + std::to_string(code));
  }
  error.message = r.get_string("error message");
  r.expect_end("decode_error");
  return error;
}

void throw_error(const ErrorFrame& error) {
  switch (error.code) {
    case ErrorCode::kOverload: throw serve::OverloadError(error.message);
    case ErrorCode::kInvalidRequest: throw std::invalid_argument(error.message);
    case ErrorCode::kShuttingDown: throw ShuttingDownError(error.message);
    case ErrorCode::kInternal: break;
  }
  throw RemoteError(error.message);
}

// ---- stats payloads ---------------------------------------------------------

std::vector<std::uint8_t> encode_stats(const ServerStats& stats) {
  WireWriter w;
  w.put_i64(stats.accepted);
  w.put_i64(stats.open_connections);
  w.put_i64(stats.frames_in);
  w.put_i64(stats.frames_out);
  w.put_i64(stats.bytes_in);
  w.put_i64(stats.bytes_out);
  w.put_i64(stats.classify);
  w.put_i64(stats.classify_batch);
  w.put_i64(stats.stats);
  w.put_i64(stats.ping);
  w.put_i64(stats.errors_sent);
  w.put_i64(stats.protocol_errors);
  w.put_i64(stats.overloads);
  w.put_i64(stats.shutdown_rejected);
  w.put_u32(static_cast<std::uint32_t>(stats.variants.size()));
  for (const auto& v : stats.variants) {
    w.put_string(v.variant);
    w.put_i64(v.replicas);
    w.put_i64(v.requests);
    w.put_i64(v.images);
    w.put_i64(v.rejected);
    w.put_i64(v.queue_depth);
    w.put_i64(v.queue_peak);
    w.put_i64(v.latency_count);
    w.put_f64(v.latency_mean_us);
    w.put_f64(v.latency_p50_us);
    w.put_f64(v.latency_p99_us);
    w.put_f64(v.latency_p999_us);
  }
  w.put_u32(static_cast<std::uint32_t>(stats.connections.size()));
  for (const auto& c : stats.connections) {
    w.put_u64(c.id);
    w.put_i64(c.frames_in);
    w.put_i64(c.requests);
    w.put_i64(c.responses);
    w.put_i64(c.bytes_in);
    w.put_i64(c.bytes_out);
  }
  return std::move(w.bytes());
}

ServerStats decode_stats(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  ServerStats stats;
  stats.accepted = r.get_i64("accepted");
  stats.open_connections = r.get_i64("open_connections");
  stats.frames_in = r.get_i64("frames_in");
  stats.frames_out = r.get_i64("frames_out");
  stats.bytes_in = r.get_i64("bytes_in");
  stats.bytes_out = r.get_i64("bytes_out");
  stats.classify = r.get_i64("classify");
  stats.classify_batch = r.get_i64("classify_batch");
  stats.stats = r.get_i64("stats");
  stats.ping = r.get_i64("ping");
  stats.errors_sent = r.get_i64("errors_sent");
  stats.protocol_errors = r.get_i64("protocol_errors");
  stats.overloads = r.get_i64("overloads");
  stats.shutdown_rejected = r.get_i64("shutdown_rejected");
  const std::uint32_t variants = r.get_u32("variant count");
  // Name prefix + 7 i64 counters + 4 f64 quantiles = 90 bytes minimum each.
  if (variants > r.remaining() / 90) {
    throw WireError("decode_stats: variant count " + std::to_string(variants) +
                    " exceeds what " + std::to_string(r.remaining()) +
                    " payload bytes can hold");
  }
  stats.variants.reserve(variants);
  for (std::uint32_t i = 0; i < variants; ++i) {
    WireVariantStats v;
    v.variant = r.get_string("variant name");
    v.replicas = r.get_i64("replicas");
    v.requests = r.get_i64("requests");
    v.images = r.get_i64("images");
    v.rejected = r.get_i64("rejected");
    v.queue_depth = r.get_i64("queue_depth");
    v.queue_peak = r.get_i64("queue_peak");
    v.latency_count = r.get_i64("latency_count");
    v.latency_mean_us = r.get_f64("latency_mean_us");
    v.latency_p50_us = r.get_f64("latency_p50_us");
    v.latency_p99_us = r.get_f64("latency_p99_us");
    v.latency_p999_us = r.get_f64("latency_p999_us");
    stats.variants.push_back(std::move(v));
  }
  const std::uint32_t connections = r.get_u32("connection count");
  // Connection id + 5 i64 counters = 48 bytes minimum each.
  if (connections > r.remaining() / 48) {
    throw WireError("decode_stats: connection count " + std::to_string(connections) +
                    " exceeds what " + std::to_string(r.remaining()) +
                    " payload bytes can hold");
  }
  stats.connections.reserve(connections);
  for (std::uint32_t i = 0; i < connections; ++i) {
    WireConnectionStats c;
    c.id = r.get_u64("connection id");
    c.frames_in = r.get_i64("conn frames_in");
    c.requests = r.get_i64("conn requests");
    c.responses = r.get_i64("conn responses");
    c.bytes_in = r.get_i64("conn bytes_in");
    c.bytes_out = r.get_i64("conn bytes_out");
    stats.connections.push_back(c);
  }
  r.expect_end("decode_stats");
  return stats;
}

}  // namespace blurnet::net
