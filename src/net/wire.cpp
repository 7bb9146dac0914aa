#include "net/wire.h"

#include <cstring>

#include "common/checksum.h"

namespace mb2::net {

Status WireCodeToStatus(WireCode code, const std::string &message) {
  switch (code) {
    case WireCode::kOk: return Status::Ok();
    case WireCode::kBadRequest: return Status::InvalidArgument(message);
    case WireCode::kNotFound: return Status::NotFound(message);
    case WireCode::kAborted: return Status::Aborted(message);
    case WireCode::kServerBusy: return Status::Aborted("SERVER_BUSY: " + message);
    case WireCode::kDeadlineExceeded:
      return Status::Aborted("DEADLINE_EXCEEDED: " + message);
    case WireCode::kShuttingDown:
      return Status::Aborted("SHUTTING_DOWN: " + message);
    case WireCode::kInternal: return Status::Internal(message);
    case WireCode::kNotPrimary: return Status::Unavailable(message);
  }
  return Status::Internal("unknown wire code: " + message);
}

WireCode StatusToWireCode(const Status &status) {
  switch (status.code()) {
    case ErrorCode::kOk: return WireCode::kOk;
    case ErrorCode::kNotFound: return WireCode::kNotFound;
    case ErrorCode::kAborted: return WireCode::kAborted;
    case ErrorCode::kInvalidArgument:
    case ErrorCode::kAlreadyExists:
    case ErrorCode::kNotSupported: return WireCode::kBadRequest;
    case ErrorCode::kIoError:
    case ErrorCode::kInternal: return WireCode::kInternal;
    case ErrorCode::kUnavailable: return WireCode::kNotPrimary;
  }
  return WireCode::kInternal;
}

std::vector<uint8_t> EncodeFrame(uint16_t opcode, uint64_t request_id,
                                 const std::vector<uint8_t> &payload) {
  ByteWriter w;
  w.Put<uint32_t>(kWireMagic);
  w.Put<uint16_t>(kWireVersion);
  w.Put<uint16_t>(opcode);
  w.Put<uint64_t>(request_id);
  w.Put<uint32_t>(static_cast<uint32_t>(payload.size()));
  w.Put<uint32_t>(Crc32(payload.data(), payload.size()));
  w.PutRaw(payload.data(), payload.size());
  return w.Take();
}

void FrameDecoder::Feed(const void *data, size_t len) {
  // Compact lazily: once everything buffered has been parsed, restart the
  // buffer instead of growing it forever on a long-lived connection.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto *bytes = static_cast<const uint8_t *>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + len);
}

FrameDecoder::Outcome FrameDecoder::Next(Frame *out) {
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return Outcome::kNeedMore;
  const uint8_t *head = buffer_.data() + consumed_;

  uint32_t magic;
  uint16_t version, opcode;
  uint64_t request_id;
  uint32_t payload_len, payload_crc;
  std::memcpy(&magic, head, 4);
  std::memcpy(&version, head + 4, 2);
  std::memcpy(&opcode, head + 6, 2);
  std::memcpy(&request_id, head + 8, 8);
  std::memcpy(&payload_len, head + 16, 4);
  std::memcpy(&payload_crc, head + 20, 4);

  if (magic != kWireMagic) return Outcome::kBadMagic;
  if (version != kWireVersion) return Outcome::kBadVersion;
  // Header fields are trustworthy from here on; expose them even on the
  // error outcomes so the server can address an error response.
  out->opcode = opcode;
  out->request_id = request_id;
  out->payload.clear();
  if (payload_len > max_payload_) return Outcome::kOversized;
  if (avail < kHeaderBytes + payload_len) return Outcome::kNeedMore;

  const uint8_t *body = head + kHeaderBytes;
  consumed_ += kHeaderBytes + payload_len;
  if (Crc32(body, payload_len) != payload_crc) {
    out->payload.clear();
    return Outcome::kBadCrc;
  }
  out->payload.assign(body, body + payload_len);
  return Outcome::kFrame;
}

// --- Codecs -----------------------------------------------------------------

void Serialize(ByteWriter *w, const std::string &text) { w->PutString(text); }

bool Deserialize(ByteReader *r, std::string *text) {
  *text = r->GetString();
  return true;
}

void Serialize(ByteWriter *w, uint32_t millis) { w->Put<uint32_t>(millis); }

bool Deserialize(ByteReader *r, uint32_t *millis) {
  *millis = r->Get<uint32_t>();
  return true;
}

void Serialize(ByteWriter *w, const std::vector<TranslatedOu> &ous) {
  w->Put<uint32_t>(static_cast<uint32_t>(ous.size()));
  for (const TranslatedOu &ou : ous) {
    w->Put<uint8_t>(static_cast<uint8_t>(ou.type));
    w->PutDoubles(ou.features);
  }
}

bool Deserialize(ByteReader *r, std::vector<TranslatedOu> *ous) {
  const uint32_t n = r->Get<uint32_t>();
  // Each OU costs at least 9 bytes (type + empty-vector length); a count
  // beyond that is corrupt — reject before reserving.
  if (!r->ok() || static_cast<int64_t>(n) * 9 > r->RemainingBytes()) {
    return false;
  }
  ous->clear();
  ous->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    TranslatedOu ou;
    const uint8_t type = r->Get<uint8_t>();
    if (type >= static_cast<uint8_t>(OuType::kNumOuTypes)) return false;
    ou.type = static_cast<OuType>(type);
    ou.features = r->GetDoubles();
    if (!r->ok()) return false;
    ous->push_back(std::move(ou));
  }
  return true;
}

void Serialize(ByteWriter *w, const SqlResponseBody &body) {
  w->Put<double>(body.elapsed_us);
  w->Put<uint8_t>(body.aborted ? 1 : 0);
  w->Put<uint64_t>(body.rows.size());
  for (const Tuple &row : body.rows) {
    w->Put<uint16_t>(static_cast<uint16_t>(row.size()));
    for (const Value &v : row) {
      w->Put<uint8_t>(static_cast<uint8_t>(v.type()));
      switch (v.type()) {
        case TypeId::kInteger: w->Put<int64_t>(v.AsInt()); break;
        case TypeId::kDouble: w->Put<double>(v.AsDouble()); break;
        case TypeId::kVarchar: w->PutString(v.AsVarchar()); break;
      }
    }
  }
}

bool Deserialize(ByteReader *r, SqlResponseBody *body) {
  body->elapsed_us = r->Get<double>();
  body->aborted = r->Get<uint8_t>() != 0;
  const uint64_t n_rows = r->Get<uint64_t>();
  if (!r->ok() || static_cast<int64_t>(n_rows) * 2 > r->RemainingBytes()) {
    return false;
  }
  body->rows.clear();
  body->rows.reserve(n_rows);
  for (uint64_t i = 0; i < n_rows; i++) {
    const uint16_t n_cols = r->Get<uint16_t>();
    Tuple row;
    row.reserve(n_cols);
    for (uint16_t c = 0; c < n_cols; c++) {
      const uint8_t type = r->Get<uint8_t>();
      if (!r->ok()) return false;
      switch (static_cast<TypeId>(type)) {
        case TypeId::kInteger: row.push_back(Value::Integer(r->Get<int64_t>())); break;
        case TypeId::kDouble: row.push_back(Value::Double(r->Get<double>())); break;
        case TypeId::kVarchar: row.push_back(Value::Varchar(r->GetString())); break;
        default: return false;
      }
    }
    if (!r->ok()) return false;
    body->rows.push_back(std::move(row));
  }
  return true;
}

void Serialize(ByteWriter *w, const PredictResponseBody &body) {
  w->Put<uint32_t>(body.degraded_ous);
  w->Put<uint64_t>(body.per_ou.size());
  // Labels go over the wire as raw 8-byte doubles, so a remote prediction is
  // bit-identical to the in-process result (an acceptance criterion).
  for (const Labels &labels : body.per_ou) {
    w->PutRaw(labels.data(), labels.size() * sizeof(double));
  }
}

bool Deserialize(ByteReader *r, PredictResponseBody *body) {
  body->degraded_ous = r->Get<uint32_t>();
  const uint64_t n = r->Get<uint64_t>();
  constexpr int64_t kLabelBytes = kNumLabels * sizeof(double);
  if (!r->ok() || static_cast<int64_t>(n) * kLabelBytes != r->RemainingBytes()) {
    return false;
  }
  body->per_ou.resize(n);
  for (Labels &labels : body->per_ou) {
    for (double &label : labels) label = r->Get<double>();
  }
  return true;
}

void Serialize(ByteWriter *w, const ReplSubscribeRequest &req) {
  w->PutString(req.replica_id);
  w->Put<uint64_t>(req.start_offset);
}

bool Deserialize(ByteReader *r, ReplSubscribeRequest *req) {
  req->replica_id = r->GetString();
  req->start_offset = r->Get<uint64_t>();
  return true;
}

void Serialize(ByteWriter *w, const ReplSubscribeResponseBody &body) {
  w->Put<uint64_t>(body.durable_tip);
  w->Put<uint64_t>(body.epoch);
}

bool Deserialize(ByteReader *r, ReplSubscribeResponseBody *body) {
  body->durable_tip = r->Get<uint64_t>();
  body->epoch = r->Get<uint64_t>();
  return true;
}

void Serialize(ByteWriter *w, const ReplFetchRequest &req) {
  w->PutString(req.replica_id);
  w->Put<uint64_t>(req.offset);
  w->Put<uint32_t>(req.max_bytes);
  w->Put<uint64_t>(req.epoch);
}

bool Deserialize(ByteReader *r, ReplFetchRequest *req) {
  req->replica_id = r->GetString();
  req->offset = r->Get<uint64_t>();
  req->max_bytes = r->Get<uint32_t>();
  req->epoch = r->Get<uint64_t>();
  return true;
}

void Serialize(ByteWriter *w, const ReplLogBatchBody &body) {
  w->Put<uint64_t>(body.offset);
  w->Put<uint64_t>(body.durable_tip);
  w->Put<uint64_t>(body.epoch);
  w->Put<uint32_t>(body.batch_crc);
  w->Put<uint32_t>(static_cast<uint32_t>(body.data.size()));
  w->PutRaw(body.data.data(), body.data.size());
}

bool Deserialize(ByteReader *r, ReplLogBatchBody *body) {
  body->offset = r->Get<uint64_t>();
  body->durable_tip = r->Get<uint64_t>();
  body->epoch = r->Get<uint64_t>();
  body->batch_crc = r->Get<uint32_t>();
  const uint32_t len = r->Get<uint32_t>();
  if (!r->ok() || static_cast<int64_t>(len) != r->RemainingBytes()) return false;
  body->data.resize(len);
  r->GetRaw(body->data.data(), len);
  return true;
}

void Serialize(ByteWriter *w, const ReplAckRequest &req) {
  w->PutString(req.replica_id);
  w->Put<uint64_t>(req.applied_offset);
  w->Put<uint64_t>(req.applied_records);
}

bool Deserialize(ByteReader *r, ReplAckRequest *req) {
  req->replica_id = r->GetString();
  req->applied_offset = r->Get<uint64_t>();
  req->applied_records = r->Get<uint64_t>();
  return true;
}

void Serialize(ByteWriter *w, const HealthInfo &info) {
  w->Put<uint8_t>(info.role);
  w->Put<uint64_t>(info.epoch);
  w->Put<uint64_t>(info.durable_tip);
  w->Put<uint64_t>(info.applied_offset);
}

bool Deserialize(ByteReader *r, HealthInfo *info) {
  info->role = r->Get<uint8_t>();
  info->epoch = r->Get<uint64_t>();
  info->durable_tip = r->Get<uint64_t>();
  info->applied_offset = r->Get<uint64_t>();
  return true;
}

void Serialize(ByteWriter *w, const CtrlStatusBody &body) {
  w->Put<uint8_t>(body.attached ? 1 : 0);
  w->Put<uint8_t>(body.running ? 1 : 0);
  w->Put<uint64_t>(body.status.ticks);
  w->Put<uint64_t>(body.status.actions_applied);
  w->Put<uint64_t>(body.status.actions_rolled_back);
  w->Put<uint64_t>(body.status.rollback_failures);
  w->Put<uint64_t>(body.status.ous_retrained);
  w->Put<uint64_t>(body.status.templates_tracked);
  w->Put<uint64_t>(body.status.queries_observed);
  w->Put<int64_t>(body.status.last_action_us);
  w->Put<uint8_t>(body.status.pending_verification ? 1 : 0);
  w->Put<uint32_t>(static_cast<uint32_t>(body.status.decisions.size()));
  for (const ctrl::Decision &d : body.status.decisions) {
    w->Put<int64_t>(d.time_us);
    w->PutString(d.action);
    w->PutString(d.kind);
    w->Put<double>(d.predicted_baseline_us);
    w->Put<double>(d.predicted_benefit_us);
    w->Put<double>(d.observed_before_us);
    w->Put<double>(d.observed_after_us);
  }
  w->Put<uint32_t>(static_cast<uint32_t>(body.knob_changes.size()));
  for (const KnobChange &c : body.knob_changes) {
    w->PutString(c.name);
    w->Put<double>(c.old_value);
    w->Put<double>(c.new_value);
    w->PutString(c.source);
    w->Put<int64_t>(c.time_us);
  }
  w->Put<uint64_t>(body.knob_changes_total);
}

bool Deserialize(ByteReader *r, CtrlStatusBody *body) {
  body->attached = r->Get<uint8_t>() != 0;
  body->running = r->Get<uint8_t>() != 0;
  ctrl::ControllerStatus &status = body->status;
  status.ticks = r->Get<uint64_t>();
  status.actions_applied = r->Get<uint64_t>();
  status.actions_rolled_back = r->Get<uint64_t>();
  status.rollback_failures = r->Get<uint64_t>();
  status.ous_retrained = r->Get<uint64_t>();
  status.templates_tracked = r->Get<uint64_t>();
  status.queries_observed = r->Get<uint64_t>();
  status.last_action_us = r->Get<int64_t>();
  status.pending_verification = r->Get<uint8_t>() != 0;
  const uint32_t num_decisions = r->Get<uint32_t>();
  if (!r->ok() || num_decisions > (1u << 20)) return false;
  status.decisions.clear();
  status.decisions.reserve(num_decisions);
  for (uint32_t i = 0; i < num_decisions && r->ok(); i++) {
    ctrl::Decision d;
    d.time_us = r->Get<int64_t>();
    d.action = r->GetString();
    d.kind = r->GetString();
    d.predicted_baseline_us = r->Get<double>();
    d.predicted_benefit_us = r->Get<double>();
    d.observed_before_us = r->Get<double>();
    d.observed_after_us = r->Get<double>();
    status.decisions.push_back(std::move(d));
  }
  const uint32_t num_changes = r->Get<uint32_t>();
  if (!r->ok() || num_changes > (1u << 20)) return false;
  body->knob_changes.clear();
  body->knob_changes.reserve(num_changes);
  for (uint32_t i = 0; i < num_changes && r->ok(); i++) {
    KnobChange c;
    c.name = r->GetString();
    c.old_value = r->Get<double>();
    c.new_value = r->Get<double>();
    c.source = r->GetString();
    c.time_us = r->Get<int64_t>();
    body->knob_changes.push_back(std::move(c));
  }
  body->knob_changes_total = r->Get<uint64_t>();
  return true;
}

// --- Responses --------------------------------------------------------------

void PutResponseHead(ByteWriter *w, WireCode code, const std::string &message) {
  w->Put<uint16_t>(static_cast<uint16_t>(code));
  w->PutString(message);
}

std::vector<uint8_t> EncodeStatusResponse(WireCode code,
                                          const std::string &message) {
  ByteWriter w;
  PutResponseHead(&w, code, message);
  return w.Take();
}

bool DecodeResponseHead(const std::vector<uint8_t> &payload, WireCode *code,
                        std::string *message, size_t *body_offset) {
  ByteReader r(payload.data(), payload.size());
  const uint16_t raw = r.Get<uint16_t>();
  *message = r.GetString();
  if (!r.ok() || raw > static_cast<uint16_t>(WireCode::kNotPrimary)) {
    return false;
  }
  *code = static_cast<WireCode>(raw);
  *body_offset = payload.size() - static_cast<size_t>(r.RemainingBytes());
  return true;
}

}  // namespace mb2::net
