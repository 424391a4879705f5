#ifndef PREQR_COMMON_STATUS_H_
#define PREQR_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace preqr {

// Canonical error space. The serving wire protocol transmits these as a
// single byte, so values are append-only and must never be renumbered.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,   // malformed request (bad frame, bad argument)
  kNotFound = 2,
  kParseError = 3,        // malformed SQL (lexer/parser rejection)
  kInternal = 4,
  kDeadlineExceeded = 5,  // request deadline passed before/while queued
  kResourceExhausted = 6, // admission control shed the request
  kUnavailable = 7,       // transient: server stopping / connection lost
};

// Stable lowercase name per code ("deadline_exceeded", ...) for metrics
// and log lines; unknown values map to "unknown".
const char* StatusCodeName(StatusCode code);
// Inverse of the wire byte: out-of-range values map to kInternal so a
// corrupt frame can never masquerade as kOk.
StatusCode StatusCodeFromByte(int byte);

// Lightweight error carrier for recoverable conditions (e.g. SQL parse
// failures). Modeled on absl::Status.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// StatusOr<T> holds either a value or an error Status (absl::StatusOr-like).
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : data_(std::move(value)) {}        // NOLINT
  StatusOr(Status status) : data_(std::move(status)) {  // NOLINT
    PREQR_CHECK_MSG(!std::get<Status>(data_).ok(),
                    "StatusOr constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(data_); }
  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(data_);
  }
  const T& value() const& {
    PREQR_CHECK_MSG(ok(), status().message().c_str());
    return std::get<T>(data_);
  }
  T& value() & {
    PREQR_CHECK_MSG(ok(), status().message().c_str());
    return std::get<T>(data_);
  }
  T&& value() && {
    PREQR_CHECK_MSG(ok(), status().message().c_str());
    return std::get<T>(std::move(data_));
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace preqr

#endif  // PREQR_COMMON_STATUS_H_
