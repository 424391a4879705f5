#ifndef PREQR_SERVING_WIRE_H_
#define PREQR_SERVING_WIRE_H_

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

namespace preqr::serving::wire {

// Length-prefixed binary protocol spoken between EncodeClient and
// EncodeServer over a TCP stream. Everything is little-endian.
//
//   frame   := u32 payload_len, payload
//   request := u8 version, u8 opcode, body
//   reply   := u8 status_code, body          (code 0 = ok, else u32+msg)
//
// Every request leads with the protocol version byte; a mismatch is
// rejected with kInvalidArgument before the opcode is even read, so the
// request layout can evolve (v1 -> v2 added the tenant id) without a stale
// peer silently misparsing fields. Replies carry no version: the server
// always answers in the version the client just spoke.
//
// Request header (kEncode / kEncodeBatch):
//   header := u32+tenant_id, u32+client_id, i32 priority, i64 timeout_us
//
// Request bodies:
//   kEncode      := header, u32+sql
//   kEncodeBatch := header, u32 count, count x (u32+sql)
//   kMetrics     := (empty)
//   kReload      := u32+tenant_id, u32+path
//
// Ok reply bodies:
//   kEncode      := u8 flags (bit0 = cache hit), f64 queue_us,
//                   f64 encode_us, u32 dim, dim x f32
//   kEncodeBatch := u32 count, count x (u8 code, then the kEncode ok body
//                   or u32+msg)  — slots fail independently
//   kMetrics     := u32+text
//   kReload      := (empty)
//
// An empty tenant_id is the default tenant, so v2 clients that never
// mention tenants behave exactly like v1 did. Unknown tenant ids come back
// as kNotFound.
//
// Deadlines cross the wire as a *relative* timeout in microseconds
// (client and server clocks need not agree); the server converts to an
// absolute steady-clock deadline the moment the frame is parsed.
// timeout_us < 0 means no deadline.

// v1 had no version byte and no tenant id; v2 frames are not parseable as
// v1 (and vice versa), which is exactly why the version byte leads.
inline constexpr uint8_t kProtocolVersion = 2;

enum Opcode : uint8_t {
  kEncode = 1,
  kEncodeBatch = 2,
  kMetrics = 3,
  kReload = 4,
};

// Frames above this are rejected with kInvalidArgument before parsing —
// an accidental (or hostile) length prefix must not allocate gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

inline constexpr uint8_t kFlagCacheHit = 1u << 0;

// A connection's initial receive buffer (FrameReader): far above a
// 320-float kEncode reply (1306 bytes) or a typical request.
inline constexpr size_t kRecvBufferBytes = 64u << 10;

// --- Little-endian append/read helpers over std::string buffers ----------

inline void PutU8(std::string* buf, uint8_t v) {
  buf->push_back(static_cast<char>(v));
}
inline void PutU32(std::string* buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
inline void PutU64(std::string* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
inline void PutI64(std::string* buf, int64_t v) {
  PutU64(buf, static_cast<uint64_t>(v));
}
inline void PutF64(std::string* buf, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(buf, bits);
}
inline void PutF32(std::string* buf, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(buf, bits);
}
// n floats in one append on a little-endian host; elsewhere the per-float
// loop, so every host puts the same bytes on the wire.
inline void PutF32s(std::string* buf, const float* v, size_t n) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    buf->append(reinterpret_cast<const char*>(v), n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) PutF32(buf, v[i]);
  }
}
inline void PutString(std::string* buf, const std::string& s) {
  PutU32(buf, static_cast<uint32_t>(s.size()));
  buf->append(s);
}

// Cursor-based reader; every Get* returns false on underrun instead of
// reading past the end, so a truncated frame degrades to a clean
// kInvalidArgument reply.
class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::string& buf) : Reader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }

  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }
  bool GetU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }
  bool GetI64(int64_t* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }
  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool GetF32(float* v) {
    uint32_t bits;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  // n floats in one memcpy on a little-endian host. Writes nothing on
  // underrun.
  bool GetF32s(float* v, size_t n) {
    if (remaining() / sizeof(float) < n) return false;
    if (n == 0) return true;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v, data_ + pos_, n * sizeof(float));
      pos_ += n * sizeof(float);
    } else {
      for (size_t i = 0; i < n; ++i) GetF32(&v[i]);
    }
    return true;
  }
  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (remaining() < len) return false;
    s->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- Frame I/O, shared by EncodeClient and EncodeServer -----------------

// Sends u32 payload_len then the payload with one sendmsg of two iovecs,
// copying neither; a short send resumes at the first unsent byte. False
// once the peer is gone.
inline bool SendFrame(int fd, std::string_view payload) {
  char header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((payload.size() >> (8 * i)) & 0xff);
  }
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return false;
    for (auto sent = static_cast<size_t>(r); msg.msg_iovlen > 0;) {
      iovec& front = *msg.msg_iov;
      const size_t n = std::min(sent, front.iov_len);
      front.iov_base = static_cast<char*>(front.iov_base) + n;
      front.iov_len -= n;
      sent -= n;
      if (front.iov_len > 0) break;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
  }
  return true;
}

// One connection's receive side. Every recv asks for as much as the buffer
// holds, so a frame that arrived whole costs one recv, and bytes past it
// stay for the next call (pipelined frames). The buffer grows only to fit
// a larger frame, never past one maximal frame, and never shrinks.
class FrameReader {
 public:
  enum class Result {
    kFrame,      // *payload views the frame until the next Next()
    kClosed,     // EOF or error at a frame boundary: a clean close
    kTruncated,  // EOF or error inside a frame
    kBadLength,  // length 0 or above kMaxFrameBytes: the stream cannot resync
  };

  // The buffer is left uninitialized: only pages that received bytes
  // count toward the process's resident memory.
  explicit FrameReader(size_t capacity)
      : buf_(std::make_unique_for_overwrite<char[]>(capacity)),
        size_(capacity) {}

  Result Next(int fd, std::string_view* payload) {
    if (begin_ == end_) begin_ = end_ = 0;  // drained: refill from the front
    const Result r = Fill(fd, 4);
    if (r != Result::kFrame) return r;
    uint32_t len = 0;
    Reader(buf_.get() + begin_, 4).GetU32(&len);
    if (len == 0 || len > kMaxFrameBytes) return Result::kBadLength;
    if (Fill(fd, 4 + size_t{len}) != Result::kFrame) return Result::kTruncated;
    *payload = std::string_view(buf_.get() + begin_ + 4, len);
    begin_ += 4 + size_t{len};
    return Result::kFrame;
  }

  // Drops buffered bytes (their stream is gone).
  void Reset() { begin_ = end_ = 0; }

 private:
  // Buffers at least `need` unread bytes, moving them to the front (of a
  // larger buffer if need be) when the rest would not fit behind them.
  Result Fill(int fd, size_t need) {
    if (size_ - begin_ < need) {
      const size_t unread = end_ - begin_;
      if (size_ < need) {
        auto grown = std::make_unique_for_overwrite<char[]>(need);
        std::memcpy(grown.get(), buf_.get() + begin_, unread);
        buf_ = std::move(grown);
        size_ = need;
      } else {
        std::memmove(buf_.get(), buf_.get() + begin_, unread);
      }
      begin_ = 0;
      end_ = unread;
    }
    while (end_ - begin_ < need) {
      const ssize_t r = ::recv(fd, buf_.get() + end_, size_ - end_, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return end_ == begin_ ? Result::kClosed : Result::kTruncated;
      end_ += static_cast<size_t>(r);
    }
    return Result::kFrame;
  }

  std::unique_ptr<char[]> buf_;
  size_t size_;
  size_t begin_ = 0;  // first unread byte
  size_t end_ = 0;    // one past the last received byte
};

}  // namespace preqr::serving::wire

#endif  // PREQR_SERVING_WIRE_H_
