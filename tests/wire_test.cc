// The wire codec and the shared frame I/O (serving/wire.h) without a
// server: PutF32s/GetF32s against the per-float loop they replace, bit
// for bit on special values, and SendFrame/FrameReader over a socketpair —
// partial arrivals, pipelined frames, buffer growth, short sends, and the
// EOF and bad-length outcomes.
#include "serving/wire.h"

#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace preqr::serving::wire {
namespace {

float FromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

// NaN payloads of both signs (quiet and signalling), ±0, ±inf, denormals,
// the extremes, and random bit patterns.
std::vector<float> SpecialFloats() {
  std::vector<float> v;
  for (uint32_t bits :
       {0x7fc00000u, 0x7fc00001u, 0xffc12345u, 0x7f800001u, 0xff800abcu,
        0x7fbfffffu, 0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
        0x00000001u, 0x807fffffu, 0x00400000u, 0x7f7fffffu, 0xff7fffffu,
        0x00800000u, 0x3f800000u, 0xbf800000u}) {
    v.push_back(FromBits(bits));
  }
  Rng rng(20);
  for (int i = 0; i < 300; ++i) {
    v.push_back(FromBits(static_cast<uint32_t>(rng.NextUint64(1ull << 32))));
  }
  return v;
}

TEST(WireCodecTest, F32sBytesMatchPerFloatLoop) {
  const std::vector<float> v = SpecialFloats();
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{18}, v.size()}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // After a leading byte, so the floats land unaligned in the buffer.
    std::string loop, bulk;
    PutU8(&loop, 0xab);
    PutU8(&bulk, 0xab);
    for (size_t i = 0; i < n; ++i) PutF32(&loop, v[i]);
    PutF32s(&bulk, v.data(), n);
    ASSERT_EQ(bulk, loop);

    Reader loop_reader(loop);
    Reader bulk_reader(bulk);
    uint8_t lead = 0;
    ASSERT_TRUE(loop_reader.GetU8(&lead));
    ASSERT_TRUE(bulk_reader.GetU8(&lead));
    std::vector<float> by_loop(n), by_bulk(n);
    for (size_t i = 0; i < n; ++i) ASSERT_TRUE(loop_reader.GetF32(&by_loop[i]));
    ASSERT_TRUE(bulk_reader.GetF32s(by_bulk.data(), n));
    EXPECT_EQ(bulk_reader.remaining(), 0u);
    if (n > 0) {
      EXPECT_EQ(std::memcmp(by_bulk.data(), by_loop.data(), n * 4), 0);
      EXPECT_EQ(std::memcmp(by_bulk.data(), v.data(), n * 4), 0);
    }
  }
  // n = 0 with no storage at all.
  std::string empty;
  PutF32s(&empty, nullptr, 0);
  EXPECT_TRUE(empty.empty());
  Reader r(empty);
  EXPECT_TRUE(r.GetF32s(nullptr, 0));
}

TEST(WireCodecTest, F32sUnderrunReturnsFalseAndWritesNothing) {
  std::string buf;
  PutF32(&buf, 1.5f);
  PutU8(&buf, 7);
  PutU8(&buf, 8);
  PutU8(&buf, 9);  // 7 bytes: one float and three spare
  const float sentinel = FromBits(0x7fc0dead);
  std::vector<float> out(4, sentinel);
  Reader r(buf);
  EXPECT_FALSE(r.GetF32s(out.data(), 2));
  EXPECT_FALSE(r.GetF32s(out.data(), std::numeric_limits<size_t>::max() / 2));
  for (float f : out) {
    EXPECT_EQ(std::memcmp(&f, &sentinel, sizeof(f)), 0) << "wrote on underrun";
  }
  // The cursor did not move: the float is still there to read.
  EXPECT_EQ(r.remaining(), buf.size());
  ASSERT_TRUE(r.GetF32s(out.data(), 1));
  EXPECT_EQ(out[0], 1.5f);
  EXPECT_EQ(r.remaining(), 3u);
}

// --- Frame I/O -------------------------------------------------------------

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
    // A reader that waits for bytes that never come fails the test
    // instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void SendRaw(std::string_view bytes) const {
    ASSERT_EQ(::send(a, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  void CloseWriter() {
    ::close(a);
    a = -1;
  }
};

// A thread writing into a SocketPair that is always joined. If the test
// returns early (a failed ASSERT), the destructor first hangs up the
// reading end, so a writer blocked on a full socket fails at once instead
// of waiting, and the test reports its failure instead of destroying a
// joinable std::thread, which would abort the whole binary.
class Writer {
 public:
  Writer(const SocketPair& sp, std::function<void()> body)
      : reader_fd_(sp.b), thread_(std::move(body)) {}
  ~Writer() {
    if (!thread_.joinable()) return;
    ::shutdown(reader_fd_, SHUT_RDWR);
    thread_.join();
  }
  void Join() { thread_.join(); }
  pthread_t handle() { return thread_.native_handle(); }

 private:
  int reader_fd_;
  std::thread thread_;
};

std::string Pattern(size_t n, uint32_t seed) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * 131 + seed * 7) & 0xff);
  }
  return s;
}

std::string Framed(std::string_view payload) {
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

using Result = FrameReader::Result;

TEST(FrameIoTest, SendFrameWritesLengthThenPayload) {
  SocketPair sp;
  const std::string payload = Pattern(300, 1);
  ASSERT_TRUE(SendFrame(sp.a, payload));
  sp.CloseWriter();
  std::string got;
  char chunk[512];
  for (ssize_t r; (r = ::recv(sp.b, chunk, sizeof(chunk), 0)) > 0;) {
    got.append(chunk, static_cast<size_t>(r));
  }
  EXPECT_EQ(got, Framed(payload));
}

TEST(FrameIoTest, PipelinedFramesInOneWriteComeOutInOrder) {
  SocketPair sp;
  const std::string p1 = Pattern(40, 1), p2 = Pattern(1, 2),
                    p3 = Pattern(900, 3);
  sp.SendRaw(Framed(p1) + Framed(p2) + Framed(p3));
  FrameReader reader(kRecvBufferBytes);
  std::string_view got;
  for (const std::string* want : {&p1, &p2, &p3}) {
    ASSERT_EQ(reader.Next(sp.b, &got), Result::kFrame);
    EXPECT_EQ(got, *want);
  }
  sp.CloseWriter();
  EXPECT_EQ(reader.Next(sp.b, &got), Result::kClosed);
}

TEST(FrameIoTest, FramesLargerThanTheBufferGrowIt) {
  SocketPair sp;
  // A 16-byte buffer: the second frame straddles it, the third needs it
  // grown, and the small fourth frame still follows in order.
  FrameReader reader(16);
  const std::vector<std::string> payloads = {Pattern(5, 1), Pattern(9, 2),
                                             Pattern(5000, 3), Pattern(2, 4)};
  std::string stream;
  for (const auto& p : payloads) stream += Framed(p);
  Writer writer(sp, [&] { sp.SendRaw(stream); });
  std::string_view got;
  for (const auto& want : payloads) {
    ASSERT_EQ(reader.Next(sp.b, &got), Result::kFrame);
    EXPECT_EQ(got, want);
  }
  writer.Join();
}

TEST(FrameIoTest, OneBytePerSendIsReassembled) {
  SocketPair sp;
  const std::string p1 = Pattern(37, 5), p2 = Pattern(3, 6);
  const std::string stream = Framed(p1) + Framed(p2);
  Writer writer(sp, [&] {
    for (char c : stream) {
      sp.SendRaw(std::string_view(&c, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  FrameReader reader(kRecvBufferBytes);
  std::string_view got;
  ASSERT_EQ(reader.Next(sp.b, &got), Result::kFrame);
  EXPECT_EQ(got, p1);
  ASSERT_EQ(reader.Next(sp.b, &got), Result::kFrame);
  EXPECT_EQ(got, p2);
  writer.Join();
}

TEST(FrameIoTest, ShortSendsOfAMaximalFrameAreFinished) {
  // A blocking sendmsg that a signal interrupts after some of its bytes
  // went out returns short; one that a signal interrupts before any went
  // out fails with EINTR. Both are resumed by SendFrame, so the frames
  // arrive whole however the signals fall; no timeout is involved. Small
  // kernel buffers and a reader that starts only once the writer is
  // blocked make the first signal land mid-send.
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  SocketPair sp;
  const int small = 4096;
  ::setsockopt(sp.a, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  ::setsockopt(sp.b, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  const std::string big = Pattern(kMaxFrameBytes, 7);
  const std::string tail = Pattern(11, 8);
  std::atomic<bool> done{false};
  bool sent = false;
  Writer writer(sp, [&] {
    sent = SendFrame(sp.a, big) && SendFrame(sp.a, tail);
    done = true;
  });
  // Wait for the writer to fill the socket, then interrupt it.
  for (int queued = 0, i = 0; queued == 0 && i < 10000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ::ioctl(sp.b, FIONREAD, &queued);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::pthread_kill(writer.handle(), SIGUSR1);
  // Keep interrupting while the reader drains the stream.
  std::thread interrupter([&] {
    while (!done) {
      ::pthread_kill(writer.handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  FrameReader reader(kRecvBufferBytes);
  std::string_view got;
  const Result first = reader.Next(sp.b, &got);
  const bool big_ok = first == Result::kFrame && got == big;
  const Result second = reader.Next(sp.b, &got);
  const bool tail_ok = second == Result::kFrame && got == tail;
  if (!tail_ok) ::shutdown(sp.b, SHUT_RDWR);
  // The interrupter stops once the writer is done, before the writer's
  // thread id is released by the join.
  interrupter.join();
  writer.Join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_EQ(first, Result::kFrame);
  EXPECT_TRUE(big_ok);
  EXPECT_EQ(second, Result::kFrame);
  EXPECT_TRUE(tail_ok);
  EXPECT_TRUE(sent);
}

TEST(FrameIoTest, EofOutcomes) {
  std::string_view got;
  {
    // EOF at a frame boundary, after a frame and before any: clean close.
    SocketPair sp;
    sp.SendRaw(Framed("ok"));
    sp.CloseWriter();
    FrameReader reader(kRecvBufferBytes);
    ASSERT_EQ(reader.Next(sp.b, &got), Result::kFrame);
    EXPECT_EQ(got, "ok");
    EXPECT_EQ(reader.Next(sp.b, &got), Result::kClosed);
  }
  {
    // EOF inside the length prefix.
    SocketPair sp;
    sp.SendRaw(std::string("\x05\x00", 2));
    sp.CloseWriter();
    FrameReader reader(kRecvBufferBytes);
    EXPECT_EQ(reader.Next(sp.b, &got), Result::kTruncated);
  }
  {
    // EOF inside the payload.
    SocketPair sp;
    sp.SendRaw(Framed("abcdef").substr(0, 7));
    sp.CloseWriter();
    FrameReader reader(kRecvBufferBytes);
    EXPECT_EQ(reader.Next(sp.b, &got), Result::kTruncated);
  }
}

TEST(FrameIoTest, OutOfBoundsLengthsAreBadLength) {
  for (uint32_t len : {0u, kMaxFrameBytes + 1, 0xffffffffu}) {
    SocketPair sp;
    std::string header;
    PutU32(&header, len);
    sp.SendRaw(header);
    FrameReader reader(kRecvBufferBytes);
    std::string_view got;
    EXPECT_EQ(reader.Next(sp.b, &got), Result::kBadLength) << len;
  }
}

}  // namespace
}  // namespace preqr::serving::wire
