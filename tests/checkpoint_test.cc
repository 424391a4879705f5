// PRC1 checkpoint format + hardened PRM1 module serialization.
//
//  * CRC32 known-answer and corruption detection.
//  * Writer/Reader section round trip; atomic temp+rename publication.
//  * A corrupted-file corpus (bad magic, bad version, CRC flip, oversize
//    name, rank/dim overflow, duplicate parameters, trailing garbage, and
//    truncation at every byte offset) must fail with a Status — never
//    crash, never allocate absurdly, and never mutate the target module.
//  * A save that dies mid-write must not shadow the last good file.
#include "nn/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <sys/stat.h>

#include "nn/module.h"
#include "nn/serialize.h"
#include "test_temp_dir.h"

namespace preqr::nn {
namespace {

using test::TempPath;

std::string ReadAll(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes).ok());
  return bytes;
}

// Bitwise snapshot of every parameter of a module.
std::vector<std::vector<float>> Snapshot(const Module& m) {
  std::vector<std::vector<float>> out;
  for (const auto& [name, t] : m.NamedParameters()) out.push_back(t.vec());
  return out;
}

bool SameBits(const std::vector<std::vector<float>>& a, const Module& m) {
  auto b = Snapshot(m);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    a[i].size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

TEST(Crc32Test, KnownAnswer) {
  // The canonical IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, Chains) {
  const std::string all = "hello, checkpoint";
  const uint32_t whole = Crc32(all.data(), all.size());
  const uint32_t part = Crc32(all.data() + 5, all.size() - 5,
                              Crc32(all.data(), 5));
  EXPECT_EQ(whole, part);
}

TEST(CheckpointRoundTrip, SectionsSurvive) {
  CheckpointWriter writer;
  writer.AddSection("alpha", std::string("\x00\x01\x02", 3));
  writer.AddSection("beta", "");
  writer.AddSection("gamma", std::string(1000, 'g'));
  const std::string path = TempPath("prc1_roundtrip.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());

  CheckpointReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.version(), kCheckpointVersion);
  ASSERT_TRUE(reader.Has("alpha"));
  ASSERT_TRUE(reader.Has("beta"));
  ASSERT_TRUE(reader.Has("gamma"));
  EXPECT_FALSE(reader.Has("delta"));
  EXPECT_EQ(*reader.Section("alpha"), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(reader.Section("beta")->size(), 0u);
  EXPECT_EQ(*reader.Section("gamma"), std::string(1000, 'g'));
  EXPECT_EQ(reader.Section("delta"), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointRoundTrip, DuplicateSectionRejectedAtWrite) {
  CheckpointWriter writer;
  writer.AddSection("twice", "a");
  writer.AddSection("twice", "b");
  EXPECT_FALSE(writer.Serialize().ok());
}

TEST(CheckpointCorruption, TruncationAtEveryByte) {
  CheckpointWriter writer;
  writer.AddSection("model", std::string(64, 'm'));
  writer.AddSection("optim", std::string(32, 'o'));
  auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    CheckpointReader reader;
    EXPECT_FALSE(reader.Parse(full.substr(0, cut)).ok())
        << "truncation at byte " << cut << " was accepted";
  }
  CheckpointReader reader;
  EXPECT_TRUE(reader.Parse(full).ok());
}

TEST(CheckpointCorruption, EveryFlippedByteInHeaderOrBodyIsCaught) {
  CheckpointWriter writer;
  writer.AddSection("model", std::string(48, 'x'));
  auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok());
  // Flipping any payload byte must trip the CRC; flipping header bytes
  // must trip magic/version/count/size/CRC validation.
  for (size_t i = 0; i < bytes.value().size(); ++i) {
    std::string corrupt = bytes.value();
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    CheckpointReader reader;
    EXPECT_FALSE(reader.Parse(std::move(corrupt)).ok())
        << "flipped byte " << i << " was accepted";
  }
}

TEST(CheckpointCorruption, TrailingGarbageRejected) {
  CheckpointWriter writer;
  writer.AddSection("model", "payload");
  auto bytes = writer.Serialize();
  ASSERT_TRUE(bytes.ok());
  CheckpointReader reader;
  EXPECT_FALSE(reader.Parse(bytes.value() + "junk").ok());
}

TEST(CheckpointCorruption, ImplausibleHeaderFieldsRejected) {
  // magic ok, version ok, but section count / payload size are absurd —
  // the reader must reject them from the bounds alone (no huge allocs).
  std::string bytes;
  AppendU32(&bytes, kCheckpointMagic);
  AppendU32(&bytes, kCheckpointVersion);
  AppendU32(&bytes, 0xFFFFFFFFu);             // sections
  bytes.append(8, '\0');                      // payload size = 0
  AppendU32(&bytes, 0);                       // crc of empty
  CheckpointReader reader;
  EXPECT_FALSE(reader.Parse(std::move(bytes)).ok());

  std::string bytes2;
  AppendU32(&bytes2, kCheckpointMagic);
  AppendU32(&bytes2, kCheckpointVersion);
  AppendU32(&bytes2, 1);
  const uint64_t huge = ~0ull;                // payload size = 2^64-1
  bytes2.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  AppendU32(&bytes2, 0);
  CheckpointReader reader2;
  EXPECT_FALSE(reader2.Parse(std::move(bytes2)).ok());
}

TEST(AtomicWrite, ReplacesAndSurvivesStaleTemp) {
  const std::string path = TempPath("atomic_target.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadAll(path), "first");
  // A crash mid-save leaves junk at path+".tmp"; the destination must be
  // untouched, and the next save must replace both cleanly.
  {
    std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn-half-written-checkpoint", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadAll(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  EXPECT_EQ(ReadAll(path), "second");
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailedWriteKeepsExistingFile) {
  const std::string path = TempPath("atomic_keep.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "good").ok());
  // Make the temp path unopenable by occupying it with a directory: the
  // write must fail with a Status and the good file must still be there.
  ASSERT_EQ(mkdir((path + ".tmp").c_str(), 0700), 0);
  EXPECT_FALSE(AtomicWriteFile(path, "evil").ok());
  EXPECT_EQ(ReadAll(path), "good");
  rmdir((path + ".tmp").c_str());
  std::remove(path.c_str());
}

TEST(AtomicWrite, UnwritableDirectoryFails) {
  EXPECT_FALSE(
      AtomicWriteFile("/nonexistent-dir-zzz/file.bin", "bytes").ok());
}

// --- Hardened PRM1 loading -------------------------------------------------

struct Prm1File {
  std::string bytes;
  Prm1File() { AppendU32(&bytes, 0x50524d31); }
  void U32(uint32_t v) { AppendU32(&bytes, v); }
  void Name(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    bytes += s;
  }
  void Floats(size_t n, float v) {
    std::vector<float> data(n, v);
    bytes.append(reinterpret_cast<const char*>(data.data()),
                 n * sizeof(float));
  }
  void WriteTo(const std::string& path) {
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  }
};

TEST(LoadModuleHardening, DuplicateParameterRejected) {
  Rng rng(3);
  Linear lin(2, 3, rng);  // parameters: weight [2,3], bias [3]
  const auto before = Snapshot(lin);
  // Two entries, both named "weight": the count check alone would pass and
  // "bias" would silently keep its init values.
  Prm1File f;
  f.U32(2);
  for (int rep = 0; rep < 2; ++rep) {
    f.Name("weight");
    f.U32(2);  // ndim
    f.U32(2);
    f.U32(3);
    f.Floats(6, 1.5f);
  }
  const std::string path = TempPath("prm1_dup.bin");
  f.WriteTo(path);
  Status s = LoadModule(lin, path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos);
  EXPECT_TRUE(SameBits(before, lin));
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, OversizeNameRejected) {
  Rng rng(4);
  Linear lin(2, 2, rng);
  const auto before = Snapshot(lin);
  Prm1File f;
  f.U32(2);
  // name_len claims ~4 GB; a trusting loader would try to allocate it.
  f.U32(0xFFFFFFF0u);
  const std::string path = TempPath("prm1_bigname.bin");
  f.WriteTo(path);
  EXPECT_FALSE(LoadModule(lin, path).ok());
  EXPECT_TRUE(SameBits(before, lin));
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, DimOverflowRejected) {
  Rng rng(5);
  Linear lin(2, 2, rng);
  const auto before = Snapshot(lin);
  // 4 dims of 2^31 each: n *= dim wraps a 64-bit product to reading zero
  // floats in the unchecked loader. Must fail cleanly instead.
  Prm1File f;
  f.U32(2);
  f.Name("weight");
  f.U32(4);
  for (int d = 0; d < 4; ++d) f.U32(0x80000000u);
  const std::string path = TempPath("prm1_overflow.bin");
  f.WriteTo(path);
  EXPECT_FALSE(LoadModule(lin, path).ok());
  EXPECT_TRUE(SameBits(before, lin));
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, ImplausibleRankRejected) {
  Rng rng(6);
  Linear lin(2, 2, rng);
  Prm1File f;
  f.U32(2);
  f.Name("weight");
  f.U32(1u << 20);  // ndim
  const std::string path = TempPath("prm1_rank.bin");
  f.WriteTo(path);
  EXPECT_FALSE(LoadModule(lin, path).ok());
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, TrailingGarbageRejected) {
  Rng rng(7);
  Linear lin(2, 2, rng);
  const std::string path = TempPath("prm1_trailing.bin");
  ASSERT_TRUE(SaveModule(lin, path).ok());
  std::string bytes = ReadAll(path);
  ASSERT_TRUE(AtomicWriteFile(path, bytes + "extra").ok());
  Status s = LoadModule(lin, path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, TruncationAtEveryByteLeavesModuleUntouched) {
  Rng rng(8);
  Linear good(3, 2, rng);
  const std::string path = TempPath("prm1_trunc.bin");
  ASSERT_TRUE(SaveModule(good, path).ok());
  const std::string full = ReadAll(path);

  Linear target(3, 2, rng);  // different init than `good`
  const auto before = Snapshot(target);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ASSERT_TRUE(AtomicWriteFile(path, full.substr(0, cut)).ok());
    EXPECT_FALSE(LoadModule(target, path).ok())
        << "truncation at byte " << cut << " was accepted";
    // The transactional contract: after ANY failed load the module is
    // bitwise-identical to its pre-call state.
    ASSERT_TRUE(SameBits(before, target)) << "mutated at cut " << cut;
  }
  ASSERT_TRUE(AtomicWriteFile(path, full).ok());
  EXPECT_TRUE(LoadModule(target, path).ok());
  EXPECT_FALSE(SameBits(before, target));  // now it really loaded
  EXPECT_TRUE(SameBits(Snapshot(good), target));
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, ShapeMismatchLeavesEarlierParamsUntouched) {
  Rng rng(9);
  Linear dst(4, 4, rng);
  const auto before = Snapshot(dst);
  // Entry 0 ("weight", [4,4]) is perfectly valid; entry 1 ("bias") claims
  // shape [5] instead of [4]. The unfixed loader had already written the
  // weight tensor by the time the bias check failed.
  Prm1File f;
  f.U32(2);
  f.Name("weight");
  f.U32(2);
  f.U32(4);
  f.U32(4);
  f.Floats(16, 2.25f);
  f.Name("bias");
  f.U32(1);
  f.U32(5);
  f.Floats(5, -1.0f);
  const std::string path = TempPath("prm1_shape.bin");
  f.WriteTo(path);
  Status s = LoadModule(dst, path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("shape mismatch"), std::string::npos);
  EXPECT_TRUE(SameBits(before, dst));
  std::remove(path.c_str());
}

TEST(LoadModuleHardening, BadMagicRejected) {
  Rng rng(10);
  Linear lin(2, 2, rng);
  const std::string path = TempPath("prm1_magic.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "XXXXGARBAGE").ok());
  EXPECT_FALSE(LoadModule(lin, path).ok());
  std::remove(path.c_str());
}

TEST(SaveModule, AtomicOverExistingFile) {
  Rng rng(11);
  Linear a(3, 3, rng);
  Linear b(3, 3, rng);
  const std::string path = TempPath("prm1_atomic.bin");
  ASSERT_TRUE(SaveModule(a, path).ok());
  // A "crashed" previous save left a torn temp file; the good file must
  // still load and the next save must succeed.
  ASSERT_TRUE(AtomicWriteFile(path + ".tmp.keep", "x").ok());
  {
    std::FILE* f = std::fopen((path + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half", f);
    std::fclose(f);
  }
  Linear check(3, 3, rng);
  EXPECT_TRUE(LoadModule(check, path).ok());
  EXPECT_TRUE(SameBits(Snapshot(a), check));
  ASSERT_TRUE(SaveModule(b, path).ok());
  EXPECT_TRUE(LoadModule(check, path).ok());
  EXPECT_TRUE(SameBits(Snapshot(b), check));
  std::remove((path + ".tmp.keep").c_str());
  std::remove(path.c_str());
}

TEST(LoadModule, AcceptsFullCheckpointModelSection) {
  Rng rng(12);
  Linear src(4, 2, rng);
  CheckpointWriter writer;
  writer.AddSection(kSectionModel, EncodeModuleParams(src));
  writer.AddSection(kSectionStep, EncodeU64(123));
  const std::string path = TempPath("prc1_model.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());
  Linear dst(4, 2, rng);
  ASSERT_TRUE(LoadModule(dst, path).ok());
  EXPECT_TRUE(SameBits(Snapshot(src), dst));
  std::remove(path.c_str());
}

TEST(OptimizerStateCodec, RoundTrip) {
  OptimizerState state;
  state.type = "adam";
  state.step = 41;
  state.slots = {{1.0f, 2.0f}, {}, {3.5f}};
  OptimizerState back;
  ASSERT_TRUE(DecodeOptimizerState(EncodeOptimizerState(state), &back).ok());
  EXPECT_EQ(back.type, "adam");
  EXPECT_EQ(back.step, 41);
  ASSERT_EQ(back.slots.size(), 3u);
  EXPECT_EQ(back.slots[0], (std::vector<float>{1.0f, 2.0f}));
  EXPECT_TRUE(back.slots[1].empty());
  EXPECT_EQ(back.slots[2], (std::vector<float>{3.5f}));

  // Truncations fail cleanly.
  const std::string bytes = EncodeOptimizerState(state);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    OptimizerState tmp;
    EXPECT_FALSE(DecodeOptimizerState(bytes.substr(0, cut), &tmp).ok());
  }
}

TEST(RngStateCodec, RoundTripResumesSequence) {
  Rng rng(77);
  for (int i = 0; i < 5; ++i) rng.NextUint64();
  Rng::State mid = rng.state();
  std::vector<uint64_t> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.NextUint64());

  Rng::State decoded;
  ASSERT_TRUE(DecodeRngState(EncodeRngState(mid), &decoded).ok());
  Rng resumed(1);  // different seed; state restore must override it
  resumed.set_state(decoded);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(resumed.NextUint64(), expect[i]);

  Rng::State bad;
  EXPECT_FALSE(DecodeRngState("short", &bad).ok());
}

}  // namespace
}  // namespace preqr::nn
