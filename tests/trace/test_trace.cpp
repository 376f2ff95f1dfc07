#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "analytic/trace_profile.hpp"
#include "core/driver.hpp"
#include "trace/trace_io.hpp"

namespace sctm::trace {
namespace {

Trace capture_small(const char* app_name = "fft") {
  fullsys::AppParams app;
  app.name = app_name;
  app.cores = 16;
  app.lines_per_core = 8;
  app.iterations = 1;
  fullsys::FullSysParams sys;
  sys.l1_sets = 8;
  sys.l1_ways = 2;
  sys.l2_sets = 32;
  sys.l2_ways = 4;
  core::NetSpec net;
  net.kind = core::NetKind::kEnoc;
  return core::run_execution(app, net, sys).trace;
}

TEST(TraceCaptureTest, ProducesConsistentTrace) {
  const Trace t = capture_small();
  EXPECT_GT(t.records.size(), 100u);
  EXPECT_EQ(t.nodes, 16);
  EXPECT_EQ(t.app, "fft");
  EXPECT_GT(t.capture_runtime, 0u);
  for (const auto& r : t.records) {
    EXPECT_NE(r.arrive_time, kNoCycle);
    EXPECT_GE(r.arrive_time, r.inject_time);
  }
}

TEST(TraceCaptureTest, DependenciesValidateAsDag) {
  const Trace t = capture_small();
  const core::ReplayTrace rt(t);  // throws on any inconsistency
  const auto p = analytic::profile_trace(rt);
  EXPECT_EQ(rt.size(), t.records.size());
  EXPECT_GT(p.mean_fanin, 0.5);
  EXPECT_GT(p.critical_depth, 4u);
  EXPECT_GE(p.roots, 1u);
  // Most records are causally chained (this is the property SCTM exploits).
  EXPECT_LT(p.roots, t.records.size() / 4);
}

TEST(TraceIo, BinaryRoundTripIsExact) {
  const Trace t = capture_small();
  std::stringstream buf;
  write_binary(t, buf);
  const Trace back = read_binary(buf);
  EXPECT_EQ(t, back);
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = capture_small("jacobi");
  const std::string path = "/tmp/sctm_trace_test.bin";
  write_binary_file(t, path);
  const Trace back = read_binary_file(path);
  EXPECT_EQ(t, back);
  std::remove(path.c_str());
}

TEST(TraceIo, GoldenByteLayoutIsStable) {
  // The exact on-disk bytes for a tiny trace, pinned by hand from the header
  // comment in trace_io.hpp. Guards the buffered serializer (and any future
  // rewrite) against silent format drift: traces written by old builds must
  // stay readable bit-for-bit.
  Trace t;
  t.app = "ab";
  t.capture_network = "m";
  t.nodes = 2;
  t.capture_runtime = 100;
  t.seed = 7;
  TraceRecord r;
  r.id = 7;
  r.src = 0;
  r.dst = 1;
  r.size_bytes = 64;
  r.cls = noc::MsgClass::kData;  // = 2
  r.proto = 9;
  r.inject_time = 10;
  r.arrive_time = 20;
  r.deps.push_back({3, 5});
  t.records.push_back(r);

  static const unsigned char kExpected[] = {
      // magic
      'S', 'C', 'T', 'M', 'T', 'R', 'C', '1',
      // app: u32 len + bytes
      2, 0, 0, 0, 'a', 'b',
      // capture_network
      1, 0, 0, 0, 'm',
      // i32 nodes, u64 runtime, u64 seed, u64 record count
      2, 0, 0, 0,
      100, 0, 0, 0, 0, 0, 0, 0,
      7, 0, 0, 0, 0, 0, 0, 0,
      1, 0, 0, 0, 0, 0, 0, 0,
      // record: u64 id, i32 src, i32 dst, u32 size, u8 cls, u8 proto
      7, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0,
      1, 0, 0, 0,
      64, 0, 0, 0,
      2,
      9,
      // u64 inject, u64 arrive, u16 dep count, dep (u64 parent, u64 slack)
      10, 0, 0, 0, 0, 0, 0, 0,
      20, 0, 0, 0, 0, 0, 0, 0,
      1, 0,
      3, 0, 0, 0, 0, 0, 0, 0,
      5, 0, 0, 0, 0, 0, 0, 0,
  };

  std::stringstream buf;
  write_binary(t, buf);
  const std::string bytes = buf.str();
  ASSERT_EQ(bytes.size(), sizeof kExpected);
  for (std::size_t i = 0; i < sizeof kExpected; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(bytes[i]), kExpected[i])
        << "byte " << i << " diverged from the golden layout";
  }

  // And the pinned bytes parse back to the identical trace.
  std::stringstream in(std::string(
      reinterpret_cast<const char*>(kExpected), sizeof kExpected));
  EXPECT_EQ(read_binary(in), t);
}

TEST(TraceIo, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTATRACE-------";
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(TraceIo, TruncatedInputRejected) {
  const Trace t = capture_small();
  std::stringstream buf;
  write_binary(t, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_binary(cut), std::runtime_error);
}

// Serialized bytes of the golden tiny trace (see GoldenByteLayoutIsStable),
// for corruption tests that patch specific fields.
std::string golden_v1_bytes() {
  Trace t;
  t.app = "ab";
  t.capture_network = "m";
  t.nodes = 2;
  t.capture_runtime = 100;
  t.seed = 7;
  TraceRecord r;
  r.id = 7;
  r.src = 0;
  r.dst = 1;
  r.size_bytes = 64;
  r.cls = noc::MsgClass::kData;
  r.proto = 9;
  r.inject_time = 10;
  r.arrive_time = 20;
  r.deps.push_back({3, 5});
  t.records.push_back(r);
  std::stringstream buf;
  write_binary(t, buf);
  return buf.str();
}

TEST(TraceIoStrictness, EveryPossibleTruncationRejected) {
  // A v1 file cut after ANY byte — i.e. truncation at every field boundary
  // and inside every field — must throw, never yield a partial Trace.
  const std::string full = golden_v1_bytes();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    std::stringstream cut(full.substr(0, keep));
    EXPECT_THROW(read_binary(cut), std::runtime_error)
        << "accepted a " << keep << "-byte prefix of a "
        << full.size() << "-byte file";
  }
}

TEST(TraceIoStrictness, TrailingGarbageRejected) {
  std::stringstream buf(golden_v1_bytes() + std::string("\x01", 1));
  EXPECT_THROW(read_binary(buf), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdRecordCountRejectedBeforeAllocating) {
  // Patch the u64 record count (offset 39: magic 8 + app 6 + net 5 + nodes 4
  // + runtime 8 + seed 8) to a value no remaining bytes could ever hold.
  std::string bytes = golden_v1_bytes();
  for (int i = 0; i < 8; ++i) bytes[39 + i] = static_cast<char>(0xFF);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdStringLengthRejected) {
  std::string bytes = golden_v1_bytes();
  for (int i = 0; i < 4; ++i) bytes[8 + i] = static_cast<char>(0xFF);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, InvalidMessageClassRejected) {
  // The record's cls byte sits at offset 67 (47-byte header + id/src/dst/
  // size = 20 bytes into the record).
  std::string bytes = golden_v1_bytes();
  bytes[67] = 7;  // >= kMsgClassCount
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, AbsurdDependencyCountRejected) {
  // u16 dep count at offset 85 (record header 22 + inject 8 + arrive 8).
  std::string bytes = golden_v1_bytes();
  bytes[85] = static_cast<char>(0xFF);
  bytes[86] = static_cast<char>(0xFF);
  std::stringstream in(bytes);
  EXPECT_THROW(read_binary(in), std::runtime_error);
}

TEST(TraceIoStrictness, ErrorsNameTheByteOffset) {
  const std::string full = golden_v1_bytes();
  std::stringstream cut(full.substr(0, full.size() - 3));
  try {
    read_binary(cut);
    FAIL() << "truncated input accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
        << "error message should carry the byte offset: " << e.what();
  }
}

TEST(TraceIo, TextDumpMentionsEveryRecord) {
  Trace t;
  t.app = "demo";
  t.nodes = 2;
  TraceRecord r;
  r.id = 7;
  r.src = 0;
  r.dst = 1;
  r.size_bytes = 64;
  r.inject_time = 10;
  r.arrive_time = 20;
  t.records.push_back(r);
  const auto text = to_text(t);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("0->1"), std::string::npos);
}

TEST(TraceIo, TextDumpPrintsNoCycleSymbolically) {
  // An unset timestamp must never leak as the raw u64 sentinel.
  Trace t;
  t.app = "demo";
  t.nodes = 2;
  TraceRecord r;
  r.id = 1;
  r.src = 0;
  r.dst = 1;
  r.inject_time = 10;
  r.arrive_time = kNoCycle;  // in-flight / never delivered
  t.records.push_back(r);
  const auto text = to_text(t);
  EXPECT_NE(text.find("t=10..none"), std::string::npos) << text;
  EXPECT_EQ(text.find(std::to_string(kNoCycle)), std::string::npos) << text;
}

}  // namespace
}  // namespace sctm::trace
