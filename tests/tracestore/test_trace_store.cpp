#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "core/driver.hpp"
#include "trace/trace_io.hpp"
#include "tracestore/trace_store.hpp"

namespace sctm::tracestore {
namespace {

// ---------------------------------------------------------------------------
// Primitives

TEST(Format, ZigzagKnownValuesAndRoundTrip) {
  EXPECT_EQ(zigzag(0), 0u);
  EXPECT_EQ(zigzag(-1), 1u);
  EXPECT_EQ(zigzag(1), 2u);
  EXPECT_EQ(zigzag(-2), 3u);
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 1 << 20, -(1 << 20),
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const auto v : cases) {
    EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
  }
}

TEST(Format, WrapDeltaRoundTripsAnyU64Pair) {
  const std::uint64_t cases[] = {0, 1, 42, kNoCycle, kNoCycle - 1,
                                 0x8000000000000000ull};
  for (const auto a : cases) {
    for (const auto b : cases) {
      // decode side: prev + delta (wrapping) must reconstruct `a` exactly.
      const std::uint64_t back =
          b + static_cast<std::uint64_t>(unzigzag(zigzag(wrap_delta(a, b))));
      EXPECT_EQ(back, a) << a << " vs " << b;
    }
  }
}

TEST(Format, VarintEncodesMinimally) {
  std::vector<char> buf;
  put_varint(buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  put_varint(buf, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(buf.size(), 10u);
}

TEST(Format, Crc32MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  Crc32 inc;
  inc.update("12345", 5);
  inc.update("6789", 4);
  EXPECT_EQ(inc.value(), 0xCBF43926u);
}

TEST(Format, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64{}.value(), 0xcbf29ce484222325ull);
  Fnv1a64 h;
  h.update("a", 1);
  EXPECT_EQ(h.value(), 0xaf63dc4c8601ec8cull);
}

TEST(Format, HashHexRoundTrip) {
  EXPECT_EQ(hash_hex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  EXPECT_EQ(hash_hex(0x1ull), "0000000000000001");
  std::uint64_t v = 0;
  ASSERT_TRUE(parse_hash_hex("af63dc4c8601ec8c", &v));
  EXPECT_EQ(v, 0xaf63dc4c8601ec8cull);
  EXPECT_FALSE(parse_hash_hex("", &v));
  EXPECT_FALSE(parse_hash_hex("xyz", &v));
  EXPECT_FALSE(parse_hash_hex("0123456789abcdef0", &v));  // 17 digits
}

// ---------------------------------------------------------------------------
// Golden layout

trace::Trace tiny_trace() {
  trace::Trace t;
  t.app = "ab";
  t.capture_network = "m";
  t.nodes = 2;
  t.capture_runtime = 100;
  t.seed = 7;
  trace::TraceRecord r;
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
  return t;
}

TEST(TraceStoreV2, GoldenByteLayoutIsStable) {
  // The exact container bytes for the same tiny trace the v1 golden test
  // pins, hand-checked against the layout comment in format.hpp. Guards the
  // writer (and any rewrite) against silent format drift: v2 files written
  // by old builds must stay readable bit-for-bit.
  static const unsigned char kExpected[] = {
      // magic, u32 flags, u32 chunk_target (4096)
      0x53, 0x43, 0x54, 0x4d, 0x54, 0x52, 0x43, 0x32, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x10, 0x00, 0x00,
      // app "ab", net "m", i32 nodes, u64 runtime, u64 seed
      0x02, 0x00, 0x00, 0x00, 0x61, 0x62, 0x01, 0x00, 0x00, 0x00, 0x6d, 0x02,
      0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // u32 header_crc
      0x2a, 0xb6, 0xe1, 0xc7,
      // chunk 0 header: payload crc, payload_len=11, record_count=1,
      // first_record=0, min_cycle=10, max_cycle=20
      0x5a, 0xd5, 0x60, 0x7d, 0x0b, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // payload: vz(7-0)=14, vz(src 0), vz(dst 1)=2, v(64), cls 2, proto 9,
      // vz(inject 10)=20, vz(arrive-inject 10)=20, v(deps 1),
      // vz(id-parent 4)=8, v(slack 5)
      0x0e, 0x00, 0x02, 0x40, 0x02, 0x09, 0x14, 0x14, 0x01, 0x08, 0x05,
      // index: u32 index_crc, u32 index_len=40, then one 40-byte entry
      // (file_offset=0x33, payload_len, record_count, first, min, max)
      0x71, 0xcb, 0xf4, 0x22, 0x28, 0x00, 0x00, 0x00, 0x33, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // footer: index_offset=0x62, chunk_count=1, record_count=1,
      // content_hash, footer_crc, trailer "SCTMEND2"
      0x62, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x67, 0xd8, 0xe8, 0x93, 0xc1, 0x37, 0xee, 0x91, 0x11, 0xed, 0xc6, 0xc7,
      0x53, 0x43, 0x54, 0x4d, 0x45, 0x4e, 0x44, 0x32,
  };

  std::ostringstream ss;
  write_v2(tiny_trace(), ss);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), sizeof kExpected);
  for (std::size_t i = 0; i < sizeof kExpected; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(bytes[i]), kExpected[i])
        << "byte " << i << " diverged from the golden layout";
  }

  // And the pinned bytes parse back to the identical trace.
  TraceReader reader(memory_source(
      reinterpret_cast<const char*>(kExpected), sizeof kExpected));
  EXPECT_EQ(reader.read_all(), tiny_trace());
}

// ---------------------------------------------------------------------------
// Round trips

trace::Trace random_trace(std::mt19937_64& rng, std::size_t n) {
  trace::Trace t;
  t.app = "rnd";
  t.capture_network = "synthetic";
  t.nodes = 64;
  t.capture_runtime = rng();
  t.seed = rng();
  MsgId id = rng() % 1000;
  Cycle inject = rng() % 1000;
  t.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::TraceRecord r;
    id += 1 + rng() % 50;
    r.id = id;
    r.src = static_cast<NodeId>(rng() % 64);
    r.dst = static_cast<NodeId>(rng() % 64);
    r.size_bytes = static_cast<std::uint32_t>(rng() % 100000);
    r.cls = static_cast<noc::MsgClass>(rng() % noc::kMsgClassCount);
    r.proto = static_cast<std::uint8_t>(rng() % 256);
    // Mostly monotone timestamps (the case the delta coder targets), with
    // occasional arbitrary u64s to stress the wrapping-delta path.
    inject += rng() % 2000;
    r.inject_time = (rng() % 16 == 0) ? rng() : inject;
    r.arrive_time =
        (rng() % 10 == 0) ? kNoCycle : r.inject_time + rng() % 500;
    // The codec does not interpret dependencies; any parent/slack must
    // survive the trip.
    const std::size_t deps = rng() % 4;
    for (std::size_t d = 0; d < deps && !t.records.empty(); ++d) {
      r.deps.push_back({t.records[rng() % t.records.size()].id, rng()});
    }
    t.records.push_back(std::move(r));
  }
  return t;
}

TEST(TraceStoreV2, RandomizedRoundTripsAcrossChunkSizes) {
  std::mt19937_64 rng(12345);
  for (const std::uint32_t chunk : {1u, 7u, 64u, kDefaultChunkRecords}) {
    const trace::Trace t = random_trace(rng, 200);
    std::ostringstream ss;
    write_v2(t, ss, chunk);
    const std::string bytes = ss.str();
    TraceReader reader(memory_source(bytes.data(), bytes.size()));
    EXPECT_EQ(reader.record_count(), t.records.size());
    if (chunk == 7) EXPECT_EQ(reader.chunk_count(), (200 + 6) / 7);
    EXPECT_EQ(reader.read_all(/*parallel=*/false), t) << "chunk=" << chunk;
    EXPECT_EQ(reader.read_all(/*parallel=*/true), t) << "chunk=" << chunk;
  }
}

TEST(TraceStoreV2, EmptyTraceRoundTrips) {
  trace::Trace t;
  t.app = "empty";
  t.capture_network = "none";
  t.nodes = 4;
  std::ostringstream ss;
  write_v2(t, ss);
  const std::string bytes = ss.str();
  TraceReader reader(memory_source(bytes.data(), bytes.size()));
  EXPECT_EQ(reader.chunk_count(), 0u);
  EXPECT_EQ(reader.read_all(), t);
}

TEST(TraceStoreV2, ChunkCursorMatchesReadAllWithAndWithoutPrefetch) {
  std::mt19937_64 rng(99);
  const trace::Trace t = random_trace(rng, 150);
  std::ostringstream ss;
  write_v2(t, ss, 16);
  const std::string bytes = ss.str();
  const TraceReader reader(memory_source(bytes.data(), bytes.size()));
  for (const bool prefetch : {false, true}) {
    ChunkCursor cursor(reader, prefetch);
    std::vector<trace::TraceRecord> chunk;
    std::vector<trace::TraceRecord> all;
    while (cursor.next(chunk)) {
      all.insert(all.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(all, t.records) << "prefetch=" << prefetch;
  }
}

TEST(TraceStoreV2, ReadBinaryDispatchesOnMagic) {
  // The legacy entry points accept v2 transparently.
  const trace::Trace t = tiny_trace();
  std::stringstream ss;
  write_v2(t, ss);
  EXPECT_EQ(trace::read_binary(ss), t);

  const std::string path = "/tmp/sctm_tracestore_dispatch.trc2";
  write_v2_file(t, path);
  EXPECT_EQ(trace::sniff_format(path), trace::TraceFormat::kV2);
  EXPECT_EQ(trace::read_binary_file(path), t);
  std::remove(path.c_str());
}

TEST(TraceStoreV2, WriterStreamsAndHashesIncrementally) {
  std::mt19937_64 rng(7);
  const trace::Trace t = random_trace(rng, 60);
  TraceMeta meta;
  meta.app = t.app;
  meta.capture_network = t.capture_network;
  meta.nodes = t.nodes;
  meta.capture_runtime = t.capture_runtime;
  meta.seed = t.seed;
  std::ostringstream ss;
  TraceWriter w(ss, meta, 10);
  for (const auto& r : t.records) w.append(r);
  w.finish();
  EXPECT_EQ(w.records_written(), t.records.size());
  EXPECT_EQ(w.content_hash(), content_hash(t));
  EXPECT_THROW(w.finish(), std::logic_error);
  EXPECT_THROW(w.append(t.records[0]), std::logic_error);

  const std::string bytes = ss.str();
  const TraceReader reader(memory_source(bytes.data(), bytes.size()));
  EXPECT_EQ(reader.stored_content_hash(), content_hash(t));
  EXPECT_EQ(reader.read_all(), t);
}

TEST(TraceStoreV2, ContentHashIsFormatIndependent) {
  const trace::Trace t = tiny_trace();
  const std::string v1 = "/tmp/sctm_hash_check.bin";
  const std::string v2 = "/tmp/sctm_hash_check.trc2";
  trace::write_file(t, v1, trace::TraceFormat::kV1);
  trace::write_file(t, v2, trace::TraceFormat::kV2);
  // Loading either file yields the same logical trace, hence the same
  // content address; v2 additionally stores it in the footer.
  EXPECT_EQ(content_hash(trace::read_binary_file(v1)),
            content_hash(trace::read_binary_file(v2)));
  EXPECT_EQ(TraceReader::open_file(v2).stored_content_hash(),
            content_hash(t));
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

// ---------------------------------------------------------------------------
// Corruption

TEST(TraceStoreV2, EveryOneByteCorruptionIsDetectedAndAttributed) {
  std::mt19937_64 rng(4242);
  const trace::Trace t = random_trace(rng, 30);
  const std::string path = "/tmp/sctm_corrupt_sweep.trc2";
  write_v2_file(t, path, /*chunk_records=*/8);

  std::string clean;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    clean = buf.str();
  }
  const VerifyReport ok = verify_v2_file(path);
  ASSERT_TRUE(ok.ok) << ok.error;
  ASSERT_GE(ok.chunks, 3u);

  // Byte ranges owned by each chunk (header + payload): corruption there
  // must be attributed to exactly that chunk.
  const TraceReader reader = TraceReader::open_file(path);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (std::size_t i = 0; i < reader.chunk_count(); ++i) {
    const auto& c = reader.chunk_info(i);
    spans.push_back(
        {c.file_offset, c.file_offset + kChunkHeaderBytes + c.payload_len});
  }

  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bad = clean;
    bad[i] = static_cast<char>(bad[i] ^ 0xFF);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    const VerifyReport rep = verify_v2_file(path);
    ASSERT_FALSE(rep.ok) << "corruption at byte " << i << " went undetected";
    std::int64_t expected_chunk = -1;
    for (std::size_t c = 0; c < spans.size(); ++c) {
      if (i >= spans[c].first && i < spans[c].second) {
        expected_chunk = static_cast<std::int64_t>(c);
      }
    }
    EXPECT_EQ(rep.bad_chunk, expected_chunk)
        << "byte " << i << ": " << rep.error;
  }
  std::remove(path.c_str());
}

TEST(TraceStoreV2, TruncationRejected) {
  std::ostringstream ss;
  write_v2(tiny_trace(), ss);
  const std::string full = ss.str();
  for (const std::size_t keep : {0ul, 7ul, 20ul, full.size() / 2,
                                 full.size() - 1}) {
    EXPECT_THROW(
        TraceReader reader(memory_source(full.data(), keep)),
        TraceStoreError)
        << "accepted a " << keep << "-byte prefix";
  }
}

// ---------------------------------------------------------------------------
// Streamed replay equivalence (the acceptance criterion: replaying from a
// streamed v2 container is bit-identical to replaying the in-memory trace).

TEST(TraceStoreV2, StreamedReplayMatchesInMemoryReplayBitExactly) {
  fullsys::AppParams app;
  app.name = "fft";
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
  const trace::Trace t = core::run_execution(app, net, sys).trace;
  ASSERT_GT(t.records.size(), 100u);

  const std::string path = "/tmp/sctm_streamed_replay.trc2";
  write_v2_file(t, path, /*chunk_records=*/128);  // force many chunks

  core::NetSpec target;
  target.kind = core::NetKind::kOnocToken;
  const auto mem = core::run_replay(core::ReplayTrace(t), target, {});
  const auto streamed =
      core::run_replay(core::load_replay_trace(path), target, {});
  EXPECT_EQ(streamed.result.inject_time, mem.result.inject_time);
  EXPECT_EQ(streamed.result.arrive_time, mem.result.arrive_time);
  EXPECT_EQ(streamed.result.runtime, mem.result.runtime);
  EXPECT_EQ(streamed.result.events, mem.result.events);
  std::remove(path.c_str());
}

TEST(ReplayTraceTest, MirrorsDependencyGraphValidation) {
  trace::Trace t;
  t.nodes = 2;
  trace::TraceRecord a;
  a.id = 1;
  a.src = 0;
  a.dst = 1;
  a.inject_time = 0;
  a.arrive_time = 5;
  trace::TraceRecord b;
  b.id = 2;
  b.src = 1;
  b.dst = 0;
  b.inject_time = 7;
  b.arrive_time = 15;
  b.deps.push_back({1, 2});
  t.records = {a, b};
  const core::ReplayTrace rt(t);  // must validate cleanly
  EXPECT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt.dep_count(1), 1u);
  // The one edge 0 -> 1, read from the dependent's side.
  EXPECT_EQ(rt.dep_parent_index(1, 0), 0u);
  EXPECT_TRUE(rt.has_dependents(0));
  EXPECT_FALSE(rt.has_dependents(1));

  auto bad = t;
  bad.records[1].deps[0].parent = 999;  // unknown parent
  EXPECT_THROW(core::ReplayTrace{bad}, std::invalid_argument);
  bad = t;
  bad.records[1].deps[0].slack = 3;  // 5 + 3 != 7
  EXPECT_THROW(core::ReplayTrace{bad}, std::invalid_argument);
  bad = t;
  bad.records[1].id = 1;  // duplicate id
  bad.records[1].deps.clear();
  EXPECT_THROW(core::ReplayTrace{bad}, std::invalid_argument);
  bad = t;
  bad.records[0].deps.push_back({2, 0});  // forward dependency
  bad.records[0].inject_time = 15;
  EXPECT_THROW(core::ReplayTrace{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace sctm::tracestore
