// Unit tests for the util substrate: status, serialization, random,
// queues, thread pool, bitset, stats, options.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "graphlab/util/blocking_queue.h"
#include "graphlab/util/dense_bitset.h"
#include "graphlab/util/options.h"
#include "graphlab/util/random.h"
#include "graphlab/util/serialization.h"
#include "graphlab/util/status.h"
#include "graphlab/util/thread_pool.h"
#include "graphlab/util/timer.h"

namespace graphlab {
namespace {

// ---------------------------------------------------------------------
// Status / Expected
// ---------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.ToString(), "IOError: disk full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*e, 42);
  EXPECT_TRUE(e.status().ok());
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> e(Status::NotFound("nope"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

TEST(SerializationTest, RoundTripsPrimitives) {
  OutArchive oa;
  oa << int32_t{-5} << uint64_t{123456789012345ULL} << 3.25 << true;
  InArchive ia(oa.buffer());
  EXPECT_EQ(ia.ReadValue<int32_t>(), -5);
  EXPECT_EQ(ia.ReadValue<uint64_t>(), 123456789012345ULL);
  EXPECT_EQ(ia.ReadValue<double>(), 3.25);
  EXPECT_EQ(ia.ReadValue<bool>(), true);
  EXPECT_TRUE(ia.AtEnd());
}

TEST(SerializationTest, RoundTripsContainers) {
  OutArchive oa;
  std::string s = "hello world";
  std::vector<double> v = {1.5, -2.5, 0.0};
  std::vector<std::string> vs = {"a", "", "ccc"};
  std::map<std::string, uint32_t> m = {{"x", 1}, {"y", 2}};
  std::pair<int, std::string> p = {7, "seven"};
  oa << s << v << vs << m << p;

  InArchive ia(oa.buffer());
  std::string s2;
  std::vector<double> v2;
  std::vector<std::string> vs2;
  std::map<std::string, uint32_t> m2;
  std::pair<int, std::string> p2;
  ia >> s2 >> v2 >> vs2 >> m2 >> p2;
  EXPECT_EQ(s, s2);
  EXPECT_EQ(v, v2);
  EXPECT_EQ(vs, vs2);
  EXPECT_EQ(m, m2);
  EXPECT_EQ(p, p2);
  EXPECT_TRUE(ia.AtEnd());
}

// Empty containers read zero bytes, with null pointers on either side
// (a default-constructed vector's data(), an archive over no bytes):
// the read succeeds and never hands memcpy a null pointer.
TEST(SerializationTest, RoundTripsEmptyContainers) {
  OutArchive oa;
  oa << std::vector<uint32_t>{} << std::string() << std::vector<double>{};
  InArchive ia(oa.buffer());
  std::vector<uint32_t> ids;
  std::string text;
  std::vector<double> values;
  ia >> ids >> text >> values;
  EXPECT_TRUE(ia.ok());
  EXPECT_TRUE(ia.AtEnd());
  EXPECT_TRUE(ids.empty());
  EXPECT_TRUE(text.empty());
  EXPECT_TRUE(values.empty());

  InArchive nothing(nullptr, 0);
  EXPECT_TRUE(nothing.ReadBytes(nullptr, 0));
  EXPECT_TRUE(nothing.ok());
  EXPECT_TRUE(nothing.AtEnd());
}

struct CustomType {
  int a = 0;
  std::string b;
  void Save(OutArchive* oa) const { *oa << a << b; }
  void Load(InArchive* ia) { *ia >> a >> b; }
  bool operator==(const CustomType& o) const { return a == o.a && b == o.b; }
};

TEST(SerializationTest, RoundTripsCustomTypes) {
  OutArchive oa;
  std::vector<CustomType> v = {{1, "one"}, {2, "two"}};
  oa << v;
  InArchive ia(oa.buffer());
  std::vector<CustomType> v2;
  ia >> v2;
  EXPECT_EQ(v, v2);
}

TEST(SerializationTest, SerializedSizeMatches) {
  EXPECT_EQ(SerializedSize(uint32_t{7}), 4u);
  EXPECT_EQ(SerializedSize(std::string("abc")), 8u + 3u);
  std::vector<float> v(10);
  EXPECT_EQ(SerializedSize(v), 8u + 40u);
}

// The wire encoding is canonical little-endian, independent of host
// byte order — golden bytes pin the format.
TEST(SerializationTest, CanonicalLittleEndianBytes) {
  OutArchive oa;
  oa << uint32_t{0x01020304} << uint16_t{0xABCD} << uint64_t{0x1122334455667788ULL};
  const unsigned char expected[] = {0x04, 0x03, 0x02, 0x01,       // u32
                                    0xCD, 0xAB,                   // u16
                                    0x88, 0x77, 0x66, 0x55,       // u64
                                    0x44, 0x33, 0x22, 0x11};
  ASSERT_EQ(oa.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(oa.buffer().data(), expected, sizeof(expected)), 0);

  // IEEE-754 double 1.0 = 0x3FF0000000000000, little-endian on the wire.
  OutArchive od;
  od << 1.0;
  const unsigned char dexp[] = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  ASSERT_EQ(od.size(), 8u);
  EXPECT_EQ(std::memcmp(od.buffer().data(), dexp, 8), 0);
}

// Round trip over every supported type family in one archive — the wire
// corpus the transports carry.
TEST(SerializationTest, RoundTripsAllSupportedTypes) {
  enum class Tag : uint8_t { kA = 1, kB = 7 };
  OutArchive oa;
  oa << true << int8_t{-8} << uint8_t{200} << int16_t{-30000}
     << uint16_t{60000} << int32_t{-2000000000} << uint32_t{4000000000u}
     << int64_t{-7} << uint64_t{~uint64_t{0}} << 2.5f << -1e300 << Tag::kB
     << std::string("wire") << std::vector<uint32_t>{1, 2, 3}
     << std::vector<std::string>{"a", "bb"}
     << std::array<double, 2>{{0.5, -0.5}}
     << std::pair<uint8_t, int32_t>{9, -9}
     << std::map<uint32_t, std::string>{{1, "one"}}
     << std::unordered_map<std::string, uint64_t>{{"k", 42}}
     << std::vector<CustomType>{{3, "three"}};

  InArchive ia(oa.buffer());
  EXPECT_EQ(ia.ReadValue<bool>(), true);
  EXPECT_EQ(ia.ReadValue<int8_t>(), -8);
  EXPECT_EQ(ia.ReadValue<uint8_t>(), 200);
  EXPECT_EQ(ia.ReadValue<int16_t>(), -30000);
  EXPECT_EQ(ia.ReadValue<uint16_t>(), 60000);
  EXPECT_EQ(ia.ReadValue<int32_t>(), -2000000000);
  EXPECT_EQ(ia.ReadValue<uint32_t>(), 4000000000u);
  EXPECT_EQ(ia.ReadValue<int64_t>(), -7);
  EXPECT_EQ(ia.ReadValue<uint64_t>(), ~uint64_t{0});
  EXPECT_EQ(ia.ReadValue<float>(), 2.5f);
  EXPECT_EQ(ia.ReadValue<double>(), -1e300);
  EXPECT_EQ(ia.ReadValue<Tag>(), Tag::kB);
  EXPECT_EQ(ia.ReadValue<std::string>(), "wire");
  EXPECT_EQ((ia.ReadValue<std::vector<uint32_t>>()),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ((ia.ReadValue<std::vector<std::string>>()),
            (std::vector<std::string>{"a", "bb"}));
  EXPECT_EQ((ia.ReadValue<std::array<double, 2>>()),
            (std::array<double, 2>{{0.5, -0.5}}));
  EXPECT_EQ((ia.ReadValue<std::pair<uint8_t, int32_t>>()),
            (std::pair<uint8_t, int32_t>{9, -9}));
  EXPECT_EQ((ia.ReadValue<std::map<uint32_t, std::string>>()),
            (std::map<uint32_t, std::string>{{1, "one"}}));
  EXPECT_EQ((ia.ReadValue<std::unordered_map<std::string, uint64_t>>()),
            (std::unordered_map<std::string, uint64_t>{{"k", 42}}));
  EXPECT_EQ(ia.ReadValue<std::vector<CustomType>>(),
            (std::vector<CustomType>{{3, "three"}}));
  EXPECT_TRUE(ia.AtEnd());
  EXPECT_TRUE(ia.ok());
}

// Truncation corpus: decoding any strict prefix of a valid archive must
// fail cleanly — ok() false, archive drained (loops terminate), zeroed
// outputs — and never crash or throw.
TEST(SerializationTest, TruncationCorpusFailsCleanly) {
  OutArchive oa;
  oa << uint32_t{7} << std::string("hello") << std::vector<double>{1.0, 2.0}
     << std::vector<CustomType>{{1, "x"}, {2, "yy"}}
     << std::map<uint32_t, std::string>{{3, "zzz"}} << int64_t{-1};
  const auto& buf = oa.buffer();

  for (size_t cut = 0; cut < buf.size(); ++cut) {
    InArchive ia(buf.data(), cut);
    uint32_t a = 99;
    std::string s = "sentinel";
    std::vector<double> v;
    std::vector<CustomType> cv;
    std::map<uint32_t, std::string> m;
    int64_t z = 99;
    ia >> a >> s >> v >> cv >> m >> z;
    EXPECT_FALSE(ia.ok()) << "prefix of " << cut << " bytes decoded fully";
    EXPECT_TRUE(ia.AtEnd()) << "failed archive must read as exhausted";
    EXPECT_FALSE(ia.status().ok());
    // The final read after a failure zero-fills.
    EXPECT_EQ(z, 0);
  }
  // The full buffer still decodes.
  InArchive whole(buf);
  uint32_t a;
  std::string s;
  std::vector<double> v;
  std::vector<CustomType> cv;
  std::map<uint32_t, std::string> m;
  int64_t z;
  whole >> a >> s >> v >> cv >> m >> z;
  EXPECT_TRUE(whole.ok());
  EXPECT_EQ(a, 7u);
  EXPECT_EQ(z, -1);
}

// A corrupt length field (2^60 elements) must fail before allocating.
TEST(SerializationTest, HostileLengthFieldRejectedWithoutAllocation) {
  OutArchive oa;
  oa << uint64_t{1} << uint8_t{42};  // vector length 1, one byte element
  std::vector<char> bytes = oa.TakeBuffer();
  // Clobber the length to 2^60.
  OutArchive evil;
  evil << (uint64_t{1} << 60) << uint8_t{42};
  {
    InArchive ia(evil.buffer());
    std::vector<uint8_t> v;
    ia >> v;
    EXPECT_FALSE(ia.ok());
    EXPECT_TRUE(v.empty());
  }
  {
    InArchive ia(evil.buffer());
    std::string s;
    ia >> s;
    EXPECT_FALSE(ia.ok());
    EXPECT_TRUE(s.empty());
  }
  {
    InArchive ia(evil.buffer());
    std::map<uint32_t, uint32_t> m;
    ia >> m;
    EXPECT_FALSE(ia.ok());
    EXPECT_TRUE(m.empty());
  }
  // Overflow bait: length * sizeof(T) wraps past 2^64.
  OutArchive wrap;
  wrap << uint64_t{0x2000000000000001ULL};
  {
    InArchive ia(wrap.buffer());
    std::vector<uint64_t> v;
    ia >> v;
    EXPECT_FALSE(ia.ok());
    EXPECT_TRUE(v.empty());
  }
  (void)bytes;
}

// ---------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Rng rng(4);
  ZipfSampler zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Sample(&rng)]++;
  // Rank 0 must dominate rank 100 heavily under alpha=1.2.
  EXPECT_GT(counts[0], counts[100] * 5);
  // All samples within range (implicitly checked by indexing).
  EXPECT_GT(counts[0], 0);
}

TEST(RandomTest, ZipfHandlesAlphaOne) {
  Rng rng(5);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(&rng), 100u);
  }
}

TEST(RandomTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------------
// BlockingQueue / TimedQueue
// ---------------------------------------------------------------------

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, ShutdownDrainsThenReturnsNullopt) {
  BlockingQueue<int> q;
  q.Push(7);
  q.Shutdown();
  EXPECT_EQ(*q.Pop(), 7);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Push(8));
}

TEST(BlockingQueueTest, BlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(99);
  });
  EXPECT_EQ(*q.Pop(), 99);
  producer.join();
}

TEST(BlockingQueueTest, PopWithTimeoutExpires) {
  BlockingQueue<int> q;
  auto r = q.PopWithTimeout(std::chrono::milliseconds(10));
  EXPECT_FALSE(r.has_value());
}

TEST(TimedQueueTest, DeliversInDeadlineOrder) {
  TimedQueue<int> q;
  auto now = std::chrono::steady_clock::now();
  q.PushAt(2, now + std::chrono::milliseconds(30));
  q.PushAt(1, now + std::chrono::milliseconds(10));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(TimedQueueTest, FifoForEqualDeadlines) {
  TimedQueue<int> q;
  auto t = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) q.PushAt(i, t);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(TimedQueueTest, RespectsDelay) {
  TimedQueue<int> q;
  Timer timer;
  q.PushAfter(1, std::chrono::milliseconds(50));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_GE(timer.Millis(), 45.0);
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool::ParallelFor(8, 1000, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ---------------------------------------------------------------------
// DenseBitset
// ---------------------------------------------------------------------

TEST(DenseBitsetTest, SetTestClear) {
  DenseBitset bs(130);
  EXPECT_FALSE(bs.Test(0));
  EXPECT_TRUE(bs.SetBit(0));
  EXPECT_FALSE(bs.SetBit(0));  // already set
  EXPECT_TRUE(bs.Test(0));
  EXPECT_TRUE(bs.SetBit(129));
  EXPECT_EQ(bs.PopCount(), 2u);
  EXPECT_TRUE(bs.ClearBit(0));
  EXPECT_FALSE(bs.ClearBit(0));
  EXPECT_EQ(bs.PopCount(), 1u);
}

TEST(DenseBitsetTest, FindFirstFrom) {
  DenseBitset bs(256);
  bs.SetBit(5);
  bs.SetBit(64);
  bs.SetBit(200);
  EXPECT_EQ(bs.FindFirstFrom(0), 5u);
  EXPECT_EQ(bs.FindFirstFrom(6), 64u);
  EXPECT_EQ(bs.FindFirstFrom(65), 200u);
  EXPECT_EQ(bs.FindFirstFrom(201), 256u);
}

TEST(DenseBitsetTest, ConcurrentSetBitExactlyOnce) {
  DenseBitset bs(1 << 14);
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < bs.size(); ++i) {
        if (bs.SetBit(i)) wins.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), static_cast<int>(bs.size()));
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

TEST(OptionsTest, ParsesKeyValueList) {
  auto opts = OptionMap::Parse("a=1, b = 2.5 ,c=hello");
  ASSERT_TRUE(opts.ok());
  EXPECT_EQ(opts->GetInt("a", 0), 1);
  EXPECT_EQ(opts->GetDouble("b", 0), 2.5);
  EXPECT_EQ(opts->GetString("c", ""), "hello");
  EXPECT_EQ(opts->GetInt("missing", 9), 9);
}

TEST(OptionsTest, RejectsMalformed) {
  EXPECT_FALSE(OptionMap::Parse("novalue").ok());
}

TEST(OptionsTest, ParsesArgs) {
  const char* argv[] = {"prog", "--threads=4", "--verbose", "positional"};
  OptionMap opts;
  size_t n = opts.ParseArgs(4, const_cast<char**>(argv));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(opts.GetInt("threads", 0), 4);
  EXPECT_TRUE(opts.GetBool("verbose", false));
}

TEST(OptionsTest, BoolParsing) {
  auto opts = OptionMap::Parse("a=true,b=0,c=yes,d=off");
  ASSERT_TRUE(opts.ok());
  EXPECT_TRUE(opts->GetBool("a", false));
  EXPECT_FALSE(opts->GetBool("b", true));
  EXPECT_TRUE(opts->GetBool("c", false));
  EXPECT_FALSE(opts->GetBool("d", true));
}

}  // namespace
}  // namespace graphlab
