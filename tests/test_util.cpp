#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace {

using namespace geoanon::util;
using namespace geoanon::util::literals;

// ---------------------------------------------------------------- Vec2

TEST(Vec2, ArithmeticBasics) {
    const Vec2 a{3.0, 4.0};
    const Vec2 b{1.0, -2.0};
    EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
    EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
    EXPECT_EQ((a * 2.0), (Vec2{6.0, 8.0}));
    EXPECT_EQ((2.0 * a), (Vec2{6.0, 8.0}));
    EXPECT_EQ((a / 2.0), (Vec2{1.5, 2.0}));
}

TEST(Vec2, LengthAndDistance) {
    const Vec2 a{3.0, 4.0};
    EXPECT_DOUBLE_EQ(a.length(), 5.0);
    EXPECT_DOUBLE_EQ(a.length_sq(), 25.0);
    EXPECT_DOUBLE_EQ(distance({0, 0}, a), 5.0);
    EXPECT_DOUBLE_EQ(distance_sq({1, 1}, {4, 5}), 25.0);
}

TEST(Vec2, NormalizedUnitLength) {
    const Vec2 v = Vec2{10.0, -5.0}.normalized();
    EXPECT_NEAR(v.length(), 1.0, 1e-12);
}

TEST(Vec2, NormalizedZeroIsZero) {
    const Vec2 v = Vec2{}.normalized();
    EXPECT_EQ(v, Vec2{});
}

TEST(Vec2, CompoundAssignment) {
    Vec2 a{1, 2};
    a += {2, 3};
    EXPECT_EQ(a, (Vec2{3, 5}));
    a -= {1, 1};
    EXPECT_EQ(a, (Vec2{2, 4}));
}

// ---------------------------------------------------------------- SimTime

TEST(SimTime, Factories) {
    EXPECT_EQ(SimTime::seconds(1.5).ns(), 1'500'000'000);
    EXPECT_EQ(SimTime::millis(3).ns(), 3'000'000);
    EXPECT_EQ(SimTime::micros(7).ns(), 7'000);
    EXPECT_EQ(SimTime::nanos(42).ns(), 42);
}

TEST(SimTime, Literals) {
    EXPECT_EQ((2_s).ns(), 2'000'000'000);
    EXPECT_EQ((5_ms).ns(), 5'000'000);
    EXPECT_EQ((9_us).ns(), 9'000);
    EXPECT_EQ((13_ns).ns(), 13);
}

TEST(SimTime, ArithmeticAndComparison) {
    const SimTime a = 1_s;
    const SimTime b = 250_ms;
    EXPECT_EQ((a + b).ns(), 1'250'000'000);
    EXPECT_EQ((a - b).ns(), 750'000'000);
    EXPECT_EQ((b * 4).ns(), 1'000'000'000);
    EXPECT_LT(b, a);
    EXPECT_GE(a, b);
    EXPECT_EQ(a, 1000_ms);
}

TEST(SimTime, Conversions) {
    EXPECT_DOUBLE_EQ((1500_ms).to_seconds(), 1.5);
    EXPECT_DOUBLE_EQ((1500_us).to_millis(), 1.5);
}

TEST(SimTime, MaxActsAsInfinity) {
    EXPECT_GT(SimTime::max(), SimTime::seconds(1e9));
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBoundsInclusive) {
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, UniformIntSingleton) {
    Rng rng(9);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNoModuloBias) {
    // Chi-squared-ish sanity: counts should be near-uniform over 10 buckets.
    Rng rng(1234);
    int counts[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 9)];
    for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, ExponentialMean) {
    Rng rng(5);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, BernoulliProbability) {
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIndependentStreams) {
    Rng parent(42);
    Rng child = parent.fork();
    // Child stream should not replay the parent stream.
    Rng parent2(42);
    parent2.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (child.next_u64() == parent.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, SplitMix64KnownSequence) {
    // Reference values for seed 0 from the SplitMix64 reference code.
    SplitMix64 sm(0);
    EXPECT_EQ(sm.next(), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(sm.next(), 0x6E789E6AA1B965F4ULL);
    EXPECT_EQ(sm.next(), 0x06C45D188009454FULL);
}

// ---------------------------------------------------------------- stats

TEST(RunningStat, Empty) {
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanVarianceMinMax) {
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
    RunningStat all, a, b;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-5, 5);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
    RunningStat a, empty;
    a.add(1.0);
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Sampler, Percentiles) {
    Sampler s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Sampler, EmptyReturnsZero) {
    Sampler s;
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Sampler, SingleSampleEveryPercentile) {
    Sampler s;
    s.add(7.25);
    // Nearest-rank on one sample: every p maps to that sample.
    for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.25) << "p=" << p;
    EXPECT_DOUBLE_EQ(s.min(), 7.25);
    EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(Sampler, PercentileBoundsHitMinAndMax) {
    Sampler s;
    // Unsorted insertion order; p=0 must return the min, p=100 the max.
    for (const double x : {42.0, -3.0, 17.0, 0.5, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0), -3.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(RunningStat, MergeSkewedSplitsMatchSinglePass) {
    // Ground truth: one single-pass accumulator over 500 values. Merging any
    // partition of the same values — including a 1-vs-499 split — must agree
    // on every moment.
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(-1000.0, 1000.0));
    RunningStat all;
    for (const double x : xs) all.add(x);

    for (const std::size_t split : {std::size_t{1}, std::size_t{250}, std::size_t{499}}) {
        RunningStat a, b;
        for (std::size_t i = 0; i < xs.size(); ++i) (i < split ? a : b).add(xs[i]);
        a.merge(b);
        EXPECT_EQ(a.count(), all.count());
        EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
        EXPECT_NEAR(a.stddev(), all.stddev(), 1e-6);
        EXPECT_NEAR(a.sum(), all.sum(), 1e-6);
        EXPECT_DOUBLE_EQ(a.min(), all.min());
        EXPECT_DOUBLE_EQ(a.max(), all.max());
    }
}

TEST(Sampler, PercentileAfterMoreSamples) {
    Sampler s;
    s.add(10);
    EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
    s.add(20);
    s.add(30);
    EXPECT_DOUBLE_EQ(s.percentile(100), 30.0);  // re-sorts after mutation
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, WriterReaderRoundTrip) {
    ByteWriter w;
    w.u8(0xAB);
    w.u16(0x1234);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.f64(-1234.5678);
    w.str("hello");
    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.f64(), -1234.5678);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderUnderflowReturnsNullopt) {
    const Bytes buf{0x01, 0x02};
    ByteReader r(buf);
    EXPECT_TRUE(r.u16().has_value());
    EXPECT_FALSE(r.u16().has_value());
    EXPECT_FALSE(r.u8().has_value());
}

TEST(Bytes, LengthPrefixedBytes) {
    ByteWriter w;
    const Bytes payload{1, 2, 3, 4, 5};
    w.bytes(payload);
    ByteReader r(w.data());
    EXPECT_EQ(r.bytes(), payload);
}

TEST(Bytes, BigEndianLayout) {
    ByteWriter w;
    w.u32(0x01020304);
    EXPECT_EQ(w.data(), (Bytes{0x01, 0x02, 0x03, 0x04}));
}

TEST(Bytes, HexRoundTrip) {
    const Bytes data{0x00, 0xFF, 0x1a, 0x2B};
    EXPECT_EQ(to_hex(data), "00ff1a2b");
    EXPECT_EQ(from_hex("00ff1a2b"), data);
    EXPECT_EQ(from_hex("00FF1A2B"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
    EXPECT_FALSE(from_hex("abc").has_value());   // odd length
    EXPECT_FALSE(from_hex("zz").has_value());    // bad digit
    EXPECT_TRUE(from_hex("").has_value());       // empty is fine
}

TEST(Bytes, ConstantTimeEqual) {
    const Bytes a{1, 2, 3};
    const Bytes b{1, 2, 3};
    const Bytes c{1, 2, 4};
    const Bytes d{1, 2};
    EXPECT_TRUE(bytes_equal(a, b));
    EXPECT_FALSE(bytes_equal(a, c));
    EXPECT_FALSE(bytes_equal(a, d));
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedRows) {
    TablePrinter t({"name", "value"});
    t.row().cell("x").cell(42LL);
    t.row().cell("long-name").cell(3.5, 1);
    const std::string out = t.to_string();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("3.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, FmtDouble) {
    EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
    EXPECT_EQ(fmt_double(-0.5, 3), "-0.500");
}

// ---------------------------------------------------------------- retry

TEST(RetryPolicy, GrowsGeometricallyWithoutJitter) {
    Rng rng(1);
    const RetryPolicy::Params p{.initial = SimTime::seconds(2.0),
                                .multiplier = 2.0,
                                .cap = SimTime{},
                                .jitter = 0.0};
    EXPECT_EQ(RetryPolicy::delay(p, 1, rng), SimTime::seconds(2.0));
    EXPECT_EQ(RetryPolicy::delay(p, 2, rng), SimTime::seconds(4.0));
    EXPECT_EQ(RetryPolicy::delay(p, 3, rng), SimTime::seconds(8.0));
    EXPECT_EQ(RetryPolicy::delay(p, 4, rng), SimTime::seconds(16.0));
}

TEST(RetryPolicy, CapBoundsTheSchedule) {
    Rng rng(1);
    const RetryPolicy::Params p{.initial = SimTime::seconds(2.0),
                                .multiplier = 2.0,
                                .cap = SimTime::seconds(5.0),
                                .jitter = 0.0};
    EXPECT_EQ(RetryPolicy::delay(p, 1, rng), SimTime::seconds(2.0));
    EXPECT_EQ(RetryPolicy::delay(p, 2, rng), SimTime::seconds(4.0));
    EXPECT_EQ(RetryPolicy::delay(p, 3, rng), SimTime::seconds(5.0));
    EXPECT_EQ(RetryPolicy::delay(p, 10, rng), SimTime::seconds(5.0));
}

TEST(RetryPolicy, JitterStaysWithinFractionAndIsSeeded) {
    const RetryPolicy::Params p{.initial = SimTime::seconds(1.0),
                                .multiplier = 2.0,
                                .cap = SimTime::seconds(8.0),
                                .jitter = 0.25};
    Rng a(42), b(42), c(43);
    bool varied = false;
    for (int attempt = 1; attempt <= 8; ++attempt) {
        const SimTime da = RetryPolicy::delay(p, attempt, a);
        const SimTime db = RetryPolicy::delay(p, attempt, b);
        const SimTime base = RetryPolicy::delay(
            {.initial = p.initial, .multiplier = p.multiplier, .cap = p.cap,
             .jitter = 0.0},
            attempt, c);
        EXPECT_EQ(da, db);  // same seed, same schedule
        EXPECT_GE(da, base);
        EXPECT_LT(da.ns(), static_cast<std::int64_t>(1.25 * base.ns()) + 1);
        if (da != base) varied = true;
    }
    EXPECT_TRUE(varied);
}

TEST(RetryPolicy, ZeroJitterConsumesNoRandomness) {
    // Callers porting a legacy fixed schedule (AGFW ack backoff) must be able
    // to adopt the policy without perturbing their Rng stream.
    Rng used(7), untouched(7);
    const RetryPolicy::Params p{.initial = SimTime::millis(40),
                                .multiplier = 2.0,
                                .cap = SimTime::millis(640),
                                .jitter = 0.0};
    for (int attempt = 1; attempt <= 6; ++attempt)
        (void)RetryPolicy::delay(p, attempt, used);
    EXPECT_EQ(used.next_u64(), untouched.next_u64());
}

TEST(RetryPolicy, MatchesLegacyAgfwShiftSchedule) {
    // The AGFW ack timer used ack_timeout * 2^min(attempts, 4); the policy
    // with cap = 16 * initial reproduces it bit-exactly.
    Rng rng(1);
    const SimTime ack = SimTime::millis(40);
    const RetryPolicy::Params p{.initial = ack,
                                .multiplier = 2.0,
                                .cap = ack * 16,
                                .jitter = 0.0};
    for (int attempts = 0; attempts <= 8; ++attempts) {
        const SimTime legacy = ack * (1LL << std::min(attempts, 4));
        EXPECT_EQ(RetryPolicy::delay(p, attempts + 1, rng), legacy) << attempts;
    }
}

// ---------------------------------------------------------------- JSON reader

TEST(JsonReader, ParsesDocumentsAndKeepsU64Exact) {
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parse_json(" {\"a\": [1, -2.5e1, true, null], \"s\": \"x\\u0041\\n\","
                           " \"big\": 9007199254740993, \"max\": 18446744073709551615} ",
                           v, error))
        << error;
    ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
    ASSERT_EQ(v.find("a")->array.size(), 4u);
    EXPECT_EQ(v.find("a")->array[1].number, -25.0);
    EXPECT_EQ(v.find("s")->string, "xA\n");
    // 2^53 + 1: the double rounds it, the exact path does not.
    std::uint64_t u = 0;
    ASSERT_TRUE(v.find("big")->as_u64(u));
    EXPECT_EQ(u, 9007199254740993ULL);
    EXPECT_NE(static_cast<std::uint64_t>(v.find("big")->number), u);
    ASSERT_TRUE(v.find("max")->as_u64(u));
    EXPECT_EQ(u, 18446744073709551615ULL);
    // Not plain unsigned integers.
    EXPECT_FALSE(v.find("a")->array[1].as_u64(u));
    EXPECT_FALSE(v.find("s")->as_u64(u));
    ASSERT_TRUE(parse_json("18446744073709551616", v, error));
    EXPECT_FALSE(v.as_u64(u));
}

TEST(JsonReader, RejectsMalformedInput) {
    JsonValue v;
    std::string error;
    for (const char* bad : {"", "{", "[1,]", "{\"a\":1,\"a\":2}", "{} x", "tru", "\"\\u0100\"",
                            "\"unterminated", "1.2.3", "{\"a\" 1}"}) {
        error.clear();
        EXPECT_FALSE(parse_json(bad, v, error)) << bad;
        EXPECT_NE(error.find("at offset"), std::string::npos) << bad;
    }
    EXPECT_FALSE(parse_json("{\"k\":{\"a\":1},\"k\":2}", v, error));
    EXPECT_NE(error.find("duplicate key"), std::string::npos);
    // Keys may repeat across different objects.
    EXPECT_TRUE(parse_json("[{\"a\":1},{\"a\":2}]", v, error)) << error;
}

TEST(JsonReader, DeepNestingIsAnErrorNotAStackOverflow) {
    JsonValue v;
    std::string error;
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(parse_json(nested(kMaxJsonDepth), v, error)) << error;
    EXPECT_FALSE(parse_json(nested(kMaxJsonDepth + 1), v, error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos);
    // A million unclosed brackets used to recurse once per byte.
    EXPECT_FALSE(parse_json(std::string(1'000'000, '['), v, error));
    EXPECT_NE(error.find("nesting too deep at offset 256"), std::string::npos) << error;
    std::string objects;
    for (int i = 0; i < 100'000; ++i) objects += "{\"a\":";
    EXPECT_FALSE(parse_json(objects, v, error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

}  // namespace
