// Unit tests for the utility substrate: Status/Result, Slice, SHA-256
// (against FIPS/NIST vectors), rolling hash, codec and workload RNG.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "util/cli.h"
#include "util/codec.h"
#include "util/random.h"
#include "util/rolling_hash.h"
#include "util/sha256.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/timer.h"

namespace fb {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, CopyIsCheapAndEqualByCode) {
  Status a = Status::Conflict("x");
  Status b = a;
  EXPECT_TRUE(b.IsConflict());
  EXPECT_EQ(a, b);
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kTypeMismatch), "TypeMismatch");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kPreconditionFailed),
               "PreconditionFailed");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.ValueOr(-1), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  FB_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_TRUE(Doubled(Status::NotFound()).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl.subslice(6).ToString(), "world");
  EXPECT_EQ(sl.subslice(0, 5).ToString(), "hello");
  EXPECT_EQ(sl.subslice(20, 5).size(), 0u);  // clamped
}

TEST(SliceTest, Comparison) {
  EXPECT_LT(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("ab"), Slice("abc"));
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_GT(Slice("b"), Slice("aaaa"));
}

TEST(SliceTest, EmptySliceComparesEqual) {
  EXPECT_EQ(Slice(), Slice(""));
  EXPECT_LT(Slice(), Slice("a"));
}

// ---------------------------------------------------------------------------
// SHA-256: NIST / FIPS 180-4 test vectors.
// ---------------------------------------------------------------------------

std::string HashHex(const std::string& in) {
  return HexEncode(Slice(Sha256::Hash(in).data(), Sha256::kDigestSize));
}

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, EmptyInputsIncludingNullSlice) {
  // Slice() carries a null data pointer; hashing it must not touch it
  // (the UBSan job flags a zero-length memcpy from null).
  const std::string kEmpty =
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  EXPECT_EQ(HexEncode(Slice(Sha256::Hash(Slice()).data(), 32)), kEmpty);
  EXPECT_EQ(HexEncode(Slice(Sha256::Hash(Slice("")).data(), 32)), kEmpty);
  // Empty updates mid-stream change nothing, partial block buffered or not.
  Sha256 h;
  h.Update(Slice());
  h.Update(Slice("ab"));
  h.Update(Slice());
  h.Update(Slice("c"));
  EXPECT_EQ(h.Finalize(), Sha256::Hash("abc"));
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(Slice(h.Finalize().data(), 32)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.Update(Slice(&c, 1));
  EXPECT_EQ(h.Finalize(), Sha256::Hash(msg));
}

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.Update(Slice("garbage"));
  h.Finalize();
  h.Reset();
  h.Update(Slice("abc"));
  EXPECT_EQ(h.Finalize(), Sha256::Hash("abc"));
}

// Boundary lengths around the 55/56/64-byte padding edges.
TEST(Sha256Test, PaddingBoundaries) {
  for (size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 121u}) {
    const std::string msg(n, 'x');
    Sha256 h;
    h.Update(Slice(msg.data(), 30 < n ? 30 : n));
    if (n > 30) h.Update(Slice(msg.data() + 30, n - 30));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(msg)) << "length " << n;
  }
}

TEST(HexTest, RoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(HexEncode(Slice(b)), "0001abff");
  EXPECT_EQ(HexDecode("0001abff"), b);
  EXPECT_TRUE(HexDecode("xyz").empty());
  EXPECT_TRUE(HexDecode("abc").empty());  // odd length
}

// ---------------------------------------------------------------------------
// Rolling hash
// ---------------------------------------------------------------------------

TEST(RollingHashTest, WindowProperty) {
  // After feeding >= window bytes, the state depends only on the last
  // `window` bytes — the core property behind content-defined chunking.
  Rng rng(1);
  const Bytes prefix_a = rng.BytesOf(100);
  const Bytes prefix_b = rng.BytesOf(77);
  const Bytes tail = rng.BytesOf(32);

  RollingHash h1(32), h2(32);
  for (uint8_t b : prefix_a) h1.Feed(b);
  for (uint8_t b : prefix_b) h2.Feed(b);
  uint64_t s1 = 0, s2 = 0;
  for (uint8_t b : tail) {
    s1 = h1.Feed(b);
    s2 = h2.Feed(b);
  }
  EXPECT_EQ(s1, s2);
}

TEST(RollingHashTest, DeterministicAcrossInstances) {
  RollingHash h1(32), h2(32);
  uint64_t last1 = 0, last2 = 0;
  for (int i = 0; i < 200; ++i) {
    last1 = h1.Feed(static_cast<uint8_t>(i * 7));
    last2 = h2.Feed(static_cast<uint8_t>(i * 7));
  }
  EXPECT_EQ(last1, last2);
}

TEST(RollingHashTest, NoPatternBeforeFullWindow) {
  RollingHash h(32);
  for (int i = 0; i < 31; ++i) {
    h.Feed(0);
    EXPECT_FALSE(h.HitsPattern(0)) << "q=0 always matches once window full";
  }
  h.Feed(0);
  EXPECT_TRUE(h.HitsPattern(0));
}

TEST(RollingHashTest, PatternRateApproximatesTwoPowMinusQ) {
  // Over random data, pattern probability per position should be ~2^-q.
  RollingHash h(32);
  Rng rng(7);
  const int q = 8;
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    h.Feed(static_cast<uint8_t>(rng.Next()));
    if (h.HitsPattern(q)) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 1.0 / 256, 0.35 / 256);
}

TEST(RollingHashTest, AbsorbMatchesFeedingEveryByte) {
  // The chunker appends runs it knows hold no boundary with Absorb, which
  // hashes only their last window; the state and the warm-up count must
  // match feeding each byte, for runs shorter and longer than the window.
  Rng rng(9);
  for (const size_t window : {size_t{1}, size_t{8}, size_t{32}}) {
    for (const size_t prefix : {size_t{0}, size_t{5}, size_t{100}}) {
      for (const size_t run : {size_t{0}, size_t{3}, window, size_t{77}}) {
        const Bytes head = rng.BytesOf(prefix);
        const Bytes body = rng.BytesOf(run);
        const Bytes tail = rng.BytesOf(40);
        RollingHash fed(window), absorbed(window);
        for (uint8_t b : head) {
          fed.Feed(b);
          absorbed.Feed(b);
        }
        for (uint8_t b : body) fed.Feed(b);
        absorbed.Absorb(body.data(), body.size());
        ASSERT_EQ(fed.state(), absorbed.state());
        for (uint8_t b : tail) {
          ASSERT_EQ(fed.Feed(b), absorbed.Feed(b));
          ASSERT_EQ(fed.HitsPattern(2), absorbed.HitsPattern(2));
        }
      }
    }
  }
}

TEST(RollingHashTest, ResetRestoresInitialState) {
  RollingHash h(16);
  const uint64_t fresh = h.state();
  for (int i = 0; i < 100; ++i) h.Feed(static_cast<uint8_t>(i));
  const uint64_t before = h.state();
  h.Reset();
  EXPECT_EQ(h.state(), fresh);
  for (int i = 0; i < 100; ++i) h.Feed(static_cast<uint8_t>(i));
  EXPECT_EQ(h.state(), before);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(CodecTest, VarintRoundTrip) {
  const uint64_t values[] = {0,       1,        127,        128,
                             300,     16383,    16384,      1u << 20,
                             1u << 28, (1ull << 35), ~uint64_t{0}};
  Bytes buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  ByteReader r{Slice(buf)};
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(r.ReadVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncatedVarintIsCorruption) {
  Bytes buf = {0x80, 0x80};  // continuation bits with no terminator
  ByteReader r{Slice(buf)};
  uint64_t v;
  EXPECT_TRUE(r.ReadVarint64(&v).IsCorruption());
}

TEST(CodecTest, FixedWidthRoundTrip) {
  Bytes buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  ByteReader r{Slice(buf)};
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(r.ReadFixed32(&a).ok());
  ASSERT_TRUE(r.ReadFixed64(&b).ok());
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  Bytes buf;
  PutLengthPrefixed(&buf, Slice("alpha"));
  PutLengthPrefixed(&buf, Slice(""));
  PutLengthPrefixed(&buf, Slice("beta"));
  ByteReader r{Slice(buf)};
  Slice a, b, c;
  ASSERT_TRUE(r.ReadLengthPrefixed(&a).ok());
  ASSERT_TRUE(r.ReadLengthPrefixed(&b).ok());
  ASSERT_TRUE(r.ReadLengthPrefixed(&c).ok());
  EXPECT_EQ(a.ToString(), "alpha");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.ToString(), "beta");
}

TEST(CodecTest, TruncatedSliceIsCorruption) {
  Bytes buf;
  PutVarint64(&buf, 100);  // claims 100 bytes, provides none
  ByteReader r{Slice(buf)};
  Slice s;
  EXPECT_TRUE(r.ReadLengthPrefixed(&s).IsCorruption());
}

TEST(CodecTest, ZigZag) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456},
                    int64_t{1} << 40, -(int64_t{1} << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

// ---------------------------------------------------------------------------
// Random / workload generators
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator gen(100, 0.0, 9);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.Next()]++;
  // Every value should appear, and no value should dominate.
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [k, c] : counts) {
    EXPECT_GT(c, 500) << k;
    EXPECT_LT(c, 2000) << k;
  }
}

TEST(ZipfTest, SkewConcentratesMass) {
  ZipfGenerator gen(1000, 0.9, 11);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (gen.Next() < 10) ++head;
  }
  // With theta=0.9 the 1% hottest keys should draw far more than 1%.
  EXPECT_GT(head, n / 10);
}

TEST(WorkloadTest, MakeKeyIsSortableAndDeterministic) {
  EXPECT_EQ(MakeKey(42), "key000000000042");
  EXPECT_LT(MakeKey(9), MakeKey(10));
  EXPECT_EQ(MakeKey(7, 4, "p"), "p0007");
}

TEST(WorkloadTest, MakeValueDeterministic) {
  EXPECT_EQ(MakeValue(1, 64), MakeValue(1, 64));
  EXPECT_NE(MakeValue(1, 64), MakeValue(2, 64));
  EXPECT_EQ(MakeValue(3, 100).size(), 100u);
}

TEST(TimerTest, LatencyRecorderPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Record(i);
  EXPECT_NEAR(rec.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(rec.Percentile(95), 95.05, 1.0);
  EXPECT_NEAR(rec.Mean(), 50.5, 1e-9);
}

// ---------------------------------------------------------------------------
// CLI tokenizer (the forkbase_cli REPL parser)
// ---------------------------------------------------------------------------

TEST(CliTokenizerTest, SplitsUnquotedTokensOnWhitespace) {
  auto tokens = TokenizeCliLine("put  key\tmaster value");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[0].text, "put");
  EXPECT_EQ((*tokens)[1].text, "key");
  EXPECT_EQ((*tokens)[2].text, "master");
  EXPECT_EQ((*tokens)[3].text, "value");
  EXPECT_FALSE((*tokens)[3].quoted);
  EXPECT_TRUE(TokenizeCliLine("")->empty());
  EXPECT_TRUE(TokenizeCliLine("   \t ")->empty());
}

TEST(CliTokenizerTest, QuotedTokensKeepSpacesAndDecodeEscapes) {
  // The regression that motivated the tokenizer: `put` split its value
  // on whitespace, so a value containing spaces lost everything past
  // the first word.
  auto tokens = TokenizeCliLine("put key master \"hello brave world\"");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[3].text, "hello brave world");
  EXPECT_TRUE((*tokens)[3].quoted);

  auto escaped = TokenizeCliLine(R"(put k m "tab\there \"quoted\" \\ nul\0end")");
  ASSERT_TRUE(escaped.ok());
  const std::string want = std::string("tab\there \"quoted\" \\ nul") +
                           std::string(1, '\0') + "end";
  EXPECT_EQ((*escaped)[3].text, want);
}

TEST(CliTokenizerTest, RestOfLineTakesRawTailOrQuotedToken) {
  // Unquoted: everything after the third token, spaces preserved.
  const std::string raw = "put key master two words  extra";
  auto tokens = TokenizeCliLine(raw);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(*CliRestOfLine(raw, *tokens, 3), "two words  extra");

  // Quoted (and last): the decoded token, not the raw bytes.
  const std::string quoted = "put key master \"two words\"";
  auto qtokens = TokenizeCliLine(quoted);
  ASSERT_TRUE(qtokens.ok());
  EXPECT_EQ(*CliRestOfLine(quoted, *qtokens, 3), "two words");

  // Missing token: empty value (a Put of "" is legal).
  EXPECT_EQ(
      *CliRestOfLine("put key master", *TokenizeCliLine("put key master"), 3),
      "");

  // A quoted value with trailing tokens is ambiguous — error, never the
  // raw bytes (quotes and escapes included) of the tail.
  const std::string trailing = "put key master \"two words\" extra";
  auto ttokens = TokenizeCliLine(trailing);
  ASSERT_TRUE(ttokens.ok());
  EXPECT_FALSE(CliRestOfLine(trailing, *ttokens, 3).ok());
}

TEST(CliTokenizerTest, RejectsDamagedQuoting) {
  EXPECT_FALSE(TokenizeCliLine("put k m \"unterminated").ok());
  EXPECT_FALSE(TokenizeCliLine("put k m \"dangling\\").ok());
  EXPECT_FALSE(TokenizeCliLine("put k m \"bad\\x escape\"").ok());
  EXPECT_FALSE(TokenizeCliLine("put k m \"ambiguous\"tail").ok());
}

}  // namespace
}  // namespace fb
