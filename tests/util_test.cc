#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/table.h"

namespace renonfs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NoEntError("missing file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoEnt);
  EXPECT_EQ(s.ToString(), "NOENT: missing file");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<ErrorCode> codes;
  for (Status s : {PermError(""), NoEntError(""), IoError(""), AccessError(""), ExistError(""),
                   NotDirError(""), IsDirError(""), FBigError(""), NoSpaceError(""), RoFsError(""),
                   NameTooLongError(""), NotEmptyError(""), DQuotError(""), StaleError(""),
                   InvalidArgumentError(""), TimeoutError(""), UnavailableError(""),
                   CancelledError(""), GarbageArgsError(""), ProcUnavailError(""),
                   InternalError("")}) {
    EXPECT_TRUE(codes.insert(s.code()).second) << ErrorCodeName(s.code());
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = TimeoutError("rpc");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kTimeout);
}

StatusOr<int> Doubled(StatusOr<int> in) {
  ASSIGN_OR_RETURN(int x, in);
  return x * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(IoError("disk")).status().code(), ErrorCode::kIo);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformUint64(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(TextTableTest, RendersAligned) {
  TextTable t("Table #X");
  t.SetHeader({"col", "value"});
  t.AddRow({"a", TextTable::Num(1.25, 2)});
  t.AddRow({"longer", TextTable::Int(7)});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Table #X"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

}  // namespace
}  // namespace renonfs
