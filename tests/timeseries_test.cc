// Time-series sampling (src/obs/timeseries.*): ring-buffer compaction
// invariants, sampler-derived counter/histogram series, and exporter
// round-trips.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace flowdiff::obs {
namespace {

class TimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    Sampler::global().clear();
    FlightRecorder::global().clear();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::global().reset();
    Sampler::global().clear();
    FlightRecorder::global().clear();
  }
};

TEST_F(TimeseriesTest, SeriesKeepsEveryPointBelowCapacity) {
  Series series(16);
  for (int i = 0; i < 10; ++i) {
    series.append(static_cast<double>(i), static_cast<double>(i * i));
  }
  const auto points = series.points();
  ASSERT_EQ(points.size(), 10u);
  EXPECT_EQ(series.stride(), 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(points[static_cast<std::size_t>(i)].t_begin,
                     static_cast<double>(i));
    EXPECT_DOUBLE_EQ(points[static_cast<std::size_t>(i)].mean,
                     static_cast<double>(i * i));
    EXPECT_EQ(points[static_cast<std::size_t>(i)].count, 1u);
  }
}

TEST_F(TimeseriesTest, CompactionPreservesEndpointsAndOrder) {
  // Small capacity, many appends: multiple compaction generations.
  Series series(8);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    series.append(static_cast<double>(i), std::sin(i * 0.1));
  }
  const auto points = series.points();
  ASSERT_FALSE(points.empty());
  EXPECT_LE(points.size(), 8u);
  EXPECT_GT(series.stride(), 1u);
  EXPECT_EQ(series.total(), static_cast<std::uint64_t>(n));

  // First point starts at the first appended timestamp; last point ends at
  // the most recent one.
  EXPECT_DOUBLE_EQ(points.front().t_begin, 0.0);
  EXPECT_DOUBLE_EQ(points.back().t_end, static_cast<double>(n - 1));

  // Timestamps stay strictly monotone and buckets never overlap.
  std::uint64_t mass = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_LE(points[i].t_begin, points[i].t_end);
    if (i > 0) {
      EXPECT_GT(points[i].t_begin, points[i - 1].t_begin);
      EXPECT_GE(points[i].t_begin, points[i - 1].t_end);
    }
    EXPECT_GE(points[i].max, points[i].min);
    EXPECT_GE(points[i].mean, points[i].min);
    EXPECT_LE(points[i].mean, points[i].max);
    mass += points[i].count;
  }
  // No sample is lost to compaction: bucket counts sum to the appends.
  EXPECT_EQ(mass, static_cast<std::uint64_t>(n));
}

TEST_F(TimeseriesTest, CompactionKeepsGlobalMinMax) {
  Series series(4);
  for (int i = 0; i < 257; ++i) {
    series.append(static_cast<double>(i), 10.0);
  }
  series.append(257.0, -5.0);  // Global min.
  series.append(258.0, 99.0);  // Global max.
  for (int i = 259; i < 400; ++i) {
    series.append(static_cast<double>(i), 10.0);
  }
  double lo = 1e300;
  double hi = -1e300;
  for (const auto& p : series.points()) {
    lo = std::min(lo, p.min);
    hi = std::max(hi, p.max);
  }
  EXPECT_DOUBLE_EQ(lo, -5.0);
  EXPECT_DOUBLE_EQ(hi, 99.0);
}

TEST_F(TimeseriesTest, SamplerBuildsCounterValueAndRateSeries) {
  Counter& c = Registry::global().counter("ts.requests");
  Sampler sampler;
  c.inc(10);
  sampler.sample(1.0);
  c.inc(30);
  sampler.sample(2.0);
  c.inc(20);
  sampler.sample(4.0);

  const auto value = sampler.find("ts.requests");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->total(), 3u);
  EXPECT_DOUBLE_EQ(value->last().mean, 60.0);

  // Rate series starts at the second sample: (40-10)/1s, then (60-40)/2s.
  const auto rate = sampler.find("ts.requests.rate");
  ASSERT_TRUE(rate.has_value());
  const auto points = rate->points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].mean, 30.0);
  EXPECT_DOUBLE_EQ(points[1].mean, 10.0);
}

TEST_F(TimeseriesTest, SamplerDerivesHistogramStats) {
  LatencyHistogram& h = Registry::global().histogram("ts.lat_ms", 10.0);
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  h.observe(500.0);
  Sampler sampler;
  sampler.sample(1.0);

  const auto count = sampler.find("ts.lat_ms.count");
  ASSERT_TRUE(count.has_value());
  EXPECT_DOUBLE_EQ(count->last().mean, 101.0);
  const auto mean = sampler.find("ts.lat_ms.mean");
  ASSERT_TRUE(mean.has_value());
  EXPECT_GT(mean->last().mean, 5.0);
  const auto p50 = sampler.find("ts.lat_ms.p50");
  const auto p99 = sampler.find("ts.lat_ms.p99");
  ASSERT_TRUE(p50.has_value());
  ASSERT_TRUE(p99.has_value());
  EXPECT_LE(p50->last().mean, p99->last().mean);
}

TEST_F(TimeseriesTest, IdleHistogramWindowAppendsNoDerivedGarbage) {
  // A registered-but-idle histogram must not fabricate .mean/.p50/.p99
  // rows: a zero-count snapshot has no such statistics, and the 0.0
  // placeholders would drag the derived series toward zero on every idle
  // window.
  Registry::global().histogram("ts.idle_ms", 10.0);
  Sampler sampler;
  sampler.sample(1.0);
  sampler.sample(2.0);

  const auto count = sampler.find("ts.idle_ms.count");
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(count->total(), 2u);
  EXPECT_DOUBLE_EQ(count->last().mean, 0.0);
  EXPECT_FALSE(sampler.find("ts.idle_ms.mean").has_value());
  EXPECT_FALSE(sampler.find("ts.idle_ms.p50").has_value());
  EXPECT_FALSE(sampler.find("ts.idle_ms.p99").has_value());

  // Traffic arrives: derived series start at the first real observation,
  // with no zero backfill from the idle samples.
  Registry::global().histogram("ts.idle_ms", 10.0).observe(42.0);
  sampler.sample(3.0);
  const auto mean = sampler.find("ts.idle_ms.mean");
  ASSERT_TRUE(mean.has_value());
  EXPECT_EQ(mean->total(), 1u);
  EXPECT_DOUBLE_EQ(mean->last().mean, 42.0);

  // Nothing unparseable reaches the exporters.
  const std::string csv = render_series_csv(sampler);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  ASSERT_TRUE(parse_series_csv(csv).has_value());
}

TEST_F(TimeseriesTest, SeriesCsvParseInverseRoundTrips) {
  Registry::global().counter("ts.rtc.events").inc(7);
  LatencyHistogram& h = Registry::global().histogram("ts.rtc_ms", 5.0);
  h.observe(3.0);
  h.observe(12.5);
  Registry::global().gauge("ts.rtc.depth").set(-4);
  Sampler sampler;
  sampler.sample(1.0);
  Registry::global().counter("ts.rtc.events").inc(5);
  sampler.sample(2.5);

  const std::string csv = render_series_csv(sampler);
  const auto parsed = parse_series_csv(csv);
  ASSERT_TRUE(parsed.has_value());

  const auto original = sampler.series();
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*parsed)[i].first, original[i].first);
    const auto expected = original[i].second.points();
    const auto& got = (*parsed)[i].second;
    ASSERT_EQ(got.size(), expected.size()) << original[i].first;
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(got[j], expected[j]) << original[i].first;
    }
  }
}

TEST_F(TimeseriesTest, SeriesCsvParserRejectsGarbage) {
  EXPECT_FALSE(parse_series_csv("").has_value());
  EXPECT_FALSE(parse_series_csv("bogus header\n").has_value());
  EXPECT_FALSE(
      parse_series_csv("series,t_begin,t_end,mean,min,max,count\na,1,2\n")
          .has_value());
  EXPECT_FALSE(
      parse_series_csv(
          "series,t_begin,t_end,mean,min,max,count\na,1,2,x,4,5,6\n")
          .has_value());
}

TEST_F(TimeseriesTest, SamplerRespectsMinInterval) {
  Registry::global().gauge("ts.g").set(7);
  SamplerConfig config;
  config.min_interval = 1.0;
  Sampler sampler(config);
  sampler.sample(0.0);
  sampler.sample(0.5);  // Too close: dropped.
  sampler.sample(1.5);
  EXPECT_EQ(sampler.samples_taken(), 2u);
}

TEST_F(TimeseriesTest, SamplerIsNoOpWhileDisabled) {
  Registry::global().gauge("ts.off").set(1);
  Sampler sampler;
  set_enabled(false);
  sampler.sample(1.0);
  set_enabled(true);
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_TRUE(sampler.names().empty());
}

TEST_F(TimeseriesTest, SeriesJsonRoundTrips) {
  Registry::global().counter("ts.rt.count").inc(3);
  Registry::global().gauge("ts.rt.gauge").set(-2);
  Sampler sampler;
  sampler.sample(1.0);
  sampler.sample(2.0);

  const std::string json = render_series_json(sampler);
  const auto parsed = parse_series_json(json);
  ASSERT_TRUE(parsed.has_value());

  const auto original = sampler.series();
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*parsed)[i].first, original[i].first);
    const auto expected = original[i].second.points();
    const auto& got = (*parsed)[i].second;
    ASSERT_EQ(got.size(), expected.size()) << original[i].first;
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(got[j], expected[j]) << original[i].first;
    }
  }
}

TEST_F(TimeseriesTest, SeriesJsonParserRejectsGarbage) {
  EXPECT_FALSE(parse_series_json("").has_value());
  EXPECT_FALSE(parse_series_json("{\"series\": [").has_value());
  EXPECT_FALSE(parse_series_json("{\"nope\": {}}").has_value());
}

TEST_F(TimeseriesTest, SeriesCsvHasHeaderAndRows) {
  Registry::global().gauge("ts.csv").set(4);
  Sampler sampler;
  sampler.sample(1.0);
  const std::string csv = render_series_csv(sampler);
  EXPECT_EQ(csv.rfind("series,t_begin,t_end,mean,min,max,count\n", 0), 0u);
  EXPECT_NE(csv.find("\nts.csv,"), std::string::npos);
}

}  // namespace
}  // namespace flowdiff::obs
