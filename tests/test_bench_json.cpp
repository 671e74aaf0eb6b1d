// The bench document writer and gate every BENCH_*.json goes through
// (bench/json_out.h): a record set passes its own baseline; a change in any
// exact field, or a missing or extra record, fails and names the record; a
// measured field is not compared; the ratio rule holds at exactly factor x
// baseline and fails just above; an unreadable baseline fails.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "json_out.h"

namespace lbc::bench {
namespace {

/// Three records with exact (modeled) fields beside a measured one, and
/// one exact and one measured total.
Document sample() {
  Document doc{"sample", "modeled-cycles", "Refresh: by hand", {}, {}};
  for (int i = 0; i < 3; ++i)
    doc.records.push_back({quoted("layer", "conv" + std::to_string(i + 1)),
                           integer("bits", 2 + i),
                           fixed("cycles", 1000.25 * (i + 1), 1),
                           boolean("bitexact", true),
                           fixed("wall_us", 12.5 * (i + 1), 2, false)});
  doc.totals = {fixed("total_cycles", 6001.5, 1),
                fixed("norm_total", 2.0, 4, false)};
  return doc;
}

/// `text` with one character changed: true/false swap, else the last
/// digit or letter.
std::string changed(std::string text) {
  if (text == "true") return "false";
  const size_t i = text.find_last_of("0123456789abcdefghijklmnopqrstuvwxyz");
  text[i] = text[i] == '1' ? '2' : '1';
  return text;
}

class BenchGate : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "bench_gate_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    ASSERT_TRUE(write_document(path_, sample()));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Gates `run` against the sample baseline, keeping what it printed.
  bool gate(const Document& run, std::span<const RatioRule> ratios = {}) {
    ::testing::internal::CaptureStderr();
    const bool ok = gate_document(run, path_, ratios, "refresh-command");
    log_ = ::testing::internal::GetCapturedStderr();
    return ok;
  }
  bool printed(const std::string& text) const {
    return log_.find(text) != std::string::npos;
  }

  std::string path_;
  std::string log_;
};

TEST_F(BenchGate, RoundTripPassesItsOwnBaseline) {
  const std::optional<Document> back = read_document(path_);
  ASSERT_TRUE(back.has_value());
  const Document want = sample();
  ASSERT_EQ(back->records.size(), want.records.size());
  for (size_t i = 0; i < want.records.size(); ++i)
    EXPECT_EQ(object_text(back->records[i]), object_text(want.records[i]));
  EXPECT_EQ(object_text(back->totals), object_text(want.totals));
  EXPECT_TRUE(gate(want)) << log_;
}

TEST_F(BenchGate, AnyExactFieldChangeFailsAndNamesTheRecord) {
  const Document base = sample();
  for (size_t r = 0; r < base.records.size(); ++r) {
    for (size_t f = 0; f < base.records[r].size(); ++f) {
      if (!base.records[r][f].exact) continue;
      Document run = sample();
      run.records[r][f].text = changed(run.records[r][f].text);
      EXPECT_FALSE(gate(run)) << "record " << r << " field " << f;
      EXPECT_TRUE(printed("record " + std::to_string(r) + " differs"));
      EXPECT_TRUE(printed(object_text(base.records[r])));
      EXPECT_TRUE(printed(object_text(run.records[r])));
      EXPECT_TRUE(printed("refresh-command"));
    }
  }
  Document run = sample();
  run.totals[0].text = changed(run.totals[0].text);
  EXPECT_FALSE(gate(run));
  EXPECT_TRUE(printed(object_text(run.totals)));
}

TEST_F(BenchGate, MissingOrExtraRecordFails) {
  Document missing = sample();
  missing.records.pop_back();
  EXPECT_FALSE(gate(missing));
  EXPECT_TRUE(printed(object_text(sample().records.back())));

  Document extra = sample();
  extra.records.push_back(extra.records.front());
  EXPECT_FALSE(gate(extra));
  EXPECT_TRUE(printed("record 3 differs"));
}

TEST_F(BenchGate, MeasuredFieldChangePasses) {
  Document run = sample();
  run.records[1][4] = fixed("wall_us", 99.75, 2, false);
  run.totals[1] = fixed("norm_total", 7.0, 4, false);
  EXPECT_TRUE(gate(run)) << log_;
}

TEST_F(BenchGate, RatioRuleHoldsAtTheFactorAndFailsJustAbove) {
  const RatioRule rule[] = {{"norm_total", 1.25}};
  Document run = sample();
  run.totals[1] = fixed("norm_total", 2.0 * 1.25, 4, false);
  EXPECT_TRUE(gate(run, rule)) << log_;
  run.totals[1] = fixed("norm_total", 2.5001, 4, false);
  EXPECT_FALSE(gate(run, rule));
  EXPECT_TRUE(printed("norm_total 2.5001 vs baseline 2.0000"));
}

TEST_F(BenchGate, UnreadableBaselineFails) {
  std::remove(path_.c_str());
  EXPECT_FALSE(gate(sample()));
  EXPECT_TRUE(printed("cannot read"));

  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\n  \"bench\": \"sample\",\n  \"records\": [\n    {\"layer\"", f);
  std::fclose(f);
  EXPECT_FALSE(read_document(path_).has_value());
  EXPECT_FALSE(gate(sample()));
}

}  // namespace
}  // namespace lbc::bench
