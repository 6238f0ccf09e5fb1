// Differential test for the control-log text parser: of::parse_control_line
// (and parse_control_events, which loops it) against the field-by-field
// reference parser in reference_log_parser.h. On every input both must
// make the same accept/reject decision, and an accepted line must yield an
// equal event. Inputs: every line of every corpus capture, seeded
// mutations of those lines, and hand-picked numeric, dotted-quad and
// separator edge cases substituted into every field of one canonical line
// per record type.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "openflow/log_io.h"
#include "reference_log_parser.h"
#include "util/rng.h"

namespace flowdiff::of {
namespace {

namespace fs = std::filesystem;

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t skipped = 0;
};

/// Holds both production entry points to the reference on one line (no
/// '\n'). Returns false (after reporting) on the first disagreement.
bool same_as_reference(std::string_view line, Tally& tally) {
  const auto ref = testing::reference_parse_control_events(line);
  ControlEvent event;
  const LineParse got = parse_control_line(line, event);
  const auto batch = parse_control_events(line);
  const std::string shown = ::testing::PrintToString(std::string(line));
  if (batch.has_value() != ref.has_value()) {
    ADD_FAILURE() << "parse_control_events disagrees on " << shown;
    return false;
  }
  if (!ref) {
    ++tally.rejected;
    EXPECT_EQ(got, LineParse::kMalformed) << shown;
    return got == LineParse::kMalformed;
  }
  if (*batch != *ref) {
    ADD_FAILURE() << "parse_control_events yields other events for "
                  << shown;
    return false;
  }
  if (ref->empty()) {
    ++tally.skipped;
    EXPECT_EQ(got, LineParse::kSkip) << shown;
    return got == LineParse::kSkip;
  }
  ++tally.accepted;
  EXPECT_EQ(got, LineParse::kEvent) << shown;
  EXPECT_TRUE(event == ref->front()) << shown;
  return got == LineParse::kEvent && event == ref->front();
}

std::vector<std::string> corpus_logs() {
  std::vector<std::string> texts;
  for (const auto& entry : fs::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() != ".log") continue;
    auto text = read_file(entry.path().string());
    if (text) texts.push_back(std::move(*text));
  }
  return texts;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    lines.push_back(text.substr(0, eol));
    if (eol == std::string_view::npos) break;
    text.remove_prefix(eol + 1);
  }
  return lines;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t j = line.find(' ', i);
    fields.push_back(line.substr(i, j - i));
    if (j == std::string::npos) break;
    i = j + 1;
  }
  return fields;
}

std::string join_fields(const std::vector<std::string>& fields,
                        const std::string& separator) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line += separator;
    line += fields[i];
  }
  return line;
}

// One well-formed line per record type, with wildcard and concrete match
// fields both present.
const std::vector<std::string> kCanonical = {
    "PIN 1000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 42",
    "FMOD 1200 0 3 2 5000000 60000000 10.0.0.1 40000 10.0.0.2 80 6 1 "
    "10.0.0.1 40000 10.0.0.2 80 6 42",
    "POUT 1300 0 3 2 10.0.0.1 40000 10.0.0.2 80 6 42",
    "FREM 9000000 0 3 0 7000000 123456 99 10.0.0.1 - 10.0.0.2 - 6 - "
    "10.0.0.1 40000 10.0.0.2 80 6",
    "STAT 1000 0 3 5000000 123 45 - 40000 - 80 - 7 "
    "10.0.0.1 40000 10.0.0.2 80 6",
    "ECHO 10000000 1 3",
};

// Field values at and just past every integer type's range, sign and
// digit-grammar corner cases, and dotted-quad near misses.
const std::vector<std::string> kEdgeTokens = {
    "0",
    "65535",
    "65536",
    "4294967295",
    "4294967296",
    "2147483647",
    "2147483648",
    "-2147483648",
    "-2147483649",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-0",
    "+1",
    "+0",
    "--1",
    "-",
    "-5",
    "-a",
    "007",
    "00000000000000000000000000042",
    "1e3",
    "0x10",
    "12abc",
    "1-",
    "1.2.3.4",
    "1.2.3",
    "1.2.3.4.5",
    "256.0.0.1",
    "255.255.255.255",
    "1.2.3.256",
    "01.002.0003.00004",
    "1..2.3",
    ".1.2.3",
    "1.2.3.",
    "1.2.3.4x",
    "-1.2.3.4",
    "+1.2.3.4",
    "x",
    "#",
};

TEST(LogParseDifferential, EveryCorpusLineMatchesTheReference) {
  const auto texts = corpus_logs();
  ASSERT_GE(texts.size(), 7u) << "expected every corpus capture in "
                              << FLOWDIFF_CORPUS_DIR;
  Tally tally;
  for (const auto& text : texts) {
    for (const auto line : split_lines(text)) {
      ASSERT_TRUE(same_as_reference(line, tally));
    }
    // The whole capture in one call, as serve's corpus loader and
    // `flowdiff diff` parse it.
    const auto ref = testing::reference_parse_control_events(text);
    const auto got = parse_control_events(text);
    ASSERT_TRUE(ref.has_value());
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(*got == *ref);
  }
  EXPECT_GT(tally.accepted, 300000u);
  EXPECT_GT(tally.skipped, 0u);
}

TEST(LogParseDifferential, EdgeTokensInEveryFieldMatchTheReference) {
  Tally tally;
  for (const auto& line : kCanonical) {
    ASSERT_TRUE(same_as_reference(line, tally));
    const auto fields = split_fields(line);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      for (const auto& token : kEdgeTokens) {
        auto mutated = fields;
        mutated[i] = token;
        ASSERT_TRUE(same_as_reference(join_fields(mutated, " "), tally));
      }
      // The field dropped, and the line cut short before it.
      auto dropped = fields;
      dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
      ASSERT_TRUE(same_as_reference(join_fields(dropped, " "), tally));
      const std::vector<std::string> head(
          fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(i));
      ASSERT_TRUE(same_as_reference(join_fields(head, " "), tally));
    }
    // Every separator character, alone, doubled and mixed; leading and
    // trailing separators; trailing tokens.
    for (const std::string sep :
         {"\t", "\r", "\v", "\f", "  ", " \t\r", "\x01", "_"}) {
      ASSERT_TRUE(same_as_reference(join_fields(fields, sep), tally));
      ASSERT_TRUE(same_as_reference(sep + line, tally));
      ASSERT_TRUE(same_as_reference(line + sep, tally));
    }
    ASSERT_TRUE(same_as_reference(line + " extra", tally));
    ASSERT_TRUE(same_as_reference(line + " 1 2 3", tally));
    ASSERT_TRUE(same_as_reference(line + "x", tally));
  }
  const std::vector<std::string> odd_lines = {
      "", " ", "\t", "\r", "#", "# comment", " # not a comment", "#PIN",
      "PIN", "BOGUS 1 2 3", "pin 1000 0 3 1 10.0.0.1 1 10.0.0.2 2 6 0",
      std::string("PIN 1000 0 3 1 10.0.0.1 1 10.0.0.2 2 6 0") + '\0'};
  for (const auto& line : odd_lines) {
    ASSERT_TRUE(same_as_reference(line, tally));
  }
  EXPECT_GT(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 1000u);
}

TEST(LogParseDifferential, SeededMutationsMatchTheReference) {
  const auto texts = corpus_logs();
  ASSERT_FALSE(texts.empty());
  std::vector<std::string_view> lines;
  for (const auto& text : texts) {
    for (const auto line : split_lines(text)) lines.push_back(line);
  }
  // Bytes that sit on a grammar boundary: digits, signs, the dot, every
  // separator, the comment and wildcard markers, and a non-ASCII byte.
  const std::string alphabet = "0123456789-+. \t\r\v\f#xe\xff";
  Rng rng(20130708);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  Tally tally;
  for (int round = 0; round < 200000; ++round) {
    std::string line(lines[pick(lines.size())]);
    const int edits = 1 + static_cast<int>(pick(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = line.empty() ? 0 : pick(line.size());
      switch (pick(5)) {
        case 0:  // Overwrite one byte.
          if (!line.empty()) line[at] = alphabet[pick(alphabet.size())];
          break;
        case 1:  // Insert one byte.
          line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                      alphabet[pick(alphabet.size())]);
          break;
        case 2:  // Delete one byte.
          if (!line.empty()) {
            line.erase(line.begin() + static_cast<std::ptrdiff_t>(at));
          }
          break;
        case 3:  // Truncate.
          line.resize(at);
          break;
        default: {  // Replace one whole field with an edge token.
          auto fields = split_fields(line);
          if (fields.empty()) break;
          fields[pick(fields.size())] = kEdgeTokens[pick(kEdgeTokens.size())];
          line = join_fields(fields, " ");
          break;
        }
      }
    }
    ASSERT_TRUE(same_as_reference(line, tally));
  }
  EXPECT_GT(tally.accepted, 10000u);
  EXPECT_GT(tally.rejected, 10000u);
}

}  // namespace
}  // namespace flowdiff::of
