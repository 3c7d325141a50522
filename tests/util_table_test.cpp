// Table/CSV emitter tests.
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace lumen::util {
namespace {

TEST(FormatNumber, IntegersPrintBare) {
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(0.0), "0");
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(1.25, 3), "1.25");
  EXPECT_EQ(format_number(0.1, 3), "0.1");
}

TEST(FormatNumber, ScientificForExtremes) {
  // Exact integers print bare up to 1e15; everything else goes scientific
  // outside [1e-4, 1e9).
  EXPECT_EQ(format_number(1e12).find('e'), std::string::npos);
  EXPECT_NE(format_number(1.5e15).find('e'), std::string::npos);
  EXPECT_NE(format_number(1234567890.5).find('e'), std::string::npos);
  EXPECT_NE(format_number(1e-7).find('e'), std::string::npos);
}

TEST(FormatNumber, NonFinite) {
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::size_t{1});
  t.row().cell("b").cell(123.456, 2);
  std::ostringstream os;
  t.print(os, "My Table");
  const std::string out = os.str();
  EXPECT_NE(out.find("My Table"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("123.46"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b,with,commas"});
  t.row().cell("plain").cell("quote\"inside");
  t.row().cell("multi\nline").cell("x");
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"b,with,commas\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(out.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, CellBeforeRowStartsARow) {
  Table t({"x"});
  t.cell("implicit");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\nimplicit\n");
}

}  // namespace
}  // namespace lumen::util
