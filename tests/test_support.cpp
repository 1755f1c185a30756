#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/diagnostics.hpp"
#include "support/memprobe.hpp"

namespace slimsim {
namespace {

TEST(Diagnostics, SourceLocFormatting) {
    EXPECT_EQ((SourceLoc{"f.slim", 3, 7}).to_string(), "f.slim:3:7");
    EXPECT_EQ((SourceLoc{"", 3, 7}).to_string(), "<input>:3:7");
    EXPECT_EQ((SourceLoc{"f.slim", 0, 0}).to_string(), "f.slim");
    EXPECT_EQ((SourceLoc{}).to_string(), "<unknown>");
    EXPECT_FALSE(SourceLoc{}.known());
    EXPECT_TRUE((SourceLoc{"x", 1, 1}).known());
}

TEST(Diagnostics, ErrorCarriesLocation) {
    const Error plain("boom");
    EXPECT_STREQ(plain.what(), "boom");
    const Error located(SourceLoc{"m.slim", 2, 4}, "bad token");
    EXPECT_NE(std::string(located.what()).find("m.slim:2:4"), std::string::npos);
    EXPECT_EQ(located.where().line, 2u);
}

TEST(Diagnostics, SinkCollectsAndThrows) {
    DiagnosticSink sink;
    sink.note({}, "fyi");
    sink.warning({}, "hmm");
    EXPECT_FALSE(sink.has_errors());
    EXPECT_NO_THROW(sink.throw_if_errors("phase"));
    sink.error({}, "first");
    sink.error({"f", 1, 1}, "second");
    EXPECT_EQ(sink.error_count(), 2u);
    EXPECT_EQ(sink.all().size(), 4u);
    try {
        sink.throw_if_errors("testing");
        FAIL();
    } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("testing failed with 2 error(s)"), std::string::npos);
        EXPECT_NE(msg.find("first"), std::string::npos);
        EXPECT_NE(msg.find("second"), std::string::npos);
    }
}

TEST(Diagnostics, SeverityToString) {
    EXPECT_EQ(to_string(Severity::Note), "note");
    EXPECT_EQ(to_string(Severity::Warning), "warning");
    EXPECT_EQ(to_string(Severity::Error), "error");
    const Diagnostic d{Severity::Warning, {"f", 1, 2}, "msg"};
    EXPECT_EQ(d.to_string(), "f:1:2: warning: msg");
}

TEST(MemProbe, ReportsPlausibleValues) {
    const std::size_t current = current_rss_bytes();
    const std::size_t peak = peak_rss_bytes();
    EXPECT_GT(current, 1u << 20); // more than 1 MiB resident
    EXPECT_GE(peak, current / 2); // peak cannot be far below current
    EXPECT_NEAR(bytes_to_mib(1024 * 1024), 1.0, 1e-12);
}

TEST(MemProbe, GrowsWithAllocation) {
    const std::size_t before = current_rss_bytes();
    std::vector<char> hog(64u << 20, 1); // 64 MiB, touched
    const std::size_t after = current_rss_bytes();
    EXPECT_GT(after, before + (32u << 20));
}

} // namespace
} // namespace slimsim
