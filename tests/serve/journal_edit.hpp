// Test helper: hand-build a journal by rewriting the records of one a
// service wrote, with fresh CRC frames, so restore sees a well-formed file
// whose payloads a live daemon would not (or no longer) write.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>

#include "serve/journal.hpp"

namespace lion::serve {

/// Pass every record of the journal at `path` through `edit` and write
/// the file back.
inline void edit_journal(const std::string& path,
                         const std::function<void(JournalRecord&)>& edit) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot open " << path;
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GE(bytes.size(), sizeof kJournalMagic);
  ASSERT_EQ(std::memcmp(bytes.data(), kJournalMagic, sizeof kJournalMagic), 0);
  JournalDecode decode = decode_journal_records(
      std::string_view(bytes).substr(sizeof kJournalMagic));
  ASSERT_FALSE(decode.torn) << path;
  std::string out(kJournalMagic, sizeof kJournalMagic);
  for (JournalRecord& record : decode.records) {
    edit(record);
    out += encode_journal_record(record);
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << out;
}

/// Rewrite every kCalAnchor to the bare `<samples>` payload that daemons
/// predating journaled memo bytes wrote. Returns the anchors rewritten.
inline std::size_t strip_anchor_reports(const std::string& path) {
  std::size_t anchors = 0;
  edit_journal(path, [&anchors](JournalRecord& record) {
    if (record.type != JournalRecordType::kCalAnchor) return;
    const std::size_t space = record.line.find(' ');
    if (space != std::string::npos) record.line.resize(space);
    ++anchors;
  });
  return anchors;
}

}  // namespace lion::serve
