// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "html/text_index.h"

#include <gtest/gtest.h>

#include <string>

#include "html/tree_builder.h"

namespace webrbd {
namespace {

TEST(TextIndexTest, MapsTextOffsetsToDocumentOffsets) {
  const std::string doc = "<td>abc<b>DEF</b>ghi</td>";
  TagTree tree = BuildTagTree(doc).value();
  const TagNode& td = *tree.root().children[0];
  TextIndex index(tree, td);
  // td is block-level: its own boundary byte leads the text.
  EXPECT_EQ(index.text(), "\nabcDEFghi");
  // "abc" starts at text offset 1 -> document offset 4.
  EXPECT_EQ(index.ToDocumentOffset(1), 4u);
  EXPECT_EQ(index.ToDocumentOffset(3), 6u);
  // "DEF" starts at text offset 4 -> document offset 10 (inside <b>).
  EXPECT_EQ(index.ToDocumentOffset(4), 10u);
  // "ghi" at text offset 7 -> document offset 17 (after </b>).
  EXPECT_EQ(index.ToDocumentOffset(7), 17u);
  EXPECT_EQ(doc.substr(index.ToDocumentOffset(4), 3), "DEF");
  EXPECT_EQ(doc.substr(index.ToDocumentOffset(7), 3), "ghi");
}

TEST(TextIndexTest, SeparatorPositionsMatchDocument) {
  const std::string doc = "<td><hr>one<hr>two<hr></td>";
  TagTree tree = BuildTagTree(doc).value();
  TextIndex index(tree, *tree.root().children[0]);
  auto positions = index.SeparatorPositions("hr");
  ASSERT_EQ(positions.size(), 3u);
  for (size_t position : positions) {
    EXPECT_EQ(doc.substr(position, 4), "<hr>");
  }
  EXPECT_TRUE(index.SeparatorPositions("p").empty());
}

TEST(TextIndexTest, EmptyRegion) {
  TagTree tree = BuildTagTree("<td></td>").value();
  TextIndex index(tree, *tree.root().children[0]);
  EXPECT_EQ(index.text(), "\n");  // just the td boundary byte
}

}  // namespace
}  // namespace webrbd
