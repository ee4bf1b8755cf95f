// aal5_test.cpp — the Xunet AAL5 variant: segmentation, reassembly, and the
// two guarantees of §5.4 (cell loss within a frame, out-of-order frames).
#include <gtest/gtest.h>

#include <algorithm>

#include "atm/aal5.hpp"
#include "util/rng.hpp"

namespace xunet::atm {
namespace {

struct Collector {
  std::vector<Aal5Frame> frames;
  std::vector<std::pair<Vci, Aal5Error>> errors;
  Aal5Reassembler reasm{[this](Aal5Frame f) { frames.push_back(std::move(f)); },
                        [this](Vci v, Aal5Error e) { errors.emplace_back(v, e); }};
};

util::Buffer make_payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  util::Buffer b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(Aal5, CellsForPayloadMath) {
  EXPECT_EQ(cells_for_payload(0), 1u);   // trailer alone needs one cell
  EXPECT_EQ(cells_for_payload(40), 1u);  // 40 + 8 == 48
  EXPECT_EQ(cells_for_payload(41), 2u);
  EXPECT_EQ(cells_for_payload(88), 2u);  // 88 + 8 == 96
  EXPECT_EQ(cells_for_payload(89), 3u);
}

TEST(Aal5, SegmentSetsEndOfFrameOnLastCellOnly) {
  Aal5Segmenter seg;
  auto cells = seg.segment(100, make_payload(200, 1));
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), cells_for_payload(200));
  for (std::size_t i = 0; i < cells->size(); ++i) {
    EXPECT_EQ((*cells)[i].end_of_frame, i + 1 == cells->size());
    EXPECT_EQ((*cells)[i].vci, 100);
  }
}

TEST(Aal5, RejectsOversizeAndInvalidVci) {
  Aal5Segmenter seg;
  EXPECT_EQ(seg.segment(100, util::Buffer(kMaxFramePayload + 1, 0)).error(),
            util::Errc::message_too_long);
  EXPECT_EQ(seg.segment(kInvalidVci, make_payload(10, 2)).error(),
            util::Errc::invalid_argument);
}

class Aal5RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Aal5RoundTrip, PayloadSurvivesSegmentationAndReassembly) {
  const std::size_t n = GetParam();
  Aal5Segmenter seg;
  Collector c;
  util::Buffer payload = make_payload(n, n + 17);
  auto cells = seg.segment(7, payload);
  ASSERT_TRUE(cells.ok());
  for (const Cell& cell : *cells) c.reasm.cell_arrival(cell);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(c.frames[0].payload, payload);
  EXPECT_EQ(c.frames[0].vci, 7);
  EXPECT_TRUE(c.errors.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, Aal5RoundTrip,
                         ::testing::Values(0, 1, 39, 40, 41, 47, 48, 49, 96,
                                           1000, 4096, 65535));

TEST(Aal5, SequenceNumbersIncrementPerVc) {
  Aal5Segmenter seg;
  Collector c;
  for (int i = 0; i < 5; ++i) {
    auto cells = seg.segment(9, make_payload(10, i));
    ASSERT_TRUE(cells.ok());
    for (const Cell& cell : *cells) c.reasm.cell_arrival(cell);
  }
  ASSERT_EQ(c.frames.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(c.frames[static_cast<std::size_t>(i)].seq, i);
  }
}

TEST(Aal5, PerVcSequencesAreIndependent) {
  Aal5Segmenter seg;
  (void)seg.segment(1, make_payload(10, 1));
  (void)seg.segment(1, make_payload(10, 2));
  (void)seg.segment(2, make_payload(10, 3));
  EXPECT_EQ(seg.next_seq(1), 2);
  EXPECT_EQ(seg.next_seq(2), 1);
  EXPECT_EQ(seg.next_seq(3), 0);
  seg.release(1);
  EXPECT_EQ(seg.next_seq(1), 0);
}

TEST(Aal5, LostMiddleCellDetected) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(200, 4));
  ASSERT_TRUE(cells.ok());
  ASSERT_GE(cells->size(), 3u);
  for (std::size_t i = 0; i < cells->size(); ++i) {
    if (i == 1) continue;  // drop one mid-frame cell
    c.reasm.cell_arrival((*cells)[i]);
  }
  EXPECT_TRUE(c.frames.empty());
  ASSERT_EQ(c.errors.size(), 1u);
  // A missing cell shrinks the PDU: caught by the CRC or length check.
  EXPECT_TRUE(c.errors[0].second == Aal5Error::crc_mismatch ||
              c.errors[0].second == Aal5Error::length_mismatch);
}

TEST(Aal5, LostLastCellMergesFramesAndIsDetected) {
  Aal5Segmenter seg;
  Collector c;
  auto f1 = seg.segment(5, make_payload(100, 5));
  auto f2 = seg.segment(5, make_payload(100, 6));
  ASSERT_TRUE(f1.ok() && f2.ok());
  // Drop the end-of-frame cell of frame 1: its cells merge into frame 2.
  for (std::size_t i = 0; i + 1 < f1->size(); ++i) c.reasm.cell_arrival((*f1)[i]);
  for (const Cell& cell : *f2) c.reasm.cell_arrival(cell);
  EXPECT_TRUE(c.frames.empty());
  EXPECT_GE(c.errors.size(), 1u);
}

TEST(Aal5, CorruptedCellFailsCrc) {
  // A 99-byte payload fills 3 cells (144-byte PDU) and is not a multiple of
  // 8, so the CRC's byte-at-a-time tail is exercised.  Flip one bit at every
  // byte position of the PDU: payload, pad, and the UU, CPI, length and CRC
  // trailer fields.
  constexpr std::size_t kPayload = 99;
  ASSERT_EQ(cells_for_payload(kPayload), 3u);
  Aal5Segmenter seg;
  auto clean = seg.segment(5, make_payload(kPayload, 7));
  ASSERT_TRUE(clean.ok());
  for (std::size_t pos = 0; pos < 3 * kCellPayload; ++pos) {
    SCOPED_TRACE(testing::Message() << "byte " << pos);
    std::vector<Cell> cells = *clean;
    cells[pos / kCellPayload].payload[pos % kCellPayload] ^=
        static_cast<std::uint8_t>(1u << (pos % 8));
    Collector c;
    for (const Cell& cell : cells) c.reasm.cell_arrival(cell);
    EXPECT_TRUE(c.frames.empty());
    ASSERT_EQ(c.errors.size(), 1u);
    EXPECT_EQ(c.errors[0].second, Aal5Error::crc_mismatch);
  }
}

TEST(Aal5, OutOfOrderFramesDetectedViaUu) {
  Aal5Segmenter seg;
  Collector c;
  auto f0 = seg.segment(5, make_payload(20, 8));
  auto f1 = seg.segment(5, make_payload(20, 9));
  auto f2 = seg.segment(5, make_payload(20, 10));
  ASSERT_TRUE(f0.ok() && f1.ok() && f2.ok());
  // Deliver 0, then 2 (frame 1 lost in the network): seq gap detected.
  for (const Cell& cell : *f0) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *f2) c.reasm.cell_arrival(cell);
  ASSERT_EQ(c.frames.size(), 1u);
  ASSERT_EQ(c.errors.size(), 1u);
  EXPECT_EQ(c.errors[0].second, Aal5Error::out_of_order);
}

TEST(Aal5, ResynchronizesAfterSequenceGap) {
  Aal5Segmenter seg;
  Collector c;
  std::vector<util::Result<std::vector<Cell>>> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(seg.segment(5, make_payload(20, i)));
  // Deliver 0, skip 1, deliver 2 (error), deliver 3 (accepted again).
  for (const Cell& cell : *frames[0]) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *frames[2]) c.reasm.cell_arrival(cell);
  for (const Cell& cell : *frames[3]) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.frames.size(), 2u);  // frames 0 and 3
  EXPECT_EQ(c.errors.size(), 1u);
}

/// Interleaved reassembly over `GetParam()` VCIs spread over 1–65534.  Every
/// VC holds a partial frame while later VCs are first inserted into the
/// per-VC table, and one VC is released mid-frame.
class Aal5Interleaved : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(VcCounts, Aal5Interleaved, ::testing::Values(2u, 200u));

TEST_P(Aal5Interleaved, VcsReassembleIndependently) {
  const std::size_t n = GetParam();
  std::vector<Vci> vcis{1, 65534};
  util::Rng rng(n);
  while (vcis.size() < n) {
    const auto v = static_cast<Vci>(1 + rng.below(65534));
    if (std::find(vcis.begin(), vcis.end(), v) == vcis.end()) vcis.push_back(v);
  }
  const std::size_t victim = n / 2;
  Aal5Segmenter seg;
  Collector c;
  // Two rounds of one frame per VC, cells interleaved round-robin.  In the
  // first round the victim's VC is torn down halfway through its frame and
  // its remaining cells never arrive; in the second it starts afresh.
  std::vector<std::vector<util::Buffer>> sent(2);
  for (std::size_t round = 0; round < 2; ++round) {
    std::vector<std::vector<Cell>> cells;
    for (std::size_t i = 0; i < n; ++i) {
      sent[round].push_back(make_payload(100 + 37 * ((i + round) % 11), 1000 * round + i));
      auto r = seg.segment(vcis[i], sent[round].back());
      ASSERT_TRUE(r.ok());
      ASSERT_GE(r->size(), 3u);
      cells.push_back(std::move(*r));
    }
    for (std::size_t k = 0;; ++k) {
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (round == 0 && i == victim && k == cells[i].size() / 2) {
          seg.release(vcis[i]);
          c.reasm.release(vcis[i]);
          cells[i].clear();
        }
        if (k < cells[i].size()) {
          c.reasm.cell_arrival(cells[i][k]);
          any = true;
        }
      }
      if (!any) break;
    }
  }
  EXPECT_TRUE(c.errors.empty());
  ASSERT_EQ(c.frames.size(), 2 * n - 1);
  // Frames complete in the order their last cells arrive, so look each VC
  // up by VCI within its round.
  const auto round_end = c.frames.begin() + static_cast<long>(n - 1);
  for (std::size_t round = 0; round < 2; ++round) {
    const auto first = round == 0 ? c.frames.begin() : round_end;
    const auto last = round == 0 ? round_end : c.frames.end();
    for (std::size_t i = 0; i < n; ++i) {
      if (round == 0 && i == victim) continue;
      const auto it = std::find_if(first, last, [&](const Aal5Frame& fr) {
        return fr.vci == vcis[i];
      });
      ASSERT_NE(it, last) << "round " << round << " vci " << vcis[i];
      EXPECT_EQ(it->payload, sent[round][i]) << "round " << round << " vci " << vcis[i];
      EXPECT_EQ(it->seq, (round == 1 && i != victim) ? 1 : 0);
    }
  }
}

TEST(Aal5, ReleaseDiscardsPartialFrame) {
  Aal5Segmenter seg;
  Collector c;
  auto cells = seg.segment(5, make_payload(200, 30));
  ASSERT_TRUE(cells.ok());
  c.reasm.cell_arrival((*cells)[0]);  // partial
  c.reasm.release(5);
  // A fresh frame on the same VCI reassembles cleanly (seq state also gone).
  Aal5Segmenter seg2;
  auto fresh = seg2.segment(5, make_payload(30, 31));
  for (const Cell& cell : *fresh) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_TRUE(c.errors.empty());
}

TEST(Aal5, ErrorAndFrameCountersTrack) {
  Aal5Segmenter seg;
  Collector c;
  auto good = seg.segment(5, make_payload(30, 40));
  for (const Cell& cell : *good) c.reasm.cell_arrival(cell);
  auto bad = seg.segment(5, make_payload(30, 41));
  (*bad)[0].payload[0] ^= 1;
  for (const Cell& cell : *bad) c.reasm.cell_arrival(cell);
  EXPECT_EQ(c.reasm.frame_count(), 1u);
  EXPECT_EQ(c.reasm.error_count(), 1u);
}

// Property sweep: random loss patterns never produce a corrupted delivered
// frame — loss is always *detected* (the §5.4 guarantee), never silent.
class Aal5LossSweep : public ::testing::TestWithParam<int> {};

TEST_P(Aal5LossSweep, LossIsDetectedNeverSilent) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Aal5Segmenter seg;
  std::vector<util::Buffer> sent;
  Collector c;
  for (int f = 0; f < 50; ++f) {
    util::Buffer p = make_payload(1 + rng.below(500), rng.next());
    sent.push_back(p);
    auto cells = seg.segment(3, p);
    ASSERT_TRUE(cells.ok());
    for (const Cell& cell : *cells) {
      if (rng.chance(0.02)) continue;  // 2% cell loss
      c.reasm.cell_arrival(cell);
    }
  }
  // Every delivered frame must byte-match what was sent with that seq.
  for (const auto& f : c.frames) {
    ASSERT_LT(f.seq, sent.size());
    EXPECT_EQ(f.payload, sent[f.seq]) << "silent corruption at seq "
                                      << int(f.seq);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Aal5LossSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace xunet::atm
