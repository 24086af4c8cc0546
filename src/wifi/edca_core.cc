#include "wifi/edca_core.h"

#include <algorithm>
#include <cassert>

namespace kwikr::wifi {

EdcaCore::EdcaCore(sim::Duration slot) : slot_(slot), slot_div_(slot) {}

ContenderId EdcaCore::Add(sim::Duration aifs, int cw_min, int cw_max) {
  base_.push_back(0);
  backoff_.push_back(-1);
  cw_.push_back(cw_min);
  counting_.push_back(0);
  aifs_.push_back(aifs);
  cw_min_.push_back(cw_min);
  cw_max_.push_back(cw_max);
  in_backlog_.push_back(0);
  stamp_.push_back(0);
  cand_.push_back(0);
  return static_cast<ContenderId>(backoff_.size() - 1);
}

void EdcaCore::Join(ContenderId id, sim::Time now, bool medium_idle) {
  assert(id < size());
  ++stamp_[id];
  in_backlog_[id] = 1;
  ++live_;
  backlogged_.push_back(BacklogEntry{id, stamp_[id]});
  backoff_[id] = -1;  // fresh draw at the next sweep.
  cw_[id] = cw_min_[id];
  if (medium_idle) {
    base_[id] = now + aifs_[id];
    counting_[id] = 1;
  } else {
    counting_[id] = 0;  // countdown starts at the next idle transition.
  }
}

void EdcaCore::Leave(ContenderId id) {
  assert(in_backlog_[id] != 0);
  in_backlog_[id] = 0;
  --live_;
  counting_[id] = 0;
}

sim::Time EdcaCore::BeginIdle(sim::Time now, sim::Rng& rng) {
  // Scalar pass: restart every backlogged countdown and draw missing
  // backoffs in backlog order (the draw order is contractual — see the
  // class comment).
  const std::size_t n = CompactBacklog([&](ContenderId id) {
    base_[id] = now + aifs_[id];
    counting_[id] = 1;
    DrawIfNeeded(id, rng);
  });
  // Batched candidate computation + min-scan: every live contender is
  // counting here, so no mask is needed.
  sim::Time earliest = kNoCandidate;
  for (std::size_t i = 0; i < n; ++i) {
    const ContenderId id = backlogged_[i].id;
    const sim::Time cand =
        base_[id] + static_cast<sim::Duration>(backoff_[id]) * slot_;
    earliest = cand < earliest ? cand : earliest;
  }
  return earliest;
}

sim::Time EdcaCore::EarliestCandidate(sim::Rng& rng) {
  const std::size_t n = CompactBacklog([&](ContenderId id) {
    if (counting_[id] != 0) DrawIfNeeded(id, rng);
  });
  // Batched candidate + min-scan, masking out non-counting contenders with
  // a conditional move (their base/backoff may be stale but are always
  // initialized, so the dead lane's arithmetic is well-defined).
  sim::Time earliest = kNoCandidate;
  for (std::size_t i = 0; i < n; ++i) {
    const ContenderId id = backlogged_[i].id;
    sim::Time cand =
        base_[id] + static_cast<sim::Duration>(backoff_[id]) * slot_;
    cand = counting_[id] != 0 ? cand : kNoCandidate;
    earliest = cand < earliest ? cand : earliest;
  }
  return earliest;
}

void EdcaCore::Arbitrate(sim::Time start, std::vector<ContenderId>& winners) {
  // Pass 1 (scalar): compact, batch-compute candidate times into the cand_
  // column, and collect the winners in backlog order. Counting contenders
  // always have a drawn backoff here (the sweep that armed this arbitration
  // drew them).
  const std::size_t n = CompactBacklog([&](ContenderId id) {
    const sim::Time cand =
        base_[id] + static_cast<sim::Duration>(backoff_[id]) * slot_;
    cand_[id] = cand;
    if (counting_[id] != 0 && cand == start) winners.push_back(id);
  });
  // Pass 2 (branchless): freeze every counting non-winner — decrement its
  // backoff by the idle slots consumed before `start` and stop its
  // countdown; winners keep counting, non-counting lanes are untouched.
  // The slot division is a FastDiv multiply, exact by construction (an
  // out-of-window delta takes Divide()'s exact hardware-divide fallback).
  for (std::size_t i = 0; i < n; ++i) {
    const ContenderId id = backlogged_[i].id;
    const bool was_counting = counting_[id] != 0;
    const bool winner = cand_[id] == start;
    const sim::Duration delta = start - base_[id];
    const auto consumed = static_cast<std::int32_t>(
        delta > 0 ? slot_div_.Divide(delta) : 0);
    const std::int32_t frozen = std::max(0, backoff_[id] - consumed);
    backoff_[id] = (was_counting && !winner) ? frozen : backoff_[id];
    counting_[id] = static_cast<std::uint8_t>(was_counting && winner);
  }
}

void EdcaCore::OnTxSuccess(ContenderId id) {
  cw_[id] = cw_min_[id];
  backoff_[id] = -1;  // post-transmission backoff: fresh draw.
}

void EdcaCore::OnTxFailure(ContenderId id) {
  cw_[id] = std::min(cw_[id] * 2 + 1, cw_max_[id]);
  backoff_[id] = -1;  // fresh draw from the doubled window.
  counting_[id] = 0;  // resumes at the next idle transition.
}

void EdcaCore::OnRetryDrop(ContenderId id) {
  cw_[id] = cw_min_[id];
  backoff_[id] = -1;
}

}  // namespace kwikr::wifi
