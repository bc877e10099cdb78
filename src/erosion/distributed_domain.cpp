#include "erosion/distributed_domain.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "support/require.hpp"

namespace ulba::erosion {

namespace {

// Message channels of the distributed domain (user tags — non-negative, and
// offset well clear of any ad-hoc tags application drivers might pick).
constexpr int kTagStep = 100;          ///< per-step delta/frontier exchange
constexpr int kTagGatherWeights = 101; ///< stripe → root weight gather
constexpr int kTagMigrateColumns = 102;
constexpr int kTagMigrateDisc = 103;
constexpr int kTagStepReduce = 104;    ///< neighbor mode: eroded/frontier → 0
constexpr int kTagGridCounts = 105;    ///< grid rebalance: refined-cell census

/// Overlap [max(a0,b0), min(a1,b1)) of two half-open column intervals.
std::pair<std::int64_t, std::int64_t> interval_overlap(std::int64_t a0,
                                                       std::int64_t a1,
                                                       std::int64_t b0,
                                                       std::int64_t b1) {
  return {std::max(a0, b0), std::min(a1, b1)};
}

/// Index of the band holding `v` in a sorted boundary vector (upper_bound
/// band lookup — the 2D twin of owner_of_column's stripe search).
int band_of(const std::vector<std::int64_t>& bounds, std::int64_t v) {
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
  return static_cast<int>(std::distance(bounds.begin(), it) - 1);
}

}  // namespace

ExchangeMode exchange_mode_from_name(const std::string& name) {
  if (name == "alltoall") return ExchangeMode::kAllToAll;
  if (name == "neighbor") return ExchangeMode::kNeighbor;
  throw std::invalid_argument("unknown exchange mode '" + name +
                              "' (accepted: alltoall, neighbor)");
}

std::string exchange_mode_name(ExchangeMode mode) {
  switch (mode) {
    case ExchangeMode::kAllToAll:
      return "alltoall";
    case ExchangeMode::kNeighbor:
      return "neighbor";
  }
  return "neighbor";
}

DistributedDomain::DistributedDomain(
    DomainConfig config, runtime::Comm& comm,
    std::shared_ptr<const lb::Partitioner> partitioner, ExchangeMode exchange)
    : config_(std::move(config)),
      comm_(&comm),
      partitioner_(std::move(partitioner)),
      exchange_(exchange) {
  ULBA_REQUIRE(partitioner_ != nullptr, "distribution needs a partitioner");
  config_.validate();
  init_stripes();
}

DistributedDomain::DistributedDomain(
    DomainConfig config, runtime::Comm& comm,
    std::shared_ptr<const lb::Partitioner> partitioner, ExchangeMode exchange,
    const GridOptions& grid)
    : config_(std::move(config)),
      comm_(&comm),
      partitioner_(std::move(partitioner)),
      exchange_(exchange) {
  ULBA_REQUIRE(partitioner_ != nullptr, "distribution needs a partitioner");
  config_.validate();
  const auto shape = lb::resolve_grid_shape(comm_->size(), grid.grid_rows,
                                            grid.grid_cols);
  if (shape.rows == 1 && !grid.tuner) {
    // "1xC == 1D stripes" by code identity: a one-row grid without the
    // tuner IS the stripe decomposition, so it runs the stripe path.
    init_stripes();
    return;
  }
  grid_ = true;
  tile_rows_ = shape.rows;
  tile_cols_ = shape.cols;
  tuner_on_ = grid.tuner;
  tuner_cfg_ = grid.tuner_config;
  init_grid();
}

void DistributedDomain::replay_initial_weights(std::vector<double>& full_cols,
                                               std::vector<double>& full_rows) {
  // Replay the serial builder's weight accounting over a transient
  // full-width view (one DiscState alive at a time): every rank derives the
  // identical initial weights, frontier metadata, and Wtot without ever
  // holding the whole domain. The row marginal comes out of the same pass
  // (the grid decomposition cuts each dimension against its own marginal).
  const std::size_t n = config_.discs.size();
  frontier_sizes_.assign(n, 0);
  full_cols.assign(static_cast<std::size_t>(config_.columns),
                   config_.flop_per_cell * static_cast<double>(config_.rows));
  full_rows.assign(static_cast<std::size_t>(config_.rows),
                   config_.flop_per_cell *
                       static_cast<double>(config_.columns));
  for (std::size_t i = 0; i < n; ++i) {
    const DiscState d = build_disc_state(config_.discs[i]);
    frontier_sizes_[i] = static_cast<std::int64_t>(d.frontier.size());
    rock_remaining_ += d.rock_remaining;
    for (std::int64_t ly = 0; ly < d.side; ++ly)
      for (std::int64_t lx = 0; lx < d.side; ++lx)
        if (d.at(lx, ly) != Cell::kOutside) {
          full_cols[static_cast<std::size_t>(d.x0 + lx)] -=
              config_.flop_per_cell;
          full_rows[static_cast<std::size_t>(d.y0 + ly)] -=
              config_.flop_per_cell;
        }
  }
  total_ = 0.0;
  for (const double w : full_cols) total_ += w;
}

void DistributedDomain::init_stripes() {
  const int R = comm_->size();
  ULBA_REQUIRE(static_cast<std::int64_t>(R) <= config_.columns,
               "rank count must not exceed the column count");
  std::vector<double> full, full_rows;
  replay_initial_weights(full, full_rows);

  // Initial cut: even targets against the initial weights.
  const std::vector<double> targets(static_cast<std::size_t>(R),
                                    1.0 / static_cast<double>(R));
  boundaries_ = partitioner_->partition(full, targets);
  assign_local_discs();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_)
    local_discs_.push_back(build_disc_state(config_.discs[id]));

  const auto r = static_cast<std::size_t>(comm_->rank());
  my_col0_ = boundaries_[r];
  weights_.assign(full.begin() + boundaries_[r],
                  full.begin() + boundaries_[r + 1]);
  recompute_neighbors();
}

void DistributedDomain::init_grid() {
  ULBA_REQUIRE(tile_cols_ <= config_.columns && tile_rows_ <= config_.rows,
               "tile grid must not exceed the cell grid");
  std::vector<double> full, full_rows;
  replay_initial_weights(full, full_rows);

  // Initial cut: each dimension's marginal, even targets — the same
  // partitioner discipline as stripes, applied per dimension.
  const std::vector<double> col_targets(
      static_cast<std::size_t>(tile_cols_),
      1.0 / static_cast<double>(tile_cols_));
  const std::vector<double> row_targets(
      static_cast<std::size_t>(tile_rows_),
      1.0 / static_cast<double>(tile_rows_));
  col_bounds_ = partitioner_->partition(full, col_targets);
  row_bounds_ = partitioner_->partition(full_rows, row_targets);
  assign_local_discs();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_)
    local_discs_.push_back(build_disc_state(config_.discs[id]));

  // The rank-0 monitors start at the serial initial weights; the pending
  // integer deltas advance them at gather time. (Every rank seeds them —
  // the replay is replicated — but only rank 0's stay authoritative.)
  monitor_cols_ = full;
  monitor_rows_ = full_rows;
  pending_cols_.assign(static_cast<std::size_t>(config_.columns), 0);
  pending_rows_.assign(static_cast<std::size_t>(config_.rows), 0);

  rebuild_tile_weights({});
  recompute_neighbors();
}

void DistributedDomain::rebuild_tile_weights(
    std::span<const std::int64_t> refined_per_column) {
  const int r = comm_->rank();
  const auto ri = static_cast<std::size_t>(r / tile_cols_);
  const auto ci = static_cast<std::size_t>(r % tile_cols_);
  const std::int64_t c0 = col_bounds_[ci], c1 = col_bounds_[ci + 1];
  const std::int64_t r0 = row_bounds_[ri], r1 = row_bounds_[ri + 1];
  my_col0_ = c0;

  // Background: every tile cell costs flop_per_cell; the static disc
  // footprints (the initially non-outside cells — erosion only ever flips
  // rock to refined WITHIN that set, so it never changes) subtract theirs;
  // each refined cell adds the refinement gain back. All terms are exact
  // integer counts scaled once, so every rank derives identical partials
  // for its tile regardless of exchange mode, pool size, or history.
  std::vector<double> w(static_cast<std::size_t>(c1 - c0),
                        config_.flop_per_cell * static_cast<double>(r1 - r0));
  for (const RockDisc& disc : config_.discs) {
    const auto [lo, hi] = disc_column_span(disc);
    const auto [rlo, rhi] = disc_row_span(disc);
    if (hi <= c0 || lo >= c1 || rhi <= r0 || rlo >= r1) continue;
    const DiscState d = build_disc_state(disc);
    for (std::int64_t ly = std::max(r0 - d.y0, std::int64_t{0});
         ly < std::min(r1 - d.y0, d.side); ++ly)
      for (std::int64_t lx = std::max(c0 - d.x0, std::int64_t{0});
           lx < std::min(c1 - d.x0, d.side); ++lx)
        if (d.at(lx, ly) != Cell::kOutside)
          w[static_cast<std::size_t>(d.x0 + lx - c0)] -= config_.flop_per_cell;
  }
  if (!refined_per_column.empty()) {
    ULBA_CHECK(static_cast<std::int64_t>(refined_per_column.size()) ==
                   c1 - c0,
               "refined census does not match the tile width");
    const double gained = config_.refinement_factor * config_.flop_per_cell;
    for (std::size_t x = 0; x < refined_per_column.size(); ++x)
      w[x] += gained * static_cast<double>(refined_per_column[x]);
  }
  weights_ = std::move(w);
}

void DistributedDomain::recompute_neighbors() {
  send_neighbors_.clear();
  recv_neighbors_.clear();
  if (exchange_ != ExchangeMode::kNeighbor || ranks() == 1) return;
  const int R = ranks();
  const int r = rank();
  std::vector<std::uint8_t> send_to(static_cast<std::size_t>(R), 0);
  std::vector<std::uint8_t> recv_from(static_cast<std::size_t>(R), 0);
  const int my_ri = r / static_cast<int>(tile_cols_);
  const int my_ci = r % static_cast<int>(tile_cols_);
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const auto [lo, hi] = disc_column_span(config_.discs[i]);
    const std::int64_t clo = std::max<std::int64_t>(lo, 0);
    const std::int64_t chi = std::min<std::int64_t>(hi, config_.columns);
    if (clo >= chi) continue;
    if (grid_) {
      // A disc's bounding box covers a RECTANGLE of tiles — the column-band
      // range x the row-band range, edge AND corner neighbors alike. Both
      // sides evaluate the same replicated predicate, which keeps the sets
      // mutually consistent (rank q sends to me iff I expect q).
      const auto [rl, rh] = disc_row_span(config_.discs[i]);
      const std::int64_t rlo = std::max<std::int64_t>(rl, 0);
      const std::int64_t rhi = std::min<std::int64_t>(rh, config_.rows);
      if (rlo >= rhi) continue;
      const int cf = col_band_of(clo), cl = col_band_of(chi - 1);
      const int rf = row_band_of(rlo), rlast = row_band_of(rhi - 1);
      if (disc_owner_[i] == r) {
        for (int ri = rf; ri <= rlast; ++ri)
          for (int ci = cf; ci <= cl; ++ci) {
            const int q = ri * static_cast<int>(tile_cols_) + ci;
            if (q != r) send_to[static_cast<std::size_t>(q)] = 1;
          }
      } else if (rf <= my_ri && my_ri <= rlast && cf <= my_ci &&
                 my_ci <= cl) {
        recv_from[static_cast<std::size_t>(disc_owner_[i])] = 1;
      }
      continue;
    }
    // Stripes are contiguous and ascending, so a disc's box covers exactly
    // the owner range [first, last] — the one predicate both the sender and
    // the receiver sides evaluate, which keeps the sets mutually consistent
    // across ranks (rank q sends to me iff I expect to receive from q).
    const int first = owner_of_column(clo);
    const int last = owner_of_column(chi - 1);
    if (disc_owner_[i] == r) {
      for (int q = first; q <= last; ++q)
        if (q != r) send_to[static_cast<std::size_t>(q)] = 1;
    } else if (first <= r && r <= last) {
      recv_from[static_cast<std::size_t>(disc_owner_[i])] = 1;
    }
  }
  for (int q = 0; q < R; ++q) {
    if (send_to[static_cast<std::size_t>(q)]) send_neighbors_.push_back(q);
    if (recv_from[static_cast<std::size_t>(q)]) recv_neighbors_.push_back(q);
  }
}

void DistributedDomain::assign_local_discs() {
  local_disc_ids_.clear();
  disc_owner_.assign(config_.discs.size(), 0);
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const int owner = grid_
                          ? owner_of_cell(config_.discs[i].cx,
                                          config_.discs[i].cy)
                          : owner_of_column(config_.discs[i].cx);
    disc_owner_[i] = owner;
    if (owner == rank()) local_disc_ids_.push_back(i);
  }
}

int DistributedDomain::owner_of_disc(std::size_t disc) const {
  ULBA_REQUIRE(disc < disc_owner_.size(), "disc index out of range");
  return disc_owner_[disc];
}

int DistributedDomain::owner_of_column(std::int64_t x) const {
  ULBA_REQUIRE(!grid_,
               "whole-column ownership is undefined under a 2D grid "
               "decomposition (use owner_of_cell)");
  ULBA_REQUIRE(x >= 0 && x < config_.columns, "column out of range");
  const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
  return static_cast<int>(std::distance(boundaries_.begin(), it) - 1);
}

int DistributedDomain::col_band_of(std::int64_t x) const {
  return band_of(col_bounds_, x);
}

int DistributedDomain::row_band_of(std::int64_t y) const {
  return band_of(row_bounds_, y);
}

int DistributedDomain::owner_of_cell(std::int64_t x, std::int64_t y) const {
  ULBA_REQUIRE(x >= 0 && x < config_.columns && y >= 0 && y < config_.rows,
               "cell out of range");
  if (!grid_) return owner_of_column(x);
  return row_band_of(y) * static_cast<int>(tile_cols_) + col_band_of(x);
}

std::int64_t DistributedDomain::frontier_size() const noexcept {
  std::int64_t total = 0;
  for (const std::int64_t f : frontier_sizes_) total += f;
  return total;
}

void DistributedDomain::credit_column(std::int64_t x, std::int64_t count) {
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  const auto local = static_cast<std::size_t>(x - first_column());
  ULBA_CHECK(local < weights_.size(),
             "erosion delta landed outside the owning stripe");
  // One addition per eroded cell — the serial commit's accounting, so the
  // floating-point result is bit-equal regardless of message arrival order.
  for (std::int64_t c = 0; c < count; ++c) weights_[local] += gained;
}

std::int64_t DistributedDomain::step_counter(std::uint64_t seed,
                                             std::int64_t iteration,
                                             support::ThreadPool* pool) {
  // Decide + apply my discs: draws are addressed by (global disc id,
  // iteration, cell), so a rank touches only its own frontier.
  (void)counter_decide_apply(local_discs_, local_disc_ids_, seed, iteration,
                             pool, counter_ws_);
  return finish_step(counter_ws_.erode);
}

std::int64_t DistributedDomain::finish_step(
    std::span<const std::vector<std::int32_t>> erode) {
  const int R = ranks();
  const int r = rank();
  ULBA_CHECK(erode.size() == local_discs_.size(),
             "finish_step needs one erode list per local disc");

  // Phase 3 — commit my columns; bucket the halo deltas (eroded cells in
  // columns — or grid tiles — another rank owns: a disc straddling a
  // decomposition boundary) per destination rank. In grid mode the disc
  // OWNER additionally records every eroded cell (own and halo alike) as a
  // pending integer delta: each cell counted exactly once globally, which
  // is what lets the rank-0 monitor replay the serial weight increments.
  std::int64_t my_eroded = 0;
  std::vector<std::map<std::int64_t, std::int64_t>> halo(
      static_cast<std::size_t>(R));
  for (std::size_t k = 0; k < local_discs_.size(); ++k) {
    const DiscState& d = local_discs_[k];
    my_eroded += static_cast<std::int64_t>(erode[k].size());
    for (const std::int32_t idx : erode[k]) {
      const std::int64_t x = d.x0 + idx % d.side;
      const std::int64_t y = d.y0 + idx / d.side;
      const int owner = grid_ ? owner_of_cell(x, y) : owner_of_column(x);
      if (grid_) {
        ++pending_cols_[static_cast<std::size_t>(x)];
        ++pending_rows_[static_cast<std::size_t>(y)];
      }
      if (owner == r)
        credit_column(x, 1);
      else
        ++halo[static_cast<std::size_t>(owner)][x];
    }
  }

  // The replicated frontier metadata of my own discs updates locally in
  // both exchange modes (peers learn it through their leg of the exchange).
  for (std::size_t k = 0; k < local_disc_ids_.size(); ++k)
    frontier_sizes_[local_disc_ids_[k]] =
        static_cast<std::int64_t>(local_discs_[k].frontier.size());

  std::int64_t global_eroded = my_eroded;
  if (exchange_ == ExchangeMode::kAllToAll) {
    // Phase 4 — one message per peer: my eroded total, the peer's halo
    // deltas, and my discs' updated frontier sizes (the replicated
    // frontier metadata).
    for (int s = 0; s < R; ++s) {
      if (s == r) continue;
      std::vector<std::int64_t> msg;
      const auto& deltas = halo[static_cast<std::size_t>(s)];
      msg.reserve(3 + 2 * deltas.size() + 2 * local_disc_ids_.size());
      msg.push_back(my_eroded);
      msg.push_back(static_cast<std::int64_t>(deltas.size()));
      for (const auto& [x, count] : deltas) {
        msg.push_back(x);
        msg.push_back(count);
      }
      msg.push_back(static_cast<std::int64_t>(local_disc_ids_.size()));
      for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
        msg.push_back(static_cast<std::int64_t>(local_disc_ids_[k]));
        msg.push_back(
            static_cast<std::int64_t>(local_discs_[k].frontier.size()));
      }
      comm_->send_span<std::int64_t>(s, kTagStep, msg);
      count_step_send(msg.size() * sizeof(std::int64_t));
    }

    // Phase 5 — drain every peer's message (rank order; sends are
    // non-blocking, so the all-to-all cannot deadlock).
    for (int s = 0; s < R; ++s) {
      if (s == r) continue;
      const auto msg = comm_->recv_vector<std::int64_t>(s, kTagStep);
      std::size_t at = 0;
      const auto take = [&msg, &at]() -> std::int64_t {
        ULBA_CHECK(at < msg.size(), "malformed step message (truncated)");
        return msg[at++];
      };
      global_eroded += take();
      const auto cols = static_cast<std::size_t>(take());
      for (std::size_t c = 0; c < cols; ++c) {
        const std::int64_t x = take();
        const std::int64_t count = take();
        credit_column(x, count);
      }
      const auto discs = static_cast<std::size_t>(take());
      for (std::size_t k = 0; k < discs; ++k) {
        const auto id = static_cast<std::size_t>(take());
        ULBA_CHECK(id < frontier_sizes_.size(),
                   "frontier update out of range");
        frontier_sizes_[id] = take();
      }
      ULBA_CHECK(at == msg.size(), "malformed step message (trailing bytes)");
    }
  } else {
    // Phase 4a — halo deltas travel to neighbors ONLY: one (possibly
    // empty) message per send-neighbor, so the matching blocking receives
    // stay deterministic. Any delta column lies inside a local disc's
    // bounding box, whose owners are exactly the send-neighbor set.
    for (int s = 0; s < R; ++s)
      ULBA_CHECK(halo[static_cast<std::size_t>(s)].empty() ||
                     std::binary_search(send_neighbors_.begin(),
                                        send_neighbors_.end(), s),
                 "halo delta addressed to a non-neighbor rank");
    for (const int s : send_neighbors_) {
      std::vector<std::int64_t> msg;
      const auto& deltas = halo[static_cast<std::size_t>(s)];
      msg.reserve(2 * deltas.size());
      for (const auto& [x, count] : deltas) {
        msg.push_back(x);
        msg.push_back(count);
      }
      comm_->send_span<std::int64_t>(s, kTagStep, msg);
      count_step_send(msg.size() * sizeof(std::int64_t));
    }

    // Phase 4b — reduction leg: my eroded total plus my discs' updated
    // frontier sizes converge on rank 0.
    if (r != 0) {
      std::vector<std::int64_t> msg;
      msg.reserve(1 + 2 * local_disc_ids_.size());
      msg.push_back(my_eroded);
      for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
        msg.push_back(static_cast<std::int64_t>(local_disc_ids_[k]));
        msg.push_back(
            static_cast<std::int64_t>(local_discs_[k].frontier.size()));
      }
      comm_->send_span<std::int64_t>(0, kTagStepReduce, msg);
      count_step_send(msg.size() * sizeof(std::int64_t));
    }

    // Phase 5a — drain the neighbor halo messages (ascending rank order;
    // per-cell credits commute, so arrival order cannot perturb FP state).
    for (const int s : recv_neighbors_) {
      const auto msg = comm_->recv_vector<std::int64_t>(s, kTagStep);
      ULBA_CHECK(msg.size() % 2 == 0, "malformed halo message");
      for (std::size_t at = 0; at < msg.size(); at += 2)
        credit_column(msg[at], msg[at + 1]);
    }

    // Phase 5b — rank 0 folds the eroded totals in rank order (exact
    // integer sum), merges the frontier updates, and broadcasts the global
    // count plus the complete frontier vector back out.
    std::vector<std::int64_t> bcast;
    if (r == 0) {
      for (int s = 1; s < R; ++s) {
        const auto msg = comm_->recv_vector<std::int64_t>(s, kTagStepReduce);
        ULBA_CHECK(msg.size() % 2 == 1, "malformed step-reduce message");
        global_eroded += msg[0];
        for (std::size_t at = 1; at < msg.size(); at += 2) {
          const auto id = static_cast<std::size_t>(msg[at]);
          ULBA_CHECK(id < frontier_sizes_.size(),
                     "frontier update out of range");
          frontier_sizes_[id] = msg[at + 1];
        }
      }
      bcast.reserve(1 + frontier_sizes_.size());
      bcast.push_back(global_eroded);
      bcast.insert(bcast.end(), frontier_sizes_.begin(),
                   frontier_sizes_.end());
      for (int s = 1; s < R; ++s)
        count_step_send(bcast.size() * sizeof(std::int64_t));
    }
    comm_->broadcast_vector(bcast, 0);
    if (r != 0) {
      ULBA_CHECK(bcast.size() == 1 + frontier_sizes_.size(),
                 "malformed step broadcast");
      global_eroded = bcast[0];
      std::copy(bcast.begin() + 1, bcast.end(), frontier_sizes_.begin());
    }
  }

  // Phase 6 — replicated global accounting (one increment per eroded cell,
  // matching the serial commit's FP trajectory).
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  for (std::int64_t c = 0; c < global_eroded; ++c) total_ += gained;
  rock_remaining_ -= global_eroded;
  eroded_ += global_eroded;
  return global_eroded;
}

void DistributedDomain::drain_pending_deltas() const {
  // Collective: fold every rank's pending integer eroded-cell counts into
  // the rank-0 monitors. All increments are the SAME constant, so a slot's
  // final bits depend only on its seed value and its total count — any
  // fold order reproduces the serial incremental weights bit for bit; rank
  // order just keeps the schedule canonical. Logically const: this only
  // observes the dynamics (mutable monitors/pendings).
  const int R = comm_->size();
  const int r = comm_->rank();
  const double gained = config_.refinement_factor * config_.flop_per_cell;
  const auto apply = [&](std::vector<double>& monitor, std::int64_t at,
                         std::int64_t count) {
    ULBA_CHECK(at >= 0 &&
                   at < static_cast<std::int64_t>(monitor.size()) &&
                   count >= 0,
               "malformed pending-delta record");
    // One addition per eroded cell — the serial commit's accounting.
    for (std::int64_t c = 0; c < count; ++c)
      monitor[static_cast<std::size_t>(at)] += gained;
  };
  if (r != 0) {
    // Sparse wire form: [ncols, (x, count)..., nrows, (y, count)...].
    std::vector<std::int64_t> msg;
    std::int64_t ncols = 0, nrows = 0;
    for (const std::int64_t c : pending_cols_) ncols += c != 0 ? 1 : 0;
    for (const std::int64_t c : pending_rows_) nrows += c != 0 ? 1 : 0;
    msg.reserve(static_cast<std::size_t>(2 + 2 * (ncols + nrows)));
    msg.push_back(ncols);
    for (std::size_t x = 0; x < pending_cols_.size(); ++x)
      if (pending_cols_[x] != 0) {
        msg.push_back(static_cast<std::int64_t>(x));
        msg.push_back(pending_cols_[x]);
      }
    msg.push_back(nrows);
    for (std::size_t y = 0; y < pending_rows_.size(); ++y)
      if (pending_rows_[y] != 0) {
        msg.push_back(static_cast<std::int64_t>(y));
        msg.push_back(pending_rows_[y]);
      }
    comm_->send_span<std::int64_t>(0, kTagGatherWeights, msg);
  } else {
    for (std::size_t x = 0; x < pending_cols_.size(); ++x)
      apply(monitor_cols_, static_cast<std::int64_t>(x), pending_cols_[x]);
    for (std::size_t y = 0; y < pending_rows_.size(); ++y)
      apply(monitor_rows_, static_cast<std::int64_t>(y), pending_rows_[y]);
    for (int s = 1; s < R; ++s) {
      const auto msg = comm_->recv_vector<std::int64_t>(s, kTagGatherWeights);
      std::size_t at = 0;
      const auto take = [&msg, &at]() -> std::int64_t {
        ULBA_CHECK(at < msg.size(), "malformed pending-delta message");
        return msg[at++];
      };
      const auto ncols = take();
      for (std::int64_t c = 0; c < ncols; ++c) {
        const std::int64_t x = take();
        apply(monitor_cols_, x, take());
      }
      const auto nrows = take();
      for (std::int64_t c = 0; c < nrows; ++c) {
        const std::int64_t y = take();
        apply(monitor_rows_, y, take());
      }
      ULBA_CHECK(at == msg.size(),
                 "malformed pending-delta message (trailing bytes)");
    }
  }
  std::fill(pending_cols_.begin(), pending_cols_.end(), 0);
  std::fill(pending_rows_.begin(), pending_rows_.end(), 0);
}

std::vector<double> DistributedDomain::gather_column_weights(int root) const {
  const int R = comm_->size();
  const int r = comm_->rank();
  if (grid_) {
    // Drain the pending deltas into the rank-0 monitor, then serve it —
    // bit-identical to the serial incremental weights for any tile shape.
    drain_pending_deltas();
    if (root == 0) return r == 0 ? monitor_cols_ : std::vector<double>{};
    if (r == 0) {
      comm_->send_span<double>(root, kTagGatherWeights, monitor_cols_);
      return {};
    }
    if (r == root) return comm_->recv_vector<double>(0, kTagGatherWeights);
    return {};
  }
  if (r != root) {
    comm_->send_span<double>(root, kTagGatherWeights, weights_);
    return {};
  }
  std::vector<double> full(static_cast<std::size_t>(config_.columns), 0.0);
  std::copy(weights_.begin(), weights_.end(),
            full.begin() + boundaries_[static_cast<std::size_t>(r)]);
  for (int s = 0; s < R; ++s) {
    if (s == root) continue;
    const auto stripe = comm_->recv_vector<double>(s, kTagGatherWeights);
    const auto begin = boundaries_[static_cast<std::size_t>(s)];
    ULBA_CHECK(static_cast<std::int64_t>(stripe.size()) ==
                   boundaries_[static_cast<std::size_t>(s) + 1] - begin,
               "gathered stripe size does not match the boundaries");
    std::copy(stripe.begin(), stripe.end(), full.begin() + begin);
  }
  return full;
}

std::vector<double> DistributedDomain::allgather_column_weights() const {
  std::vector<double> full = gather_column_weights(0);
  comm_->broadcast_vector(full, 0);
  return full;
}

DistributedReshardResult DistributedDomain::rebalance() {
  // Reassemble the full weights on every rank: the recut, the analytic
  // migration model, and the per-rank observed accounting all need the
  // global view (this mirrors the centralized LB step's gather/broadcast).
  return rebalance(allgather_column_weights());
}

DistributedReshardResult DistributedDomain::rebalance(
    std::span<const double> full) {
  const int R = ranks();
  const int r = rank();
  ULBA_REQUIRE(static_cast<std::int64_t>(full.size()) == config_.columns,
               "rebalance needs the full-width column weights");
  if (grid_) return rebalance_grid(full);

  // Recut — deterministic and identical on every rank.
  const lb::StripeBoundaries before = boundaries_;
  const std::vector<int> owners_before = disc_owner_;
  const std::vector<double> targets(static_cast<std::size_t>(R),
                                    1.0 / static_cast<double>(R));
  boundaries_ = partitioner_->partition(full, targets);
  const lb::StripeBoundaries& after = boundaries_;

  const double scale = config_.bytes_per_cell / config_.flop_per_cell;
  double sent_model = 0.0, recv_model = 0.0;
  double sent_payload = 0.0, recv_payload = 0.0;

  // Column hand-off, sends: for each peer q, the columns I owned before
  // that q owns now travel as one weights message.
  const std::int64_t ob = before[static_cast<std::size_t>(r)];
  const std::int64_t oe = before[static_cast<std::size_t>(r) + 1];
  for (int q = 0; q < R; ++q) {
    if (q == r) continue;
    const auto [lo, hi] = interval_overlap(
        ob, oe, after[static_cast<std::size_t>(q)],
        after[static_cast<std::size_t>(q) + 1]);
    if (lo >= hi) continue;
    const std::span<const double> cols(
        weights_.data() + (lo - ob), static_cast<std::size_t>(hi - lo));
    comm_->send_span<double>(q, kTagMigrateColumns, cols);
    sent_payload += static_cast<double>(cols.size_bytes());
    for (const double w : cols) sent_model += w * scale;
  }

  // Column hand-off, receives: my new stripe = the kept overlap of my
  // old stripe plus one message per peer that used to own part of it. The
  // new weight vector is rebuilt strictly from retained state and received
  // messages — the reassembled `full` view is only consulted by the models.
  const std::int64_t nb = after[static_cast<std::size_t>(r)];
  const std::int64_t ne = after[static_cast<std::size_t>(r) + 1];
  std::vector<double> neww(static_cast<std::size_t>(ne - nb), 0.0);
  {
    const auto [lo, hi] = interval_overlap(ob, oe, nb, ne);
    for (std::int64_t x = lo; x < hi; ++x)
      neww[static_cast<std::size_t>(x - nb)] =
          weights_[static_cast<std::size_t>(x - ob)];
  }
  for (int p = 0; p < R; ++p) {
    if (p == r) continue;
    const auto [lo, hi] = interval_overlap(
        before[static_cast<std::size_t>(p)],
        before[static_cast<std::size_t>(p) + 1], nb, ne);
    if (lo >= hi) continue;
    const auto cols = comm_->recv_vector<double>(p, kTagMigrateColumns);
    ULBA_CHECK(static_cast<std::int64_t>(cols.size()) == hi - lo,
               "migrated column block size mismatch");
    recv_payload += static_cast<double>(cols.size() * sizeof(double));
    for (std::int64_t x = lo; x < hi; ++x) {
      const double w = cols[static_cast<std::size_t>(x - lo)];
      neww[static_cast<std::size_t>(x - nb)] = w;
      recv_model += w * scale;
    }
  }

  // Disc hand-off: a disc follows its center column's owner; whole
  // DiscStates travel as serialized messages, in ascending disc order.
  // boundaries_ already holds the `after` cut, so owner_of_column gives the
  // new owner — the one lookup both sender and receiver loops must share.
  std::map<std::size_t, DiscState> mine;
  for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
    const std::size_t id = local_disc_ids_[k];
    const int new_owner = owner_of_column(config_.discs[id].cx);
    if (new_owner == r) {
      mine.emplace(id, std::move(local_discs_[k]));
    } else {
      const auto payload = serialize_disc(id, local_discs_[k]);
      comm_->send_bytes(new_owner, kTagMigrateDisc, payload);
      sent_payload += static_cast<double>(payload.size());
    }
  }
  std::int64_t discs_moved = 0;
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const int new_owner = owner_of_column(config_.discs[i].cx);
    if (new_owner == owners_before[i]) continue;
    ++discs_moved;
    if (new_owner == r) {
      const runtime::Message msg =
          comm_->recv_message(owners_before[i], kTagMigrateDisc);
      recv_payload += static_cast<double>(msg.payload.size());
      mine.emplace(i, deserialize_disc(msg.payload, i));
    }
  }

  // Commit the new ownership (and refresh the halo-neighbor sets, which
  // depend on both the cut and the disc ownership).
  assign_local_discs();
  local_discs_.clear();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_) {
    const auto it = mine.find(id);
    ULBA_CHECK(it != mine.end(), "disc hand-off left an owned disc behind");
    local_discs_.push_back(std::move(it->second));
  }
  weights_ = std::move(neww);
  my_col0_ = nb;
  recompute_neighbors();

  // Accounting: the analytic prediction on the full view, and the
  // observed traffic reduced across ranks.
  DistributedReshardResult result;
  result.boundaries = boundaries_;
  result.discs_moved = discs_moved;
  std::vector<double> bytes(full.size());
  for (std::size_t x = 0; x < full.size(); ++x) bytes[x] = full[x] * scale;
  result.predicted = lb::migration_volume(before, after, bytes);
  result.observed_per_rank_bytes = comm_->allgather(sent_model + recv_model);
  result.observed_column_bytes = comm_->allreduce(sent_model);
  result.my_payload_bytes = sent_payload + recv_payload;
  result.observed_payload_bytes = comm_->allreduce(result.my_payload_bytes);
  return result;
}

DistributedReshardResult DistributedDomain::rebalance_grid(
    std::span<const double> full) {
  const int R = ranks();
  const int r = rank();

  // The row marginal lives in the rank-0 monitor (the column marginal is
  // `full`, already drained by the gather that produced it). Drain again —
  // idempotent — in case the caller gathered long before rebalancing, then
  // replicate the rows.
  drain_pending_deltas();
  std::vector<double> full_rows = monitor_rows_;
  comm_->broadcast_vector(full_rows, 0);

  const std::vector<std::int64_t> cb_before = col_bounds_;
  const std::vector<std::int64_t> rb_before = row_bounds_;
  const std::vector<int> owners_before = disc_owner_;

  // New bounds: the damped tuner nudges each dimension's boundaries within
  // its per-rebalance envelope, or the partitioner recuts from scratch.
  // Both are pure functions of replicated inputs — every rank derives the
  // identical grid.
  DistributedReshardResult result;
  if (tuner_on_) {
    result.tuner_ran = true;
    result.tuned_cols = lb::tune_boundaries(full, col_bounds_, tuner_cfg_);
    result.tuned_rows =
        lb::tune_boundaries(full_rows, row_bounds_, tuner_cfg_);
    col_bounds_ = result.tuned_cols.boundaries;
    row_bounds_ = result.tuned_rows.boundaries;
  } else {
    const std::vector<double> col_targets(
        static_cast<std::size_t>(tile_cols_),
        1.0 / static_cast<double>(tile_cols_));
    const std::vector<double> row_targets(
        static_cast<std::size_t>(tile_rows_),
        1.0 / static_cast<double>(tile_rows_));
    col_bounds_ = partitioner_->partition(full, col_targets);
    row_bounds_ = partitioner_->partition(full_rows, row_targets);
  }

  double sent_payload = 0.0, recv_payload = 0.0;

  // Disc hand-off: a disc follows its center cell's tile; whole DiscStates
  // travel as serialized messages, in ascending disc order. The bounds
  // already hold the new grid, so owner_of_cell gives the new owner — the
  // one lookup sender and receiver loops share.
  std::map<std::size_t, DiscState> mine;
  for (std::size_t k = 0; k < local_disc_ids_.size(); ++k) {
    const std::size_t id = local_disc_ids_[k];
    const int new_owner =
        owner_of_cell(config_.discs[id].cx, config_.discs[id].cy);
    if (new_owner == r) {
      mine.emplace(id, std::move(local_discs_[k]));
    } else {
      const auto payload = serialize_disc(id, local_discs_[k]);
      comm_->send_bytes(new_owner, kTagMigrateDisc, payload);
      sent_payload += static_cast<double>(payload.size());
    }
  }
  std::int64_t discs_moved = 0;
  for (std::size_t i = 0; i < config_.discs.size(); ++i) {
    const int new_owner =
        owner_of_cell(config_.discs[i].cx, config_.discs[i].cy);
    if (new_owner == owners_before[i]) continue;
    ++discs_moved;
    if (new_owner == r) {
      const runtime::Message msg =
          comm_->recv_message(owners_before[i], kTagMigrateDisc);
      recv_payload += static_cast<double>(msg.payload.size());
      mine.emplace(i, deserialize_disc(msg.payload, i));
    }
  }
  assign_local_discs();
  local_discs_.clear();
  local_discs_.reserve(local_disc_ids_.size());
  for (const std::size_t id : local_disc_ids_) {
    const auto it = mine.find(id);
    ULBA_CHECK(it != mine.end(), "disc hand-off left an owned disc behind");
    local_discs_.push_back(std::move(it->second));
  }

  // Refined-cell census under the NEW bounds: each disc's new owner counts
  // its discs' refined cells into a (row-band x column) matrix, folded at
  // rank 0 in rank order (exact integers) and broadcast — every rank then
  // rebuilds its tile's partial weights from its own slice. This replaces
  // the stripe path's column-weight migration: grid tiles overlap arbitrary
  // fragments of old tiles, so weights are re-derived, not shipped.
  const auto ncols = static_cast<std::size_t>(config_.columns);
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(tile_rows_) * ncols, 0);
  for (const DiscState& d : local_discs_) {
    for (std::size_t idx = 0; idx < d.cells.size(); ++idx) {
      if (d.state(idx) != Cell::kRefined) continue;
      const std::int64_t x =
          d.x0 + static_cast<std::int64_t>(idx) % d.side;
      const std::int64_t y =
          d.y0 + static_cast<std::int64_t>(idx) / d.side;
      ++counts[static_cast<std::size_t>(row_band_of(y)) * ncols +
               static_cast<std::size_t>(x)];
    }
  }
  if (r != 0) {
    comm_->send_span<std::int64_t>(0, kTagGridCounts, counts);
    sent_payload += static_cast<double>(counts.size() * sizeof(std::int64_t));
  } else {
    for (int s = 1; s < R; ++s) {
      const auto part = comm_->recv_vector<std::int64_t>(s, kTagGridCounts);
      ULBA_CHECK(part.size() == counts.size(),
                 "refined census size mismatch");
      recv_payload +=
          static_cast<double>(part.size() * sizeof(std::int64_t));
      for (std::size_t j = 0; j < counts.size(); ++j) counts[j] += part[j];
    }
  }
  comm_->broadcast_vector(counts, 0);
  if (r == 0)
    sent_payload += static_cast<double>(
        (R - 1) * static_cast<std::int64_t>(counts.size() *
                                            sizeof(std::int64_t)));
  else
    recv_payload += static_cast<double>(counts.size() * sizeof(std::int64_t));

  const auto new_ri = static_cast<std::size_t>(r / tile_cols_);
  const auto new_ci = static_cast<std::size_t>(r % tile_cols_);
  const std::int64_t c0 = col_bounds_[new_ci], c1 = col_bounds_[new_ci + 1];
  std::vector<std::int64_t> refined(static_cast<std::size_t>(c1 - c0));
  for (std::int64_t x = c0; x < c1; ++x)
    refined[static_cast<std::size_t>(x - c0)] =
        counts[new_ri * ncols + static_cast<std::size_t>(x)];
  rebuild_tile_weights(refined);
  recompute_neighbors();

  // Analytic accounting under a uniform-in-y density model: column x's
  // bytes spread evenly over its rows, so an (x, row-interval) block whose
  // owner changed costs bytes(x) * len/rows. Merging the old and new row
  // boundaries makes every block single-owner on both sides. The model IS
  // the observation here (no weight columns cross the wire in grid mode);
  // the real payload — discs plus the census matrix — is reduced below.
  const double scale = config_.bytes_per_cell / config_.flop_per_cell;
  std::vector<std::int64_t> merged = rb_before;
  merged.insert(merged.end(), row_bounds_.begin(), row_bounds_.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  result.predicted.per_pe_bytes.assign(static_cast<std::size_t>(R), 0.0);
  for (std::int64_t x = 0; x < config_.columns; ++x) {
    const double bytes_per_row =
        full[static_cast<std::size_t>(x)] * scale /
        static_cast<double>(config_.rows);
    const int old_ci = band_of(cb_before, x);
    const int cur_ci = col_band_of(x);
    for (std::size_t j = 0; j + 1 < merged.size(); ++j) {
      const std::int64_t y0 = merged[j], y1 = merged[j + 1];
      const int old_owner =
          band_of(rb_before, y0) * static_cast<int>(tile_cols_) + old_ci;
      const int new_owner =
          row_band_of(y0) * static_cast<int>(tile_cols_) + cur_ci;
      if (old_owner == new_owner) continue;
      const double b = bytes_per_row * static_cast<double>(y1 - y0);
      result.predicted.total_bytes += b;
      result.predicted.per_pe_bytes[static_cast<std::size_t>(old_owner)] += b;
      result.predicted.per_pe_bytes[static_cast<std::size_t>(new_owner)] += b;
    }
  }
  for (const double b : result.predicted.per_pe_bytes)
    result.predicted.max_pe_bytes =
        std::max(result.predicted.max_pe_bytes, b);

  result.boundaries = col_bounds_;
  result.discs_moved = discs_moved;
  result.observed_per_rank_bytes = result.predicted.per_pe_bytes;
  result.observed_column_bytes = result.predicted.total_bytes;
  result.my_payload_bytes = sent_payload + recv_payload;
  result.observed_payload_bytes = comm_->allreduce(result.my_payload_bytes);
  return result;
}

double DistributedDomain::fractional_load_imbalance() const {
  // HemoCell's monitoring metric: (max PE load - avg) / avg over the
  // per-rank sums of the local (stripe or tile-partial) column weights.
  double local = 0.0;
  for (const double w : weights_) local += w;
  return fractional_load_imbalance(local);
}

double DistributedDomain::fractional_load_imbalance(double local_value) const {
  const std::vector<double> loads = comm_->allgather(local_value);
  double max = 0.0, sum = 0.0;
  for (const double l : loads) {
    max = std::max(max, l);
    sum += l;
  }
  const double avg = sum / static_cast<double>(loads.size());
  return avg > 0.0 ? (max - avg) / avg : 0.0;
}

}  // namespace ulba::erosion
