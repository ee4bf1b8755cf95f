#include "atm/switch.hpp"

#include <algorithm>
#include <cassert>

namespace xunet::atm {

using util::Errc;

namespace {

[[nodiscard]] constexpr std::size_t band_idx(ServiceClass c) noexcept {
  return static_cast<std::size_t>(c);
}

}  // namespace

std::string_view to_string(DiscardCause c) noexcept {
  switch (c) {
    case DiscardCause::policed: return "policed";
    case DiscardCause::epd: return "epd";
    case DiscardCause::ppd: return "ppd";
    case DiscardCause::overflow: return "overflow";
  }
  return "?";
}

AtmSwitch::AtmSwitch(sim::Simulator& sim, std::string name,
                     sim::SimDuration per_cell_latency,
                     std::size_t port_queue_cells)
    : sim_(sim),
      name_(std::move(name)),
      per_cell_latency_(per_cell_latency),
      port_queue_cells_(port_queue_cells),
      obs_(&sim.obs()),
      m_cells_(&sim.obs().metrics().counter("atm.switch." + name_ + ".cells")),
      m_unroutable_(&sim.obs().metrics().counter("atm.switch." + name_ +
                                                 ".cells_unroutable")) {
  for (std::size_t cause = 0; cause < kDiscardCauseCount; ++cause) {
    m_discards_[cause] = &sim.obs().metrics().counter(
        "atm.switch." + name_ + ".discard." +
        std::string(to_string(static_cast<DiscardCause>(cause))));
  }
}

int AtmSwitch::add_port() {
  int index = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, index));
  Port& p = *ports_.back();
  for (std::size_t b = 0; b < kServiceClassCount; ++b) {
    p.depth_gauges[b] = &sim_.obs().metrics().gauge(
        "atm.switch." + name_ + ".p" + std::to_string(index) + ".depth." +
        std::string(to_string(static_cast<ServiceClass>(b))));
  }
  return index;
}

CellSink& AtmSwitch::input(int port) {
  return port_at(port);
}

void AtmSwitch::set_output(int port, CellLink& out) {
  port_at(port).out = &out;
}

util::Result<void> AtmSwitch::install_route(int in_port, Vci in_vci,
                                            int out_port, Vci out_vci,
                                            const Qos& qos) {
  if (in_port < 0 || in_port >= port_count() || out_port < 0 ||
      out_port >= port_count() || in_vci == kInvalidVci ||
      out_vci == kInvalidVci) {
    return Errc::invalid_argument;
  }
  std::uint64_t key = route_key(in_port, in_vci);
  if (table_.contains(key)) return Errc::duplicate;

  Port& out = port_at(out_port);
  std::uint64_t reserve = 0;
  if (qos.needs_reservation()) {
    if (out.out == nullptr) return Errc::no_route;
    if (out.reserved_bps + qos.bandwidth_bps > out.out->rate_bps()) {
      return Errc::no_resources;
    }
    reserve = qos.bandwidth_bps;
    out.reserved_bps += reserve;
  }
  // The VC's egress queue is created here, on the control plane, so the
  // cell path never allocates (the ring itself still grows lazily during
  // warmup).  Routes from several input ports may merge onto one outgoing
  // VCI; they share the queue (first contract wins) and it lives until the
  // last of them is removed.
  VcQueue* vq;
  auto it = out.vc_queues.find(out_vci);
  if (it == out.vc_queues.end()) {
    auto owned = std::make_unique<VcQueue>();
    vq = owned.get();
    vq->vci = out_vci;
    vq->band = qos.service_class;
    vq->weight = std::max<std::uint64_t>(1, qos.bandwidth_bps / 1'000'000);
    out.vc_queues.emplace(out_vci, std::move(owned));
  } else {
    vq = it->second.get();
  }
  ++vq->refs;
  if (qos.service_class == ServiceClass::abr) ++out.abr_routes;

  Route r{out_port, out_vci, reserve, qos.service_class, DualGcra{}};
  if (qos.needs_policing()) r.police = DualGcra(qos);
  table_.insert(key, r);
  return {};
}

util::Result<void> AtmSwitch::remove_route(int in_port, Vci in_vci) {
  std::uint64_t key = route_key(in_port, in_vci);
  Route* r = table_.find(key);
  if (r == nullptr) return Errc::not_found;
  Port& out = port_at(r->out_port);
  assert(out.reserved_bps >= r->reserved_bps);
  out.reserved_bps -= r->reserved_bps;
  if (r->svc_class == ServiceClass::abr) {
    assert(out.abr_routes > 0);
    --out.abr_routes;
  }
  auto it = out.vc_queues.find(r->out_vci);
  if (it != out.vc_queues.end()) {
    VcQueue& vq = *it->second;
    assert(vq.refs > 0);
    if (--vq.refs == 0) {
      // Tear-down flushes queued cells without counting them as discards:
      // the VC no longer exists, so there is nothing to deliver them to.
      const std::size_t b = band_idx(vq.band);
      out.depth -= vq.q.size();
      out.band_depth[b] -= vq.q.size();
      out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
      if (vq.active) deactivate(out, vq);
      out.vc_queues.erase(it);
    }
  }
  table_.erase(key);
  return {};
}

std::uint64_t AtmSwitch::reserved_bps(int port) const {
  return port_at(port).reserved_bps;
}

std::uint64_t AtmSwitch::output_rate_bps(int port) const {
  const Port& p = port_at(port);
  return p.out != nullptr ? p.out->rate_bps() : 0;
}

void AtmSwitch::debug_overreserve(int port, std::uint64_t bps) {
  port_at(port).reserved_bps += bps;
}

std::vector<AtmSwitch::RouteInfo> AtmSwitch::route_table() const {
  std::vector<RouteInfo> out;
  out.reserve(table_.size());
  table_.for_each([&out](const std::uint64_t& key, const Route& r) {
    RouteInfo info;
    info.in_port = static_cast<int>(key >> 16);
    info.in_vci = static_cast<Vci>(key & 0xffff);
    info.out_port = r.out_port;
    info.out_vci = r.out_vci;
    out.push_back(info);
  });
  // The trie iterates route_key ascending, which IS (in_port, in_vci)
  // order; no re-sort needed.
  return out;
}

void AtmSwitch::handle_cells(int in_port, const Cell* cells, std::size_t n) {
  const sim::SimTime now = sim_.now();
  const sim::SimTime ready = now + per_cell_latency_;
  const bool tracing = XOBS_TRACING(obs_);
  Port& ingress = port_at(in_port);
  std::uint64_t switched = 0;
  std::uint64_t unroutable = 0;
  // Cells of one train overwhelmingly share a VCI, so memoize the last
  // route lookup; the table cannot change mid-train.
  std::uint64_t last_key = ~std::uint64_t{0};
  Route* route = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const Cell& cell = cells[i];
    const std::uint64_t key = route_key(in_port, cell.vci);
    if (key != last_key) {
      route = table_.find(key);
      last_key = key;
    }
    if (route == nullptr) {
      ++unroutable;
      continue;
    }
    Port& out = port_at(route->out_port);
    if (out.out == nullptr) {
      ++unroutable;
      continue;
    }
    // Usage-parameter control: a contract with traffic descriptors runs the
    // dual GCRA here, at ingress, before the cell touches the fabric.  RM
    // cells are exempt — killing the feedback loop under overload would be
    // self-defeating.
    if (!cell.rm && route->police.enabled() && !route->police.police(now)) {
      drop_cell(ingress, route->svc_class, DiscardCause::policed);
      continue;
    }
    ++switched;
    if (tracing) {
      obs::TraceIds ids;
      ids.vci = cell.vci;
      obs_->complete(per_cell_latency_, "atm", "cell.fwd", name_,
                     std::move(ids));
    }
    // Cross the fabric (fixed per-cell latency), then join the output port's
    // per-VC queue.  Every cell of a train shares one ready instant, so the
    // whole train rides a single fabric event per output port.
    Staged& s = out.fabric.push_slot();
    s.ready = ready;
    s.cell = cell;
    s.cell.vci = route->out_vci;
    if (!out.fabric_timer.armed()) {
      out.fabric_timer.arm(out.fabric.front().ready - now,
                           [this, i = out.index] { fabric_deliver(port_at(i)); });
    }
  }
  if (switched > 0) {
    cells_switched_ += switched;
    m_cells_->inc(switched);
  }
  if (unroutable > 0) {
    cells_unroutable_ += unroutable;
    m_unroutable_->inc(unroutable);
  }
}

void AtmSwitch::fabric_deliver(Port& out) {
  const sim::SimTime now = sim_.now();
  // Trains share a VCI, so memoize the per-VC queue lookup too.  A route
  // removed while its cells were mid-fabric leaves them with no queue;
  // they are counted unroutable, like cells whose route never existed.
  Vci last_vci = kInvalidVci;
  VcQueue* vq = nullptr;
  while (!out.fabric.empty() && out.fabric.front().ready <= now) {
    const Staged& s = out.fabric.front();
    if (s.cell.vci != last_vci) {
      auto it = out.vc_queues.find(s.cell.vci);
      vq = it != out.vc_queues.end() ? it->second.get() : nullptr;
      last_vci = s.cell.vci;
    }
    if (vq == nullptr) {
      ++cells_unroutable_;
      m_unroutable_->inc();
    } else {
      enqueue_out(out, *vq, s.cell);
    }
    out.fabric.pop_front();
  }
  if (!out.fabric.empty() && !out.fabric_timer.armed()) {
    out.fabric_timer.arm(out.fabric.front().ready - now,
                         [this, i = out.index] { fabric_deliver(port_at(i)); });
  }
}

void AtmSwitch::drop_cell(Port& at, ServiceClass band, DiscardCause cause) {
  ++at.drops[band_idx(band)];
  ++at.discards[static_cast<std::size_t>(cause)];
  m_discards_[static_cast<std::size_t>(cause)]->inc();
}

void AtmSwitch::stamp_rm(Port& out, Cell& cell) const {
  if (!cell.rm || cell.backward) return;
  // ABR explicit-rate feedback: a forward RM cell leaving this port may not
  // claim more than the port's fair share of unreserved capacity, split
  // evenly among the ABR VCs routed through it (Goyal/Jain's switch rule in
  // its simplest form).  The congestion bit trips at a quarter-full buffer.
  const std::uint64_t rate = out.out != nullptr ? out.out->rate_bps() : 0;
  const std::uint64_t avail = rate > out.reserved_bps ? rate - out.reserved_bps : 0;
  const std::uint64_t share = std::max<std::uint64_t>(
      1, avail / std::max<std::size_t>(std::size_t{1}, out.abr_routes));
  if (cell.er_bps == 0 || cell.er_bps > share) cell.er_bps = share;
  if (out.depth >= port_queue_cells_ / 4) cell.ci = true;
}

void AtmSwitch::activate(Port& out, VcQueue& vq) {
  // SCFQ: a queue waking up starts one cell-cost past the band's virtual
  // clock, so it cannot claim credit for the time it was idle.
  const std::size_t b = band_idx(vq.band);
  vq.finish = out.vtime[b] + wfq_cost(vq);
  out.active[b].push_back(&vq);
  vq.active = true;
}

void AtmSwitch::deactivate(Port& out, VcQueue& vq) {
  auto& list = out.active[band_idx(vq.band)];
  list.erase(std::find(list.begin(), list.end(), &vq));
  vq.active = false;
}

AtmSwitch::VcQueue* AtmSwitch::select(Port& out) {
  // Strict priority across bands; SCFQ (minimum finish tag, ties broken
  // toward the lowest VCI for determinism) within one.
  for (std::size_t b = kServiceClassCount; b-- > 0;) {
    auto& list = out.active[b];
    if (list.empty()) continue;
    VcQueue* best = list.front();
    for (VcQueue* cand : list) {
      if (cand->finish < best->finish ||
          (cand->finish == best->finish && cand->vci < best->vci)) {
        best = cand;
      }
    }
    return best;
  }
  return nullptr;
}

void AtmSwitch::enqueue_out(Port& out, VcQueue& vq, Cell cell) {
  if (cell.rm) stamp_rm(out, cell);
  // Track AAL5 frame boundaries in the arrival stream (RM cells are
  // transparent to framing) so the frame-aware policy knows where frames
  // start.
  bool frame_start = false;
  if (!cell.rm) {
    frame_start = !vq.in_frame;
    vq.in_frame = !cell.end_of_frame;
  }
  if (policy_ == DiscardPolicy::epd_ppd && !cell.rm) {
    if (vq.skipping_epd) {
      // EPD in progress: the whole frame goes, including its delimiter.
      // The receiver sees a clean gap in the AAL5 sequence, never a
      // truncated CRC-broken frame.
      if (cell.end_of_frame) vq.skipping_epd = false;
      drop_cell(out, vq.band, DiscardCause::epd);
      return;
    }
    if (vq.discarding_ppd) {
      if (!cell.end_of_frame) {
        drop_cell(out, vq.band, DiscardCause::ppd);
        return;
      }
      // Keep the end-of-frame delimiter when space allows: it closes the
      // ruined frame so the next one reassembles.
      vq.discarding_ppd = false;
    }
    if (frame_start && out.depth >= epd_threshold()) {
      if (!cell.end_of_frame) vq.skipping_epd = true;
      drop_cell(out, vq.band, DiscardCause::epd);
      return;
    }
  }
  if (out.depth >= port_queue_cells_) {
    if (policy_ == DiscardPolicy::pushout) {
      // Bounded output buffer with push-out: a higher-class arrival evicts
      // the youngest cell of the lowest occupied band (largest VC queue
      // there, ties toward the lowest VCI), so best-effort occupancy can
      // never crowd out reserved traffic.
      VcQueue* victim = nullptr;
      for (std::size_t b = 0; b < band_idx(vq.band); ++b) {
        if (out.band_depth[b] == 0) continue;
        for (VcQueue* cand : out.active[b]) {
          if (victim == nullptr || cand->q.size() > victim->q.size() ||
              (cand->q.size() == victim->q.size() &&
               cand->vci < victim->vci)) {
            victim = cand;
          }
        }
        break;
      }
      if (victim == nullptr) {
        // No lower band to raid: longest-queue drop within the arrival's
        // own band (Suter/Lakshman).  Shared-buffer tail drop would let a
        // greedy VC's standing queue starve its peers of buffer space and
        // defeat the fair scheduler; evicting from the longest queue keeps
        // goodput at the WFQ shares.  Only a strictly longer queue is
        // raided, so the longest queue itself tail-drops.
        for (VcQueue* cand : out.active[band_idx(vq.band)]) {
          if (cand == &vq || cand->q.size() <= vq.q.size()) continue;
          if (victim == nullptr || cand->q.size() > victim->q.size() ||
              (cand->q.size() == victim->q.size() &&
               cand->vci < victim->vci)) {
            victim = cand;
          }
        }
      }
      if (victim == nullptr) {
        drop_cell(out, vq.band, DiscardCause::overflow);
        return;
      }
      victim->q.pop_back();
      const std::size_t vb = band_idx(victim->band);
      --out.band_depth[vb];
      --out.depth;
      out.depth_gauges[vb]->set(static_cast<std::int64_t>(out.band_depth[vb]));
      if (victim->q.empty()) deactivate(out, *victim);
      drop_cell(out, victim->band, DiscardCause::overflow);
    } else {
      // tail_drop — and the epd_ppd hard limit, where losing a mid-frame
      // cell dooms the rest of the frame to partial packet discard.
      if (policy_ == DiscardPolicy::epd_ppd && !cell.rm &&
          !cell.end_of_frame) {
        vq.discarding_ppd = true;
      }
      drop_cell(out, vq.band, DiscardCause::overflow);
      return;
    }
  }
  vq.q.push_back(cell);
  const std::size_t b = band_idx(vq.band);
  ++out.band_depth[b];
  ++out.depth;
  out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
  if (!vq.active) activate(out, vq);
  if (out.drain_timer.armed()) return;
  if (sim_.passed(out.line_free)) {
    drain(out);
  } else {
    wake_drain_at_line_free(out);
  }
}

void AtmSwitch::wake_drain_at_line_free(Port& out) {
  out.drain_timer.arm(out.line_free, [this, i = out.index] { drain(port_at(i)); });
}

void AtmSwitch::drain(Port& out) {
  // One cell per wake-up; the next is served once the line has serialized
  // this one, so the backlog waits here, in the scheduled per-VC queues.
  VcQueue* vq = select(out);
  if (vq == nullptr) return;
  const std::size_t b = band_idx(vq->band);
  out.vtime[b] = vq->finish;
  out.out->send(vq->q.front());
  vq->q.pop_front();
  --out.band_depth[b];
  --out.depth;
  out.depth_gauges[b]->set(static_cast<std::int64_t>(out.band_depth[b]));
  if (vq->q.empty()) {
    deactivate(out, *vq);
  } else {
    vq->finish += wfq_cost(*vq);
  }
  out.line_free = sim_.reserve(out.out->cell_time());
  if (out.depth > 0) wake_drain_at_line_free(out);
}

std::uint64_t AtmSwitch::cells_dropped(int port, ServiceClass c) const {
  return port_at(port).drops[band_idx(c)];
}

std::uint64_t AtmSwitch::cells_discarded(int port, DiscardCause cause) const {
  return port_at(port).discards[static_cast<std::size_t>(cause)];
}

std::size_t AtmSwitch::queue_depth(int port) const {
  return port_at(port).depth;
}

std::size_t AtmSwitch::abr_route_count(int port) const {
  return port_at(port).abr_routes;
}

}  // namespace xunet::atm
