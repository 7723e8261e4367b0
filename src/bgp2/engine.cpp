#include "bgp2/engine.hpp"

#include <algorithm>

#include "concolic/context.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"

namespace dice::bgp2 {

namespace {
const util::Logger& logger() {
  static util::Logger instance("bgp2.engine");
  return instance;
}
}  // namespace

FsmEngine::FsmEngine(
    sim::Network& network, sim::NodeId id, bgp::RouterConfig config,
    std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book)
    : NodeImplementation(network, id),
      config_(std::move(config)),
      address_book_(std::move(address_book)),
      lineage_([this](util::ByteWriter& body) {
        body.vu32(static_cast<std::uint32_t>(fsms_.size()));
        for (const auto& [peer, fsm] : fsms_) {
          body.vu32(peer);
          bgp::ckpt::write_session_v2(body, fsm->to_checkpoint());
        }
      }) {
  for (const bgp::NeighborConfig& neighbor : config_.neighbors) {
    auto it = address_book_->find(neighbor.address);
    if (it == address_book_->end()) {
      logger().warn() << config_.name << ": neighbor " << neighbor.address.to_string()
                      << " has no node mapping; skipped";
      continue;
    }
    fsms_.emplace(it->second,
                  std::make_unique<PeerFsm>(*this, it->second, neighbor, config_));
  }
}

void FsmEngine::start() {
  lineage_.bump();  // origination mutates Loc-RIB
  for (const util::IpPrefix& prefix : config_.networks) {
    bus_.post(RouteEvent{RouteEvent::Kind::kLearned, prefix, sim::kInvalidNode});
  }
  bus_.drain([this](const util::IpPrefix& prefix) { decide(prefix); });
  for (auto& [peer, fsm] : fsms_) fsm->start();
}

PeerFsm* FsmEngine::fsm(sim::NodeId peer) {
  auto it = fsms_.find(peer);
  return it == fsms_.end() ? nullptr : it->second.get();
}

const bgp::Rib* FsmEngine::adj_rib_in(sim::NodeId peer) const {
  auto it = lineage_.adj_in.find(peer);
  return it == lineage_.adj_in.end() ? nullptr : &it->second;
}

std::uint64_t FsmEngine::collisions_detected() const {
  std::uint64_t total = 0;
  for (const auto& [peer, fsm] : fsms_) total += fsm->collisions_detected();
  return total;
}

std::size_t FsmEngine::established_session_count() const {
  std::size_t established = 0;
  for (const auto& [peer, fsm] : fsms_) {
    if (fsm->established()) ++established;
  }
  return established;
}

void FsmEngine::reset_session(sim::NodeId peer) {
  if (PeerFsm* f = fsm(peer)) {
    f->stop(bgp::NotifCode::kCease, 0, "administrative reset");
  }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void FsmEngine::fsm_send(sim::NodeId peer, const bgp::Message& msg, bool background) {
  auto encoded = bgp::encode(msg);
  if (!encoded) {
    logger().error() << config_.name << ": encode failed: " << encoded.error().to_string();
    return;
  }
  sim::Frame frame;
  frame.kind = sim::FrameKind::kData;
  frame.payload = std::move(encoded).take();
  frame.background = background;
  network().send(node_id(), peer, std::move(frame));
}

void FsmEngine::deliver_data(sim::NodeId from, const util::Bytes& payload) {
  PeerFsm* f = fsm(from);
  if (f == nullptr) return;  // frame from an unconfigured node
  try {
    auto msg = bgp::decode(payload, bgp::DecodeOptions{config_.bug_mask});
    if (!msg) {
      ++stats_.decode_failures;
      const bgp::NotificationMessage notif = bgp::error_to_notification(msg.error());
      f->stop(notif.code, notif.subcode, "decode error: " + msg.error().to_string());
      return;
    }
    f->handle_message(msg.value());
    // Route events raised by the message settle before control returns to
    // the simulator, so every event boundary observes a consistent Loc-RIB.
    bus_.drain([this](const util::IpPrefix& prefix) { decide(prefix); });
  } catch (const concolic::CrashSignal& crash) {
    // Injected programming error in the data path: model the daemon crash
    // as an all-sessions reset, observable through handler_crashes.
    ++stats_.handler_crashes;
    lineage_.bump();  // crash recovery resets every session
    logger().warn() << config_.name << ": handler crash: " << crash.what;
    for (auto& [peer, peer_fsm] : fsms_) {
      peer_fsm->reset_transport("daemon crash: " + crash.what);
    }
    bus_.drain([this](const util::IpPrefix& prefix) { decide(prefix); });
  }
}

// ---------------------------------------------------------------------------
// FSM callbacks
// ---------------------------------------------------------------------------

void FsmEngine::fsm_established(sim::NodeId peer) {
  lineage_.bump();  // full-table send populates Adj-RIB-Out
  if (PeerFsm* f = fsm(peer)) send_full_table(*f);
}

void FsmEngine::fsm_down(sim::NodeId peer, const std::string& reason) {
  (void)reason;
  lineage_.bump();  // Adj-RIBs flushed below
  auto it = lineage_.adj_in.find(peer);
  if (it != lineage_.adj_in.end()) {
    for (const auto& [prefix, route] : it->second.table()) {
      bus_.post(RouteEvent{RouteEvent::Kind::kPeerLost, prefix, peer});
    }
    lineage_.adj_in.erase(it);
  }
  lineage_.adj_out.erase(peer);
  bus_.drain([this](const util::IpPrefix& prefix) { decide(prefix); });
  if (auto_restart_) schedule_restart(peer);
}

void FsmEngine::schedule_restart(sim::NodeId peer) {
  network().simulator().schedule_after(restart_delay_, [this, peer] {
    if (PeerFsm* f = fsm(peer)) {
      if (f->state() == bgp::SessionState::kIdle) f->start();
    }
  });
}

void FsmEngine::fsm_update(sim::NodeId peer, const bgp::UpdateMessage& update) {
  ++stats_.updates_received;
  lineage_.bump();  // import touches Adj-RIB-In (and, via drain, the rest)
  import_update(peer, update);
  bus_.drain([this](const util::IpPrefix& prefix) { decide(prefix); });
}

// ---------------------------------------------------------------------------
// Import -> bus -> decision -> export
// ---------------------------------------------------------------------------

void FsmEngine::import_update(sim::NodeId peer, const bgp::UpdateMessage& update) {
  PeerFsm* f = fsm(peer);
  if (f == nullptr) return;
  bgp::Rib& rib_in = lineage_.adj_in[peer];

  for (const util::IpPrefix& prefix : update.withdrawn) {
    if (rib_in.erase(prefix)) {
      bus_.post(RouteEvent{RouteEvent::Kind::kWithdrawn, prefix, peer});
    }
  }

  if (!update.announces()) return;

  // Same import acceptance rules as the reference engine — these are
  // protocol semantics, not structure: AS-path loop rejection (§9.1.2,
  // including the truncated form of a 4-byte local ASN) ...
  if (update.attrs.as_path.contains(config_.asn) ||
      (config_.asn > 0xffff && update.attrs.as_path.contains(config_.asn & 0xffff))) {
    ++stats_.loop_rejects;
    for (const util::IpPrefix& prefix : update.nlri) {
      if (rib_in.erase(prefix)) {
        bus_.post(RouteEvent{RouteEvent::Kind::kWithdrawn, prefix, peer});
      }
    }
    return;
  }

  // ... and eBGP next-hop resolvability (unknown next hops are unusable).
  if (f->ebgp() && config_.neighbor_by_address(update.attrs.next_hop) == nullptr &&
      update.attrs.next_hop != config_.address) {
    ++stats_.import_rejects;
    for (const util::IpPrefix& prefix : update.nlri) {
      if (rib_in.erase(prefix)) {
        bus_.post(RouteEvent{RouteEvent::Kind::kWithdrawn, prefix, peer});
      }
    }
    return;
  }

  bgp::Route base;
  base.attrs = update.attrs;
  base.source.peer_node = peer;
  base.source.peer_asn = f->neighbor().asn;
  base.source.peer_router_id = f->peer_router_id();
  base.source.peer_address = f->neighbor().address;
  base.source.ebgp = f->ebgp();
  if (base.source.ebgp) {
    base.attrs.local_pref.reset();  // LOCAL_PREF is intra-AS only (§5.1.5)
  }

  for (const util::IpPrefix& prefix : update.nlri) {
    bgp::Route candidate = base;
    candidate.prefix = prefix;
    bgp::PolicyOutcome outcome =
        evaluate(f->neighbor().import_policy, std::move(candidate), config_.asn);
    if (outcome.accepted) {
      if (rib_in.upsert(std::move(outcome.route))) {
        bus_.post(RouteEvent{RouteEvent::Kind::kLearned, prefix, peer});
      }
    } else {
      ++stats_.import_rejects;
      if (rib_in.erase(prefix)) {
        bus_.post(RouteEvent{RouteEvent::Kind::kWithdrawn, prefix, peer});
      }
    }
  }
}

std::vector<bgp::Route> FsmEngine::collect_candidates(const util::IpPrefix& prefix) const {
  std::vector<bgp::Route> candidates;
  if (std::find(config_.networks.begin(), config_.networks.end(), prefix) !=
      config_.networks.end()) {
    candidates.push_back(bgp::local_route(config_, prefix));
  }
  for (const auto& [peer, rib] : lineage_.adj_in) {
    if (const bgp::Route* route = rib.find(prefix)) candidates.push_back(*route);
  }
  return candidates;
}

std::size_t FsmEngine::choose_best(const std::vector<bgp::Route>& candidates) const {
  bgp::DecisionOptions options;
  options.always_compare_med = config_.always_compare_med;
  const std::size_t best = bgp::select_best(candidates, options);
  if (best == SIZE_MAX || (config_.bug_mask & bgp::bugs::kLongPathPreferred) == 0) {
    return best;
  }
  // Injected decision defect: among candidates tied on effective local
  // preference with the winner, an inverted length comparison prefers the
  // *longest* AS path. The reference procedure never does this, so the
  // differential check flags every prefix where the inversion bites.
  const std::uint32_t pref = candidates[best].attrs.effective_local_pref();
  std::size_t faulty = best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].attrs.effective_local_pref() != pref) continue;
    if (candidates[i].attrs.as_path.selection_length() >
        candidates[faulty].attrs.as_path.selection_length()) {
      faulty = i;
    }
  }
  return faulty;
}

void FsmEngine::decide(const util::IpPrefix& prefix) {
  ++stats_.decision_runs;
  const std::vector<bgp::Route> candidates = collect_candidates(prefix);
  const std::size_t best = choose_best(candidates);

  const bgp::Route* current = lineage_.loc_rib.find(prefix);
  if (best == SIZE_MAX) {
    if (lineage_.loc_rib.erase(prefix)) {
      ++stats_.best_changes;
      lineage_.count_flip(prefix);
      propagate(prefix);
    }
    return;
  }
  if (current != nullptr && *current == candidates[best]) return;
  lineage_.loc_rib.upsert(candidates[best]);
  ++stats_.best_changes;
  lineage_.count_flip(prefix);
  propagate(prefix);
}

void FsmEngine::propagate(const util::IpPrefix& prefix) {
  for (auto& [peer, fsm] : fsms_) {
    if (fsm->established()) export_to_peer(*fsm, prefix);
  }
}

void FsmEngine::send_full_table(PeerFsm& fsm) {
  for (const auto& [prefix, route] : lineage_.loc_rib.table()) {
    export_to_peer(fsm, prefix);
  }
}

void FsmEngine::export_to_peer(PeerFsm& fsm, const util::IpPrefix& prefix) {
  const sim::NodeId peer = fsm.peer_node();
  bgp::Rib& rib_out = lineage_.adj_out[peer];
  const bgp::Route* best = lineage_.loc_rib.find(prefix);

  const auto withdraw_if_advertised = [&] {
    if (rib_out.erase(prefix)) {
      bgp::UpdateMessage update;
      update.withdrawn.push_back(prefix);
      ++stats_.withdraws_sent;
      fsm_send(peer, bgp::Message{update}, /*background=*/false);
    }
  };

  if (best == nullptr) {
    withdraw_if_advertised();
    return;
  }
  // Export invariants shared across the federation: split horizon, no
  // iBGP-to-iBGP reflection, NO_EXPORT at AS boundaries.
  if (!best->local() && best->source.peer_node == peer) {
    withdraw_if_advertised();
    return;
  }
  if (!best->local() && !best->source.ebgp && !fsm.ebgp()) {
    withdraw_if_advertised();
    return;
  }
  if (best->attrs.has_community(bgp::well_known::kNoExport) && fsm.ebgp()) {
    withdraw_if_advertised();
    return;
  }

  bgp::PolicyOutcome outcome = evaluate(fsm.neighbor().export_policy, *best, config_.asn);
  if (!outcome.accepted) {
    withdraw_if_advertised();
    return;
  }

  bgp::Route advertised = std::move(outcome.route);
  if (fsm.ebgp()) {
    advertised.attrs.as_path.prepend(config_.asn);
    advertised.attrs.next_hop = config_.address;
    advertised.attrs.local_pref.reset();
  } else {
    if (!advertised.attrs.local_pref) {
      advertised.attrs.local_pref = bgp::PathAttributes::kDefaultLocalPref;
    }
  }

  const bgp::Route* previous = rib_out.find(prefix);
  if (previous != nullptr && previous->attrs == advertised.attrs) return;

  bgp::UpdateMessage update;
  update.nlri.push_back(prefix);
  update.attrs = advertised.attrs;
  rib_out.upsert(advertised);
  ++stats_.updates_sent;
  fsm_send(peer, bgp::Message{update}, /*background=*/false);
}

void FsmEngine::for_each_decision(
    const std::function<void(const DecisionView&)>& fn) const {
  bgp::for_each_rib_decision(config_, lineage_.adj_in, lineage_.loc_rib, fn);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore — bgp::CheckpointLineage, fed this engine's FSMs
// ---------------------------------------------------------------------------

util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> FsmEngine::parse(
    util::ByteReader& reader) const {
  static obs::Counter& fsm_decode_counter =
      obs::MetricsRegistry::global().counter(obs::names::kFsmDecodes);
  fsm_decode_counter.add();
  return bgp::CheckpointLineage::parse(reader, [this](sim::NodeId peer) {
    return fsms_.find(peer) != fsms_.end();
  });
}

util::Status FsmEngine::apply(const snapshot::DecodedCheckpoint& state) {
  return lineage_.apply(state, [this](const auto& sessions) -> util::Status {
    static obs::Counter& apply_counter =
        obs::MetricsRegistry::global().counter(obs::names::kFsmApplies);
    apply_counter.add();
    for (const auto& [peer, checkpoint] : sessions) {
      PeerFsm* f = fsm(peer);
      if (f == nullptr) return util::make_error("router.restore.unknown_peer");
      f->apply_checkpoint(checkpoint);
    }
    bus_.reset();
    return util::Status::success();
  });
}

void FsmEngine::reset_for_reuse() {
  abort_snapshot();
  for (auto& [peer, fsm] : fsms_) fsm->reset_for_reuse();
  bus_.reset();
  lineage_.reset_for_reuse();
  stats_ = {};
  auto_restart_ = true;
  restart_delay_ = sim::kSecond;
}

}  // namespace dice::bgp2
