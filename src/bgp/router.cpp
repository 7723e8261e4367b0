#include "bgp/router.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "bgp/checkpoint_codec.hpp"
#include "concolic/context.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace dice::bgp {

namespace {
const util::Logger& logger() {
  static util::Logger instance("bgp.router");
  return instance;
}

std::atomic<std::uint64_t> g_checkpoint_decodes{0};
}  // namespace

std::uint64_t checkpoint_decode_count() noexcept {
  return g_checkpoint_decodes.load(std::memory_order_relaxed);
}

BgpRouter::BgpRouter(sim::Network& network, sim::NodeId id, RouterConfig config,
                     std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book)
    : NodeImplementation(network, id),
      config_(std::move(config)),
      address_book_(std::move(address_book)) {
  for (const NeighborConfig& neighbor : config_.neighbors) {
    auto it = address_book_->find(neighbor.address);
    if (it == address_book_->end()) {
      logger().warn() << config_.name << ": neighbor " << neighbor.address.to_string()
                      << " has no node mapping; skipped";
      continue;
    }
    sessions_.emplace(it->second, std::make_unique<Session>(*this, it->second, neighbor, config_));
  }
}

BgpRouter::BgpRouter(sim::Network& network, sim::NodeId id, RouterConfig config,
                     std::map<util::IpAddress, sim::NodeId> address_book)
    : BgpRouter(network, id, std::move(config),
                std::make_shared<const std::map<util::IpAddress, sim::NodeId>>(
                    std::move(address_book))) {}

void BgpRouter::start() {
  ++state_version_;  // origination mutates Loc-RIB
  originate_networks();
  for (auto& [peer, session] : sessions_) session->start();
}

void BgpRouter::originate_networks() {
  // run_decision() knows about configured networks and will install the
  // locally originated route (or keep a better learned one, which cannot
  // happen at start time but keeps the logic in one place).
  for (const util::IpPrefix& prefix : config_.networks) run_decision(prefix);
}

const Rib* BgpRouter::adj_rib_in(sim::NodeId peer) const {
  auto it = adj_in_.find(peer);
  return it == adj_in_.end() ? nullptr : &it->second;
}

const Rib* BgpRouter::adj_rib_out(sim::NodeId peer) const {
  auto it = adj_out_.find(peer);
  return it == adj_out_.end() ? nullptr : &it->second;
}

Session* BgpRouter::session(sim::NodeId peer) {
  auto it = sessions_.find(peer);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void BgpRouter::reset_session(sim::NodeId peer) {
  if (Session* s = session(peer)) {
    s->stop(NotifCode::kCease, 0, "administrative reset");
  }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void BgpRouter::session_send(sim::NodeId peer, const Message& msg, bool background) {
  auto encoded = encode(msg);
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

void BgpRouter::deliver_data(sim::NodeId from, const util::Bytes& payload) {
  Session* s = session(from);
  if (s == nullptr) return;  // frame from an unconfigured node
  try {
    auto msg = decode(payload, DecodeOptions{config_.bug_mask});
    if (!msg) {
      ++stats_.decode_failures;
      // §6: send the prescribed NOTIFICATION and reset the session.
      const NotificationMessage notif = error_to_notification(msg.error());
      s->stop(notif.code, notif.subcode, "decode error: " + msg.error().to_string());
      return;
    }
    s->handle_message(msg.value());
  } catch (const concolic::CrashSignal& crash) {
    // An injected programming error fired in the live/clone data path. A
    // real daemon would abort; we model the crash as a session-wide reset
    // and surface it to DiCE's crash checker via handler_crashes.
    ++stats_.handler_crashes;
    ++state_version_;  // crash recovery resets every session
    logger().warn() << config_.name << ": handler crash: " << crash.what;
    for (auto& [peer, session] : sessions_) {
      session->reset_transport("daemon crash: " + crash.what);
    }
  }
}

// ---------------------------------------------------------------------------
// Session callbacks
// ---------------------------------------------------------------------------

void BgpRouter::session_established(sim::NodeId peer) {
  ++state_version_;  // send_full_table populates Adj-RIB-Out
  if (Session* s = session(peer)) send_full_table(*s);
}

void BgpRouter::session_down(sim::NodeId peer, const std::string& reason) {
  (void)reason;
  ++state_version_;  // Adj-RIBs flushed below
  // Flush everything learned from the peer and withdraw what we advertised.
  auto it = adj_in_.find(peer);
  if (it != adj_in_.end()) {
    std::vector<util::IpPrefix> lost;
    lost.reserve(it->second.size());
    for (const auto& [prefix, route] : it->second.table()) lost.push_back(prefix);
    adj_in_.erase(it);
    for (const util::IpPrefix& prefix : lost) run_decision(prefix);
  }
  adj_out_.erase(peer);
  if (auto_restart_) schedule_restart(peer);
}

void BgpRouter::schedule_restart(sim::NodeId peer) {
  network().simulator().schedule_after(restart_delay_, [this, peer] {
    if (Session* s = session(peer)) {
      if (s->state() == SessionState::kIdle) s->start();
    }
  });
}

void BgpRouter::session_update(sim::NodeId peer, const UpdateMessage& update) {
  ++stats_.updates_received;
  ++state_version_;  // process_update touches Adj-RIB-In/Loc-RIB/Adj-RIB-Out
  process_update(peer, update);
}

// ---------------------------------------------------------------------------
// Route processing
// ---------------------------------------------------------------------------

void BgpRouter::process_update(sim::NodeId peer, const UpdateMessage& update) {
  Session* s = session(peer);
  if (s == nullptr) return;
  Rib& rib_in = adj_in_[peer];

  for (const util::IpPrefix& prefix : update.withdrawn) {
    if (rib_in.erase(prefix)) run_decision(prefix);
  }

  if (!update.announces()) return;

  // RFC 4271 §9.1.2: AS-path loop detection — routes carrying our own ASN
  // are treated as withdrawn. With a 4-byte local ASN the 2-octet AS_PATH
  // wire format carries only the truncated low half (codec.hpp), so the
  // check must also match that form.
  if (update.attrs.as_path.contains(config_.asn) ||
      (config_.asn > 0xffff && update.attrs.as_path.contains(config_.asn & 0xffff))) {
    ++stats_.loop_rejects;
    for (const util::IpPrefix& prefix : update.nlri) {
      if (rib_in.erase(prefix)) run_decision(prefix);
    }
    return;
  }

  // Next-hop resolvability (§6.3 / BIRD's import check): a route whose
  // NEXT_HOP is not a known neighbor address is unusable and is treated as
  // withdrawn. Without this, crafted UPDATEs could park unroutable entries
  // in the Loc-RIB. iBGP is exempt: iBGP preserves the original eBGP next
  // hop and resolves it recursively through the IGP, which this substrate
  // assumes reachable (no IGP layer — see DESIGN.md).
  if (s->ebgp() &&
      config_.neighbor_by_address(update.attrs.next_hop) == nullptr &&
      update.attrs.next_hop != config_.address) {
    ++stats_.import_rejects;
    for (const util::IpPrefix& prefix : update.nlri) {
      if (rib_in.erase(prefix)) run_decision(prefix);
    }
    return;
  }

  Route base;
  base.attrs = update.attrs;
  base.source.peer_node = peer;
  base.source.peer_asn = s->neighbor().asn;
  base.source.peer_router_id = s->peer_router_id();
  base.source.peer_address = s->neighbor().address;
  base.source.ebgp = s->ebgp();
  if (base.source.ebgp) {
    // LOCAL_PREF is only meaningful within an AS (§5.1.5); import policy
    // may assign one.
    base.attrs.local_pref.reset();
  }

  for (const util::IpPrefix& prefix : update.nlri) {
    Route candidate = base;
    candidate.prefix = prefix;
    PolicyOutcome outcome =
        evaluate(s->neighbor().import_policy, std::move(candidate), config_.asn);
    if (outcome.accepted) {
      if (rib_in.upsert(std::move(outcome.route))) run_decision(prefix);
    } else {
      ++stats_.import_rejects;
      if (rib_in.erase(prefix)) run_decision(prefix);
    }
  }
}

std::vector<Route> BgpRouter::collect_candidates(const util::IpPrefix& prefix) const {
  std::vector<Route> candidates;
  // Locally originated network?
  if (std::find(config_.networks.begin(), config_.networks.end(), prefix) !=
      config_.networks.end()) {
    candidates.push_back(local_route(config_, prefix));
  }
  for (const auto& [peer, rib] : adj_in_) {
    if (const Route* route = rib.find(prefix)) candidates.push_back(*route);
  }
  return candidates;
}

std::size_t BgpRouter::established_session_count() const {
  std::size_t established = 0;
  for (const auto& [peer, session] : sessions_) {
    if (session->established()) ++established;
  }
  return established;
}

void BgpRouter::for_each_decision(
    const std::function<void(const DecisionView&)>& fn) const {
  for_each_rib_decision(config_, adj_in_, loc_rib_, fn);
}

void BgpRouter::run_decision(const util::IpPrefix& prefix) {
  ++stats_.decision_runs;

  std::vector<Route> candidates = collect_candidates(prefix);

  DecisionOptions options;
  options.always_compare_med = config_.always_compare_med;
  const std::size_t best = select_best(candidates, options);

  const Route* current = loc_rib_.find(prefix);
  if (best == SIZE_MAX) {
    if (loc_rib_.erase(prefix)) {
      ++stats_.best_changes;
      max_best_flips_ = std::max(max_best_flips_, ++best_flips_[prefix]);
      propagate(prefix);
    }
    return;
  }
  if (current != nullptr && *current == candidates[best]) return;
  loc_rib_.upsert(candidates[best]);
  ++stats_.best_changes;
  max_best_flips_ = std::max(max_best_flips_, ++best_flips_[prefix]);
  propagate(prefix);
}

void BgpRouter::propagate(const util::IpPrefix& prefix) {
  for (auto& [peer, session] : sessions_) {
    if (session->established()) export_to_peer(*session, prefix);
  }
}

void BgpRouter::send_full_table(Session& session) {
  for (const auto& [prefix, route] : loc_rib_.table()) {
    export_to_peer(session, prefix);
  }
}

void BgpRouter::export_to_peer(Session& session, const util::IpPrefix& prefix) {
  const sim::NodeId peer = session.peer_node();
  Rib& rib_out = adj_out_[peer];
  const Route* best = loc_rib_.find(prefix);

  const auto withdraw_if_advertised = [&] {
    if (rib_out.erase(prefix)) {
      UpdateMessage update;
      update.withdrawn.push_back(prefix);
      ++stats_.withdraws_sent;
      session_send(peer, Message{update}, /*background=*/false);
    }
  };

  if (best == nullptr) {
    withdraw_if_advertised();
    return;
  }
  // Split horizon: never advertise back to the peer the route came from.
  if (!best->local() && best->source.peer_node == peer) {
    withdraw_if_advertised();
    return;
  }
  // iBGP-learned routes are not reflected to other iBGP peers (§9.2.1,
  // no route-reflection support).
  if (!best->local() && !best->source.ebgp && !session.ebgp()) {
    withdraw_if_advertised();
    return;
  }
  // NO_EXPORT: do not advertise beyond the local AS (RFC 1997).
  if (best->attrs.has_community(well_known::kNoExport) && session.ebgp()) {
    withdraw_if_advertised();
    return;
  }

  PolicyOutcome outcome = evaluate(session.neighbor().export_policy, *best, config_.asn);
  if (!outcome.accepted) {
    withdraw_if_advertised();
    return;
  }

  Route advertised = std::move(outcome.route);
  if (session.ebgp()) {
    advertised.attrs.as_path.prepend(config_.asn);
    advertised.attrs.next_hop = config_.address;
    advertised.attrs.local_pref.reset();  // §5.1.5: not sent on eBGP
  } else {
    // iBGP keeps NEXT_HOP and LOCAL_PREF; ensure LOCAL_PREF present (§5.1.5).
    if (!advertised.attrs.local_pref) {
      advertised.attrs.local_pref = PathAttributes::kDefaultLocalPref;
    }
  }

  const Route* previous = rib_out.find(prefix);
  if (previous != nullptr && previous->attrs == advertised.attrs) return;  // no change

  UpdateMessage update;
  update.nlri.push_back(prefix);
  update.attrs = advertised.attrs;
  rib_out.upsert(advertised);
  ++stats_.updates_sent;
  session_send(peer, Message{update}, /*background=*/false);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore
// ---------------------------------------------------------------------------

void BgpRouter::checkpoint(util::ByteWriter& writer) const {
  // Byte-coded v2 stream: version byte, attribute pool, tagged sections,
  // end tag. The pool is filled while the sections serialize into a scratch
  // writer, then emitted ahead of them (readers need the pool first).
  using ckpt::Tag;
  util::ByteWriter body;
  ckpt::AttrPoolEncoder pool;

  // Sessions (keyed by peer node id for stable identity across clones).
  body.u8(static_cast<std::uint8_t>(Tag::kSessions));
  body.vu32(static_cast<std::uint32_t>(sessions_.size()));
  for (const auto& [peer, session] : sessions_) {
    body.vu32(peer);
    ckpt::write_session_v2(body, *session);
  }
  body.u8(static_cast<std::uint8_t>(Tag::kAdjIn));
  body.vu32(static_cast<std::uint32_t>(adj_in_.size()));
  for (const auto& [peer, rib] : adj_in_) {
    body.vu32(peer);
    ckpt::write_rib_v2(body, rib, pool);
  }
  body.u8(static_cast<std::uint8_t>(Tag::kLocRib));
  ckpt::write_rib_v2(body, loc_rib_, pool);
  body.u8(static_cast<std::uint8_t>(Tag::kAdjOut));
  body.vu32(static_cast<std::uint32_t>(adj_out_.size()));
  for (const auto& [peer, rib] : adj_out_) {
    body.vu32(peer);
    ckpt::write_rib_v2(body, rib, pool);
  }
  // Flip counters travel with the snapshot so clone-side oscillation
  // detection starts from the live system's baseline.
  body.u8(static_cast<std::uint8_t>(Tag::kFlips));
  body.vu32(static_cast<std::uint32_t>(best_flips_.size()));
  for (const auto& [prefix, count] : best_flips_) {
    body.u32(prefix.address().value());
    body.u8(prefix.length());
    body.vu32(count);
  }

  writer.u8(ckpt::kFormatV2);
  pool.emit(writer);
  writer.raw(body.span());
  writer.u8(static_cast<std::uint8_t>(Tag::kEnd));
}

util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> BgpRouter::parse(
    util::ByteReader& reader) const {
  g_checkpoint_decodes.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& decode_counter =
      obs::MetricsRegistry::global().counter(obs::names::kCheckpointDecodes);
  decode_counter.add();

  auto state = ckpt::read_router_v2(reader, [this](sim::NodeId peer) {
    return sessions_.find(peer) != sessions_.end();
  });
  if (!state) return state.error();
  auto decoded = std::make_shared<RouterCheckpoint>();
  decoded->sessions = std::move(state.value().sessions);
  decoded->adj_in = std::move(state.value().adj_in);
  decoded->loc_rib = std::move(state.value().loc_rib);
  decoded->adj_out = std::move(state.value().adj_out);
  decoded->best_flips = std::move(state.value().best_flips);
  return std::shared_ptr<const snapshot::DecodedCheckpoint>(std::move(decoded));
}

std::uint64_t BgpRouter::encode_checkpoint(util::ByteWriter& writer,
                                           snapshot::SnapshotId this_snapshot,
                                           snapshot::SnapshotId baseline) {
  if (baseline != 0 && last_checkpoint_.snapshot == baseline &&
      last_checkpoint_.version == state_version_) {
    // Nothing checkpointed changed since the baseline captured this router:
    // one byte replaces the whole stream, the recorded full-state hash keeps
    // the cut fingerprint identical to a full encode.
    writer.u8(snapshot::kCheckpointSameAsBaseline);
    last_checkpoint_.snapshot = this_snapshot;
    return last_checkpoint_.hash;
  }
  const std::size_t before = writer.size();
  checkpoint(writer);
  const std::uint64_t hash =
      util::fnv1a(std::span(writer.span()).subspan(before));
  last_checkpoint_ = {this_snapshot, state_version_, hash};
  return hash;
}

util::Status BgpRouter::apply(const snapshot::DecodedCheckpoint& state) {
  const auto* decoded = dynamic_cast<const RouterCheckpoint*>(&state);
  if (decoded == nullptr) return util::make_error("router.apply.wrong_type");
  ++state_version_;  // restore rewrites every piece of checkpointed state

  for (const auto& [peer, checkpoint] : decoded->sessions) {
    Session* s = session(peer);
    if (s == nullptr) return util::make_error("router.restore.unknown_peer");
    s->apply_checkpoint(checkpoint);
  }

  // Rib copies share the decoded tables (copy-on-write, bgp/rib.hpp): the
  // restore is O(tables), and only the tables this router later writes are
  // ever copied.
  adj_in_.clear();
  for (const auto& [peer, rib] : decoded->adj_in) adj_in_.emplace(peer, rib);
  loc_rib_ = decoded->loc_rib;
  adj_out_.clear();
  for (const auto& [peer, rib] : decoded->adj_out) adj_out_.emplace(peer, rib);

  best_flips_.clear();
  max_best_flips_ = 0;
  for (const auto& [prefix, count] : decoded->best_flips) {
    best_flips_[prefix] = count;
    max_best_flips_ = std::max(max_best_flips_, count);
  }
  applied_ = state.weak_from_this();
  applied_version_ = state_version_;
  return util::Status::success();
}

void BgpRouter::reset_for_reuse() {
  abort_snapshot();
  for (auto& [peer, session] : sessions_) session->reset_for_reuse();
  adj_in_.clear();
  loc_rib_.clear();
  adj_out_.clear();
  best_flips_.clear();
  max_best_flips_ = 0;
  stats_ = {};
  auto_restart_ = true;
  restart_delay_ = sim::kSecond;
  ++state_version_;
  last_checkpoint_ = {};  // arena reuse crosses snapshot lineages: no deltas
  applied_.reset();
}

}  // namespace dice::bgp
