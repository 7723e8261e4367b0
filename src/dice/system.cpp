#include "dice/system.hpp"

#include <set>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace dice::core {

namespace {
const util::Logger& logger() {
  static util::Logger instance("dice.system");
  return instance;
}
}  // namespace

SystemPrototype::SystemPrototype(bgp::SystemBlueprint blueprint)
    : blueprint_(std::move(blueprint)),
      address_book_(std::make_shared<const std::map<util::IpAddress, sim::NodeId>>(
          blueprint_.address_book())),
      origin_owners_(core::origin_owners(blueprint_)) {
  for (std::size_t i = 0; i < blueprint_.size(); ++i) {
    members_.insert(static_cast<sim::NodeId>(i));
  }
}

System::System(bgp::SystemBlueprint blueprint)
    : System(std::make_shared<const SystemPrototype>(std::move(blueprint))) {}

System::System(std::shared_ptr<const SystemPrototype> prototype)
    : prototype_(std::move(prototype)), net_(sim_), coordinator_(store_) {
  const bgp::SystemBlueprint& blueprint = prototype_->blueprint();
  routers_.reserve(blueprint.size());
  for (std::size_t i = 0; i < blueprint.size(); ++i) {
    const sim::NodeId id = static_cast<sim::NodeId>(i);
    const std::string_view impl = blueprint.implementation_for(i);
    auto node = bgp::NodeImplementationRegistry::instance().create(
        impl, net_, id, blueprint.configs[i], prototype_->address_book());
    if (node == nullptr) {
      throw std::invalid_argument("unknown node implementation '" + std::string(impl) +
                                  "' for node " + std::to_string(i));
    }
    routers_.push_back(std::move(node));
    net_.attach(id, *routers_.back());
    routers_.back()->set_coordinator(&coordinator_);
  }
  coordinator_.set_members(prototype_->members());
  for (const bgp::LinkSpec& link : blueprint.links) {
    net_.connect(link.a, link.b, link.latency);
  }
}

System::~System() = default;

void System::start() {
  for (auto& router : routers_) router->start();
}

bool System::converge(std::size_t max_events, sim::Time max_time) {
  return converge_bounded(max_events, max_time, 0).quiesced;
}

System::ConvergeOutcome System::converge_bounded(std::size_t max_events, sim::Time max_time,
                                                 std::uint32_t flip_exit_threshold) {
  ConvergeOutcome outcome;
  if (flip_exit_threshold == 0) {
    // No early-exit: the simulator's own quiescence loop is authoritative.
    outcome.quiesced = sim_.run_until_quiescent(max_events, sim_.now() + max_time);
    return outcome;
  }
  // Poll the routers' flip-count caches every 512 events: cheap (O(nodes)
  // against a cached counter) and deterministic (event-count based, never
  // wall-clock based), so early exits reproduce bit-identically.
  constexpr std::size_t kPollMask = 0x1FF;
  const sim::Time deadline = sim_.now() + max_time;
  std::size_t count = 0;
  while (sim_.pending_foreground() > 0) {
    if (count >= max_events || sim_.now() > deadline) return outcome;
    if ((count & kPollMask) == kPollMask) {
      for (const auto& router : routers_) {
        if (router->max_best_flips() >= flip_exit_threshold) {
          outcome.oscillation_exit = true;
          return outcome;
        }
      }
    }
    if (!sim_.step()) {
      // Drained queue with foreground work still accounted: a bookkeeping
      // mismatch must read as non-quiescence, never as convergence.
      outcome.quiesced = sim_.pending_foreground() == 0;
      return outcome;
    }
    ++count;
  }
  outcome.quiesced = true;
  return outcome;
}

snapshot::SnapshotId System::take_snapshot(sim::NodeId initiator) {
  const snapshot::SnapshotId id = store_.next_id();
  coordinator_.set_baseline(
      delta_checkpoints_ && delta_baseline_ != nullptr ? delta_baseline_->id() : 0);
  bool complete = false;
  coordinator_.set_on_complete([&complete](const snapshot::Snapshot&) { complete = true; });
  routers_.at(initiator)->initiate_snapshot(id);
  // Drive the simulation until markers have swept the system. Markers are
  // foreground events, so quiescence implies snapshot completion in a
  // connected topology; a bounded run guards against partitions.
  std::size_t steps = 0;
  while (!complete && steps < 1'000'000 && sim_.step()) ++steps;
  coordinator_.set_on_complete(nullptr);
  if (!complete) {
    logger().warn() << "snapshot " << id << " did not complete (partition?)";
    // Clean up so later snapshots are not blocked by the stuck attempt.
    for (auto& router : routers_) router->abort_snapshot();
    coordinator_.reset();
    return 0;
  }
  return id;
}

snapshot::PreparedSnapshot::NodeResolver System::node_resolver() const {
  return [this](sim::NodeId node) -> const snapshot::Checkpointable* {
    return node < routers_.size() ? routers_[node].get() : nullptr;
  };
}

std::shared_ptr<const snapshot::PreparedSnapshot> System::prepare_snapshot(
    snapshot::SnapshotId id) {
  if (auto existing = store_.find_prepared(id)) return existing;
  const snapshot::Snapshot* snap = store_.find(id);
  if (snap == nullptr) return nullptr;
  auto prepared =
      snapshot::PreparedSnapshot::build(*snap, node_resolver(), delta_baseline_.get());
  if (!prepared) {
    logger().error() << "prepare_snapshot " << id
                     << " failed: " << prepared.error().to_string();
    return nullptr;
  }
  store_.put_prepared(prepared.value());
  // This snapshot becomes the baseline the next take_snapshot deltas
  // against (whether or not delta encoding is currently enabled — the
  // flag is checked at advertise time).
  delta_baseline_ = prepared.value();
  return std::move(prepared).take();
}

util::Status System::reset_from(const snapshot::PreparedSnapshot& prepared,
                                sim::Time resume_at) {
  // Rewind everything dynamic back to what fresh construction leaves (same
  // simulator sequence numbers, same timer scheduling order, same injection
  // order), which is what makes an arena reset bit-identical to a reset of
  // a freshly built System. The clock fast-forwards before apply so
  // re-armed session timers land relative to resume_at.
  sim_.reset();
  sim_.fast_forward(resume_at);
  net_.reset_dynamic();
  coordinator_.reset();
  delta_baseline_.reset();  // reuse crosses snapshot lineages
  for (auto& router : routers_) router->reset_for_reuse();

  for (const auto& [node, entry] : prepared.nodes()) {
    if (node >= routers_.size()) return util::make_error("system.reset.unknown_node");
    if (auto status = routers_[node]->apply(*entry.state); !status) {
      logger().error() << "reset_from failed for node " << node << ": "
                       << status.error().to_string();
      return status;
    }
  }
  for (const snapshot::PreparedFrame& scheduled : prepared.schedule()) {
    sim::Frame frame;
    frame.kind = sim::FrameKind::kData;
    frame.payload = scheduled.payload;
    net_.inject(scheduled.from, scheduled.to, std::move(frame), scheduled.offset);
  }
  return util::Status::success();
}

util::Status System::reset_from_raw(const snapshot::Snapshot& snap,
                                    sim::Time resume_at) {
  // One apply path: decode the cut into a throwaway PreparedSnapshot (no
  // baseline — a delta envelope fails typed) and reset from it. The decoded
  // RIB tables outlive the temporary only as this System's own tables.
  auto prepared = snapshot::PreparedSnapshot::build(snap, node_resolver());
  if (!prepared) {
    logger().error() << "reset_from_raw failed: " << prepared.error().to_string();
    return prepared.error();
  }
  return reset_from(*prepared.value(), resume_at);
}

std::shared_ptr<snapshot::PreparedLiveState> System::capture_live_state(
    sim::NodeId initiator) {
  // Record the bootstrap's own event count before the marker sweep below
  // adds to it — the receipt is "work a resumed cell skips", and resumed
  // cells do not skip the sweep.
  const std::uint64_t bootstrap_executed = sim_.executed();
  const snapshot::SnapshotId id = take_snapshot(initiator);
  if (id == 0) return nullptr;
  // Copy the raw cut out before the store drops it: the encoded form is
  // what svc::ArtifactStore persists across process restarts (the decoded
  // form below lives only in this process).
  std::shared_ptr<const snapshot::Snapshot> raw;
  if (const snapshot::Snapshot* snap = store_.find(id)) {
    raw = std::make_shared<const snapshot::Snapshot>(*snap);
  }
  auto prepared = prepare_snapshot(id);
  // The capture cut is standalone: drop it from the live store so the
  // caller's per-episode take_snapshot/trim lifecycle sees nothing extra.
  // The shared_ptr keeps the decoded state alive for every cache holder.
  store_.erase(id);
  if (prepared == nullptr) return nullptr;
  auto state = std::make_shared<snapshot::PreparedLiveState>(std::move(prepared));
  state->raw = std::move(raw);
  state->resume_at = sim_.now();
  state->bootstrap_executed = bootstrap_executed;
  return state;
}

util::Status System::resume_from(const snapshot::PreparedLiveState& state) {
  auto decoded = state.decoded(node_resolver());
  if (!decoded) return decoded.error();
  return reset_from(*decoded.value(), state.resume_at);
}

void System::inject_message(sim::NodeId from, sim::NodeId target, util::Bytes message) {
  sim::Frame frame;
  frame.kind = sim::FrameKind::kData;
  frame.payload = std::move(message);
  net_.inject(from, target, std::move(frame));
}

std::size_t System::total_loc_rib_routes() const {
  std::size_t total = 0;
  for (const auto& router : routers_) total += router->loc_rib().size();
  return total;
}

std::size_t System::established_sessions() const {
  std::size_t total = 0;
  for (const auto& router : routers_) total += router->established_session_count();
  return total;
}

bgp::BgpRouter& System::bgp_router(sim::NodeId id) {
  auto* concrete = dynamic_cast<bgp::BgpRouter*>(routers_.at(id).get());
  if (concrete == nullptr) {
    throw std::logic_error("node " + std::to_string(id) + " runs implementation '" +
                           std::string(routers_.at(id)->implementation_id()) +
                           "', not the reference BgpRouter");
  }
  return *concrete;
}

const bgp::BgpRouter& System::bgp_router(sim::NodeId id) const {
  return const_cast<System*>(this)->bgp_router(id);
}

std::map<sim::NodeId, bgp::Asn> System::node_asns() const {
  std::map<sim::NodeId, bgp::Asn> out;
  for (std::size_t i = 0; i < blueprint().size(); ++i) {
    out[static_cast<sim::NodeId>(i)] = blueprint().configs[i].asn;
  }
  return out;
}

}  // namespace dice::core
