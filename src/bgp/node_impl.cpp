#include "bgp/node_impl.hpp"

#include <algorithm>
#include <utility>

#include "bgp/router.hpp"
#include "bgp2/engine.hpp"

namespace dice::bgp {

// Built-in engines are registered centrally (not via static self-
// registration in each engine's own object file, which a static-library
// link would silently drop as unreferenced).
NodeImplementationRegistry::NodeImplementationRegistry() {
  factories_.emplace(
      std::string(kBgpRouterImplementationId),
      [](sim::Network& network, sim::NodeId node, RouterConfig config,
         AddressBook address_book) -> std::unique_ptr<NodeImplementation> {
        return std::make_unique<BgpRouter>(network, node, std::move(config),
                                           std::move(address_book));
      });
  factories_.emplace(
      std::string(bgp2::kFsmEngineImplementationId),
      [](sim::Network& network, sim::NodeId node, RouterConfig config,
         AddressBook address_book) -> std::unique_ptr<NodeImplementation> {
        return std::make_unique<bgp2::FsmEngine>(network, node, std::move(config),
                                                 std::move(address_book));
      });
}

NodeImplementationRegistry& NodeImplementationRegistry::instance() {
  static NodeImplementationRegistry registry;
  return registry;
}

void NodeImplementationRegistry::register_factory(std::string id, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[std::move(id)] = std::move(factory);
}

bool NodeImplementationRegistry::contains(std::string_view id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.find(id) != factories_.end();
}

std::vector<std::string> NodeImplementationRegistry::ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [id, factory] : factories_) out.push_back(id);
  return out;
}

std::unique_ptr<NodeImplementation> NodeImplementationRegistry::create(
    std::string_view id, sim::Network& network, sim::NodeId node,
    RouterConfig config, AddressBook address_book) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(id);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  return factory(network, node, std::move(config), std::move(address_book));
}

Route local_route(const RouterConfig& config, const util::IpPrefix& prefix) {
  Route local;
  local.prefix = prefix;
  local.attrs.origin = Origin::kIgp;
  local.attrs.next_hop = config.address;
  local.source.peer_node = kLocalRoute;
  local.source.peer_asn = config.asn;
  local.source.peer_router_id = config.router_id;
  local.source.peer_address = config.address;
  local.source.ebgp = false;
  return local;
}

void for_each_rib_decision(
    const RouterConfig& config, const std::map<sim::NodeId, Rib>& adj_in, const Rib& loc_rib,
    const std::function<void(const NodeImplementation::DecisionView&)>& fn) {
  std::vector<util::IpPrefix> networks = config.networks;
  std::sort(networks.begin(), networks.end());
  networks.erase(std::unique(networks.begin(), networks.end()), networks.end());
  auto network = networks.cbegin();

  struct Cursor {
    Rib::Table::const_iterator at;
    Rib::Table::const_iterator end;
  };
  std::vector<Cursor> peers;  // peer order = candidate order
  peers.reserve(adj_in.size());
  for (const auto& [peer, rib] : adj_in) {
    if (!rib.empty()) peers.push_back({rib.table().begin(), rib.table().end()});
  }
  auto selected = loc_rib.table().begin();
  const auto selected_end = loc_rib.table().end();

  std::vector<const Route*> candidates;
  candidates.reserve(peers.size() + 1);
  Route local;
  for (;;) {
    // The smallest prefix at any cursor head is the next decision.
    const util::IpPrefix* next = nullptr;
    const auto consider = [&next](const util::IpPrefix& prefix) {
      if (next == nullptr || prefix < *next) next = &prefix;
    };
    if (network != networks.cend()) consider(*network);
    for (const Cursor& cursor : peers) {
      if (cursor.at != cursor.end) consider(cursor.at->first);
    }
    if (selected != selected_end) consider(selected->first);
    if (next == nullptr) return;

    NodeImplementation::DecisionView view;
    view.prefix = *next;  // copied: the cursor holding it advances below
    candidates.clear();
    if (network != networks.cend() && *network == view.prefix) {
      local = local_route(config, view.prefix);
      candidates.push_back(&local);
      ++network;
    }
    for (Cursor& cursor : peers) {
      if (cursor.at != cursor.end && cursor.at->first == view.prefix) {
        candidates.push_back(&cursor.at->second);
        ++cursor.at;
      }
    }
    if (selected != selected_end && selected->first == view.prefix) {
      view.selected = &selected->second;
      ++selected;
    }
    view.candidates = candidates;
    fn(view);
  }
}

}  // namespace dice::bgp
