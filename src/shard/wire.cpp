#include "shard/wire.hpp"

#include <algorithm>
#include <bit>

#include "util/hash.hpp"

namespace dice::shard {

namespace {

// --- primitive helpers -----------------------------------------------------

void put_bool(util::ByteWriter& out, bool v) { out.u8(v ? 1 : 0); }

[[nodiscard]] util::Result<bool> get_bool(util::ByteReader& reader, const char* what) {
  auto v = reader.u8();
  if (!v) return v.error();
  if (v.value() > 1) {
    return util::make_error("shard.wire.value", std::string("bool out of range: ") + what);
  }
  return v.value() == 1;
}

void put_f64(util::ByteWriter& out, double v) { out.u64(std::bit_cast<std::uint64_t>(v)); }

[[nodiscard]] util::Result<double> get_f64(util::ByteReader& reader) {
  auto v = reader.u64();
  if (!v) return v.error();
  return std::bit_cast<double>(v.value());
}

void put_bytes(util::ByteWriter& out, const util::Bytes& data) {
  out.vu64(data.size());
  out.raw(data);
}

[[nodiscard]] util::Result<util::Bytes> get_bytes(util::ByteReader& reader) {
  auto size = reader.vu64();
  if (!size) return size.error();
  auto body = reader.raw(size.value());
  if (!body) return body.error();
  return util::Bytes(body.value().begin(), body.value().end());
}

void put_u64s(util::ByteWriter& out, const std::vector<std::uint64_t>& values) {
  out.vu64(values.size());
  for (const std::uint64_t v : values) out.u64(v);
}

[[nodiscard]] util::Result<std::vector<std::uint64_t>> get_u64s(util::ByteReader& reader) {
  auto count = reader.vu64();
  if (!count) return count.error();
  std::vector<std::uint64_t> values;
  values.reserve(std::min<std::uint64_t>(count.value(), 1u << 16));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto v = reader.u64();
    if (!v) return v.error();
    values.push_back(v.value());
  }
  return values;
}

// --- field codecs ----------------------------------------------------------

[[nodiscard]] util::Result<explore::StrategyKind> get_strategy(util::ByteReader& reader) {
  auto v = reader.u8();
  if (!v) return v.error();
  if (v.value() > static_cast<std::uint8_t>(explore::StrategyKind::kRandom)) {
    return util::make_error("shard.wire.value",
                            "strategy kind out of range: " + std::to_string(v.value()));
  }
  return static_cast<explore::StrategyKind>(v.value());
}

void encode_fault(util::ByteWriter& out, const core::FaultReport& fault) {
  out.u8(static_cast<std::uint8_t>(fault.fault_class));
  out.str(fault.check);
  out.str(fault.description);
  out.u32(fault.node);
  out.u64(fault.episode);
  out.u32(fault.explorer);
  put_bytes(out, fault.input);
  put_bool(out, fault.potential);
}

[[nodiscard]] util::Result<core::FaultReport> decode_fault(util::ByteReader& reader) {
  core::FaultReport fault;
  auto fault_class = reader.u8();
  if (!fault_class) return fault_class.error();
  if (fault_class.value() >
      static_cast<std::uint8_t>(core::FaultClass::kImplementationDivergence)) {
    return util::make_error(
        "shard.wire.value", "fault class out of range: " + std::to_string(fault_class.value()));
  }
  fault.fault_class = static_cast<core::FaultClass>(fault_class.value());
  auto check = reader.str();
  if (!check) return check.error();
  fault.check = std::move(check).take();
  auto description = reader.str();
  if (!description) return description.error();
  fault.description = std::move(description).take();
  auto node = reader.u32();
  if (!node) return node.error();
  fault.node = node.value();
  auto episode = reader.u64();
  if (!episode) return episode.error();
  fault.episode = episode.value();
  auto explorer = reader.u32();
  if (!explorer) return explorer.error();
  fault.explorer = explorer.value();
  auto input = get_bytes(reader);
  if (!input) return input.error();
  fault.input = std::move(input).take();
  auto potential = get_bool(reader, "fault.potential");
  if (!potential) return potential.error();
  fault.potential = potential.value();
  return fault;
}

void encode_spec(util::ByteWriter& out, const WireCampaignSpec& spec) {
  out.str(spec.scenario_set);
  out.vu64(spec.strategies.size());
  for (const explore::StrategyKind kind : spec.strategies) {
    out.u8(static_cast<std::uint8_t>(kind));
  }
  put_u64s(out, spec.seeds);
  out.vu64(spec.implementations.size());
  for (const std::string& impl : spec.implementations) out.str(impl);
  out.vu64(spec.episodes_per_cell);
  out.vu64(spec.inputs_per_episode);
  out.vu64(spec.bootstrap_events);
  out.vu64(spec.clone_event_budget);
  out.u64(spec.clone_time_budget);
  put_bool(out, spec.include_baseline_clone);
  put_bool(out, spec.live_state_cache);
  put_bool(out, spec.share_solver_cache);
  put_bool(out, spec.delta_snapshots);
  out.vu64(spec.workers);
  put_bool(out, spec.nested);
  out.u64(spec.rng_seed);
  put_bool(out, spec.strategy_seed.has_value());
  if (spec.strategy_seed.has_value()) out.u64(*spec.strategy_seed);
  out.u32(spec.oscillation_threshold);
  put_bool(out, spec.oscillation_early_exit);
  put_bool(out, spec.bootstrap_early_exit);
}

[[nodiscard]] util::Result<WireCampaignSpec> decode_spec(util::ByteReader& reader) {
  WireCampaignSpec spec;
  auto scenario_set = reader.str();
  if (!scenario_set) return scenario_set.error();
  spec.scenario_set = std::move(scenario_set).take();
  auto strategy_count = reader.vu64();
  if (!strategy_count) return strategy_count.error();
  for (std::uint64_t i = 0; i < strategy_count.value(); ++i) {
    auto kind = get_strategy(reader);
    if (!kind) return kind.error();
    spec.strategies.push_back(kind.value());
  }
  auto seeds = get_u64s(reader);
  if (!seeds) return seeds.error();
  spec.seeds = std::move(seeds).take();
  auto impl_count = reader.vu64();
  if (!impl_count) return impl_count.error();
  for (std::uint64_t i = 0; i < impl_count.value(); ++i) {
    auto impl = reader.str();
    if (!impl) return impl.error();
    spec.implementations.push_back(std::move(impl).take());
  }
  auto episodes = reader.vu64();
  if (!episodes) return episodes.error();
  spec.episodes_per_cell = episodes.value();
  auto inputs = reader.vu64();
  if (!inputs) return inputs.error();
  spec.inputs_per_episode = inputs.value();
  auto bootstrap = reader.vu64();
  if (!bootstrap) return bootstrap.error();
  spec.bootstrap_events = bootstrap.value();
  auto clone_events = reader.vu64();
  if (!clone_events) return clone_events.error();
  spec.clone_event_budget = clone_events.value();
  auto clone_time = reader.u64();
  if (!clone_time) return clone_time.error();
  spec.clone_time_budget = clone_time.value();
  auto baseline = get_bool(reader, "include_baseline_clone");
  if (!baseline) return baseline.error();
  spec.include_baseline_clone = baseline.value();
  auto live_cache = get_bool(reader, "live_state_cache");
  if (!live_cache) return live_cache.error();
  spec.live_state_cache = live_cache.value();
  auto share_solver = get_bool(reader, "share_solver_cache");
  if (!share_solver) return share_solver.error();
  spec.share_solver_cache = share_solver.value();
  auto delta = get_bool(reader, "delta_snapshots");
  if (!delta) return delta.error();
  spec.delta_snapshots = delta.value();
  auto workers = reader.vu64();
  if (!workers) return workers.error();
  spec.workers = workers.value();
  auto nested = get_bool(reader, "nested");
  if (!nested) return nested.error();
  spec.nested = nested.value();
  auto rng_seed = reader.u64();
  if (!rng_seed) return rng_seed.error();
  spec.rng_seed = rng_seed.value();
  auto has_strategy_seed = get_bool(reader, "strategy_seed.has_value");
  if (!has_strategy_seed) return has_strategy_seed.error();
  if (has_strategy_seed.value()) {
    auto strategy_seed = reader.u64();
    if (!strategy_seed) return strategy_seed.error();
    spec.strategy_seed = strategy_seed.value();
  }
  auto oscillation = reader.u32();
  if (!oscillation) return oscillation.error();
  spec.oscillation_threshold = oscillation.value();
  auto osc_exit = get_bool(reader, "oscillation_early_exit");
  if (!osc_exit) return osc_exit.error();
  spec.oscillation_early_exit = osc_exit.value();
  auto boot_exit = get_bool(reader, "bootstrap_early_exit");
  if (!boot_exit) return boot_exit.error();
  spec.bootstrap_early_exit = boot_exit.value();
  return spec;
}

void encode_cell(util::ByteWriter& out, const explore::CellResult& cell) {
  out.str(cell.scenario);
  out.u8(static_cast<std::uint8_t>(cell.strategy));
  out.u64(cell.seed);
  out.str(cell.implementation);
  put_bool(out, cell.started);
  put_bool(out, cell.completed);
  put_bool(out, cell.bootstrap_converged);
  put_bool(out, cell.bootstrap_from_cache);
  out.vu64(cell.episodes);
  out.vu64(cell.clones_run);
  out.vu64(cell.inputs_subjected);
  out.vu64(cell.faults);
  put_f64(out, cell.bootstrap_ms);
  put_f64(out, cell.wall_ms);
}

[[nodiscard]] util::Result<explore::CellResult> decode_cell(util::ByteReader& reader) {
  explore::CellResult cell;
  auto scenario = reader.str();
  if (!scenario) return scenario.error();
  cell.scenario = std::move(scenario).take();
  auto strategy = get_strategy(reader);
  if (!strategy) return strategy.error();
  cell.strategy = strategy.value();
  auto seed = reader.u64();
  if (!seed) return seed.error();
  cell.seed = seed.value();
  auto impl = reader.str();
  if (!impl) return impl.error();
  cell.implementation = std::move(impl).take();
  auto started = get_bool(reader, "cell.started");
  if (!started) return started.error();
  cell.started = started.value();
  auto completed = get_bool(reader, "cell.completed");
  if (!completed) return completed.error();
  cell.completed = completed.value();
  auto converged = get_bool(reader, "cell.bootstrap_converged");
  if (!converged) return converged.error();
  cell.bootstrap_converged = converged.value();
  auto from_cache = get_bool(reader, "cell.bootstrap_from_cache");
  if (!from_cache) return from_cache.error();
  cell.bootstrap_from_cache = from_cache.value();
  auto episodes = reader.vu64();
  if (!episodes) return episodes.error();
  cell.episodes = episodes.value();
  auto clones = reader.vu64();
  if (!clones) return clones.error();
  cell.clones_run = clones.value();
  auto inputs = reader.vu64();
  if (!inputs) return inputs.error();
  cell.inputs_subjected = inputs.value();
  auto faults = reader.vu64();
  if (!faults) return faults.error();
  cell.faults = faults.value();
  auto bootstrap_ms = get_f64(reader);
  if (!bootstrap_ms) return bootstrap_ms.error();
  cell.bootstrap_ms = bootstrap_ms.value();
  auto wall_ms = get_f64(reader);
  if (!wall_ms) return wall_ms.error();
  cell.wall_ms = wall_ms.value();
  return cell;
}

// --- envelope --------------------------------------------------------------

[[nodiscard]] util::Bytes seal(FrameTag tag, const util::ByteWriter& payload) {
  // The TAG sits inside the checksummed span: a flipped tag byte must fail
  // as shard.wire.checksum, never reparse the payload as another message
  // kind (the fuzz pass counts on this).
  util::ByteWriter body(payload.size() + 1);
  body.u8(static_cast<std::uint8_t>(tag));
  body.raw(payload.span());
  util::ByteWriter out(body.size() + 16);
  out.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  out.u8(kVersion);
  out.u64(util::fnv1a(body.span()));
  out.raw(body.span());
  return std::move(out).take();
}

}  // namespace

WireCampaignSpec WireCampaignSpec::from_options(std::string scenario_set,
                                                const explore::CampaignOptions& options) {
  WireCampaignSpec spec;
  spec.scenario_set = std::move(scenario_set);
  spec.strategies = options.strategies;
  spec.seeds = options.determinism.seeds;
  spec.implementations = options.determinism.implementations;
  spec.episodes_per_cell = options.budgets.episodes_per_cell;
  spec.inputs_per_episode = options.budgets.inputs_per_episode;
  spec.bootstrap_events = options.budgets.bootstrap_events;
  spec.clone_event_budget = options.budgets.clone_event_budget;
  spec.clone_time_budget = options.budgets.clone_time_budget;
  spec.include_baseline_clone = options.budgets.include_baseline_clone;
  spec.live_state_cache = options.caching.live_state_cache;
  spec.share_solver_cache = options.caching.share_solver_cache;
  spec.delta_snapshots = options.caching.delta_snapshots;
  spec.workers = options.parallelism.workers;
  spec.nested = options.parallelism.nested;
  spec.rng_seed = options.determinism.rng_seed;
  spec.strategy_seed = options.determinism.strategy_seed;
  spec.oscillation_threshold = options.determinism.oscillation_threshold;
  spec.oscillation_early_exit = options.determinism.oscillation_early_exit;
  spec.bootstrap_early_exit = options.determinism.bootstrap_early_exit;
  return spec;
}

explore::CampaignOptions WireCampaignSpec::to_options() const {
  explore::CampaignOptions options;
  options.strategies = strategies;
  options.determinism.seeds = seeds;
  options.determinism.implementations = implementations;
  options.budgets.episodes_per_cell = episodes_per_cell;
  options.budgets.inputs_per_episode = inputs_per_episode;
  options.budgets.bootstrap_events = bootstrap_events;
  options.budgets.clone_event_budget = clone_event_budget;
  options.budgets.clone_time_budget = clone_time_budget;
  options.budgets.include_baseline_clone = include_baseline_clone;
  options.caching.live_state_cache = live_state_cache;
  options.caching.share_solver_cache = share_solver_cache;
  options.caching.delta_snapshots = delta_snapshots;
  options.parallelism.workers = workers;
  options.parallelism.nested = nested;
  options.determinism.rng_seed = rng_seed;
  options.determinism.strategy_seed = strategy_seed;
  options.determinism.oscillation_threshold = oscillation_threshold;
  options.determinism.oscillation_early_exit = oscillation_early_exit;
  options.determinism.bootstrap_early_exit = bootstrap_early_exit;
  return options;
}

WireCellDescriptor WireCellDescriptor::from_descriptor(
    const explore::CellDescriptor& descriptor) {
  WireCellDescriptor out;
  out.index = descriptor.index;
  out.scenario = std::string(descriptor.scenario);
  out.strategy = std::string(descriptor.strategy);
  out.seed = descriptor.seed;
  out.implementation = std::string(descriptor.implementation);
  return out;
}

util::Bytes encode_job(const JobSpec& job) {
  util::ByteWriter payload;
  payload.u64(job.shard_id);
  encode_spec(payload, job.campaign);
  put_u64s(payload, job.cells);
  put_u64s(payload, job.unsat_seed);
  return seal(FrameTag::kJob, payload);
}

util::Bytes encode_cell_result(const CellResultMsg& message) {
  util::ByteWriter payload;
  payload.vu64(message.index);
  encode_cell(payload, message.result);
  payload.vu64(message.faults.size());
  for (const core::FaultReport& fault : message.faults) encode_fault(payload, fault);
  return seal(FrameTag::kCellResult, payload);
}

util::Bytes encode_shard_done(const ShardDoneMsg& message) {
  util::ByteWriter payload;
  payload.u64(message.shard_id);
  payload.vu64(message.cells_sent);
  put_u64s(payload, message.unsat_keys);
  return seal(FrameTag::kShardDone, payload);
}

util::Bytes encode_cell_descriptor(const WireCellDescriptor& descriptor) {
  util::ByteWriter payload;
  payload.vu64(descriptor.index);
  payload.str(descriptor.scenario);
  payload.str(descriptor.strategy);
  payload.u64(descriptor.seed);
  payload.str(descriptor.implementation);
  return seal(FrameTag::kCellDescriptor, payload);
}

util::Result<Message> decode_message(std::span<const std::uint8_t> data) {
  util::ByteReader reader(data);
  auto magic = reader.raw(sizeof(kMagic));
  if (!magic) return magic.error();
  if (!std::equal(magic.value().begin(), magic.value().end(),
                  reinterpret_cast<const std::uint8_t*>(kMagic))) {
    return util::make_error("shard.wire.magic", "not a DSHD envelope");
  }
  auto version = reader.u8();
  if (!version) return version.error();
  if (version.value() != kVersion) {
    return util::make_error("shard.wire.version",
                            "unknown wire version " + std::to_string(version.value()));
  }
  auto checksum = reader.u64();
  if (!checksum) return checksum.error();
  // Verify BEFORE parsing (the DSVC discipline): every corrupted or
  // truncated byte of the tag or payload is caught here deterministically,
  // so the field parsers below only ever see what an encoder wrote.
  const std::span<const std::uint8_t> body = data.subspan(reader.position());
  if (util::fnv1a(body) != checksum.value()) {
    return util::make_error("shard.wire.checksum", "payload checksum does not match");
  }
  auto tag = reader.u8();
  if (!tag) return tag.error();
  if (tag.value() < static_cast<std::uint8_t>(FrameTag::kJob) ||
      tag.value() > static_cast<std::uint8_t>(FrameTag::kCellDescriptor)) {
    return util::make_error("shard.wire.tag",
                            "unknown frame tag " + std::to_string(tag.value()));
  }

  Message message;
  switch (static_cast<FrameTag>(tag.value())) {
    case FrameTag::kJob: {
      JobSpec job;
      auto shard_id = reader.u64();
      if (!shard_id) return shard_id.error();
      job.shard_id = shard_id.value();
      auto spec = decode_spec(reader);
      if (!spec) return spec.error();
      job.campaign = std::move(spec).take();
      auto cells = get_u64s(reader);
      if (!cells) return cells.error();
      job.cells = std::move(cells).take();
      auto unsat = get_u64s(reader);
      if (!unsat) return unsat.error();
      job.unsat_seed = std::move(unsat).take();
      message = std::move(job);
      break;
    }
    case FrameTag::kCellResult: {
      CellResultMsg result;
      auto index = reader.vu64();
      if (!index) return index.error();
      result.index = index.value();
      auto cell = decode_cell(reader);
      if (!cell) return cell.error();
      result.result = std::move(cell).take();
      auto fault_count = reader.vu64();
      if (!fault_count) return fault_count.error();
      for (std::uint64_t i = 0; i < fault_count.value(); ++i) {
        auto fault = decode_fault(reader);
        if (!fault) return fault.error();
        result.faults.push_back(std::move(fault).take());
      }
      message = std::move(result);
      break;
    }
    case FrameTag::kShardDone: {
      ShardDoneMsg done;
      auto shard_id = reader.u64();
      if (!shard_id) return shard_id.error();
      done.shard_id = shard_id.value();
      auto cells_sent = reader.vu64();
      if (!cells_sent) return cells_sent.error();
      done.cells_sent = cells_sent.value();
      auto unsat = get_u64s(reader);
      if (!unsat) return unsat.error();
      done.unsat_keys = std::move(unsat).take();
      message = std::move(done);
      break;
    }
    case FrameTag::kCellDescriptor: {
      WireCellDescriptor descriptor;
      auto index = reader.vu64();
      if (!index) return index.error();
      descriptor.index = index.value();
      auto scenario = reader.str();
      if (!scenario) return scenario.error();
      descriptor.scenario = std::move(scenario).take();
      auto strategy = reader.str();
      if (!strategy) return strategy.error();
      descriptor.strategy = std::move(strategy).take();
      auto seed = reader.u64();
      if (!seed) return seed.error();
      descriptor.seed = seed.value();
      auto impl = reader.str();
      if (!impl) return impl.error();
      descriptor.implementation = std::move(impl).take();
      message = std::move(descriptor);
      break;
    }
  }
  if (!reader.exhausted()) {
    return util::make_error("shard.wire.trailing", "bytes after a complete payload");
  }
  return message;
}

void append_frame(util::Bytes& out, std::span<const std::uint8_t> message) {
  util::ByteWriter prefix;
  prefix.u32(static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), prefix.bytes().begin(), prefix.bytes().end());
  out.insert(out.end(), message.begin(), message.end());
}

void FrameBuffer::feed(std::span<const std::uint8_t> data) {
  // Compact lazily: only once the consumed prefix dominates the buffer, so
  // steady-state streaming is amortized O(bytes).
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

util::Result<std::optional<util::Bytes>> FrameBuffer::next_frame() {
  if (buf_.size() - pos_ < 4) return std::optional<util::Bytes>();
  const std::size_t length = (static_cast<std::size_t>(buf_[pos_]) << 24) |
                             (static_cast<std::size_t>(buf_[pos_ + 1]) << 16) |
                             (static_cast<std::size_t>(buf_[pos_ + 2]) << 8) |
                             static_cast<std::size_t>(buf_[pos_ + 3]);
  if (length > kMaxFrameBytes) {
    return util::make_error("shard.wire.frame_oversize",
                            "frame length " + std::to_string(length) + " exceeds cap");
  }
  if (buf_.size() - pos_ - 4 < length) return std::optional<util::Bytes>();
  const auto begin = buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4);
  util::Bytes frame(begin, begin + static_cast<std::ptrdiff_t>(length));
  pos_ += 4 + length;
  return std::optional<util::Bytes>(std::move(frame));
}

}  // namespace dice::shard
