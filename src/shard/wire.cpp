#include "shard/wire.hpp"

#include <string_view>
#include <tuple>

#include "util/envelope.hpp"
#include "util/fields.hpp"

namespace dice::shard {

namespace {

constexpr util::Envelope kEnvelope{std::string_view(kMagic, sizeof(kMagic)), kVersion,
                                   "shard.wire.magic", "shard.wire.version",
                                   "shard.wire.checksum"};

// --- field lists: one per record, serving encode and decode ----------------

// The campaign knobs that cross the process boundary, in wire order. Every
// options group is destructured whole, so a field added to any group stops
// this from compiling until it is shipped below or named process-local.
template <class Io>
void fields(Io& io, util::IoRef<Io, explore::CampaignOptions> options) {
  auto& [strategies, budgets, caching, parallelism, telemetry, determinism, deadline] = options;
  auto& [episodes_per_cell, inputs_per_episode, bootstrap_events, clone_event_budget] =
      budgets;
  auto& [live_state_cache, live_cache, live_cache_max_entries, unsat_seed] = caching;
  auto& [workers, pool, nested] = parallelism;
  auto& [trace, progress_every_cells, wall_observer] = telemetry;
  auto& [seeds, implementations, strategy_seed, oscillation_threshold, bootstrap_early_exit] =
      determinism;
  // Process-local, never shipped: each process owns its bootstrap cache and
  // its bound, its pool, telemetry and deadline; the UNSAT seed travels as
  // JobSpec::unsat_seed.
  static_cast<void>(std::tie(live_cache, live_cache_max_entries, unsat_seed, pool, trace,
                             progress_every_cells, wall_observer, deadline));

  io.seq(strategies, [&](auto& kind) { io.enumeration(kind, explore::StrategyKind::kRandom); });
  io.seq(seeds, [&](auto& seed) { io.u64(seed); });
  io.seq(implementations, [&](auto& impl) { io.str(impl); });
  io.vu64(episodes_per_cell);
  io.vu64(inputs_per_episode);
  io.vu64(bootstrap_events);
  io.vu64(clone_event_budget);
  io.boolean(live_state_cache);
  io.vu64(workers);
  io.boolean(nested);
  io.optional(strategy_seed, [&](auto& seed) { io.u64(seed); });
  io.u32(oscillation_threshold);
  io.boolean(bootstrap_early_exit);
}

template <class Io>
void fields(Io& io, util::IoRef<Io, core::FaultReport> fault) {
  io.enumeration(fault.fault_class, core::FaultClass::kImplementationDivergence);
  io.str(fault.check);
  io.str(fault.description);
  io.u32(fault.node);
  io.u64(fault.episode);
  io.u32(fault.explorer);
  io.bytes(fault.input);
  io.boolean(fault.potential);
}

template <class Io>
void fields(Io& io, util::IoRef<Io, explore::CellResult> cell) {
  io.str(cell.scenario);
  io.enumeration(cell.strategy, explore::StrategyKind::kRandom);
  io.u64(cell.seed);
  io.str(cell.implementation);
  io.boolean(cell.started);
  io.boolean(cell.completed);
  io.boolean(cell.bootstrap_converged);
  io.boolean(cell.bootstrap_from_cache);
  io.vu64(cell.episodes);
  io.vu64(cell.clones_run);
  io.vu64(cell.inputs_subjected);
  io.vu64(cell.faults);
  io.f64(cell.bootstrap_ms);
  io.f64(cell.wall_ms);
}

template <class Io>
void fields(Io& io, util::IoRef<Io, JobSpec> job) {
  io.u64(job.shard_id);
  io.str(job.scenario_set);
  fields(io, job.campaign);
  io.seq(job.cells, [&](auto& cell) { io.u64(cell); });
  io.seq(job.unsat_seed, [&](auto& key) { io.u64(key); });
}

template <class Io>
void fields(Io& io, util::IoRef<Io, CellResultMsg> message) {
  io.vu64(message.index);
  fields(io, message.result);
  io.seq(message.faults, [&](auto& fault) { fields(io, fault); });
}

template <class Io>
void fields(Io& io, util::IoRef<Io, ShardDoneMsg> message) {
  io.u64(message.shard_id);
  io.vu64(message.cells_sent);
  io.seq(message.unsat_keys, [&](auto& key) { io.u64(key); });
}

template <class Io>
void fields(Io& io, util::IoRef<Io, WireCellDescriptor> descriptor) {
  io.vu64(descriptor.index);
  io.str(descriptor.scenario);
  io.str(descriptor.strategy);
  io.u64(descriptor.seed);
  io.str(descriptor.implementation);
}

// --- envelope --------------------------------------------------------------

template <class Record>
[[nodiscard]] util::Bytes seal(FrameTag tag, const Record& record) {
  // The TAG sits inside the checksummed body: a flipped tag byte must fail
  // as shard.wire.checksum, never reparse the payload as another message
  // kind (the fuzz pass counts on this).
  util::ByteWriter body;
  body.u8(static_cast<std::uint8_t>(tag));
  util::FieldEncoder io(body);
  fields(io, record);
  return kEnvelope.seal(body.span());
}

template <class Record>
[[nodiscard]] util::Result<Message> decode_as(util::ByteReader& reader) {
  Record record;
  util::FieldDecoder io(reader, "shard.wire.value");
  fields(io, record);
  if (const util::Status status = io.finish("shard.wire.trailing"); !status.ok()) {
    return status.error();
  }
  return Message(std::move(record));
}

}  // namespace

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

util::Bytes encode_job(const JobSpec& job) { return seal(FrameTag::kJob, job); }

util::Bytes encode_cell_result(const CellResultMsg& message) {
  return seal(FrameTag::kCellResult, message);
}

util::Bytes encode_shard_done(const ShardDoneMsg& message) {
  return seal(FrameTag::kShardDone, message);
}

util::Bytes encode_cell_descriptor(const WireCellDescriptor& descriptor) {
  return seal(FrameTag::kCellDescriptor, descriptor);
}

util::Result<Message> decode_message(std::span<const std::uint8_t> data) {
  auto body = kEnvelope.open(data);
  if (!body) return body.error();
  util::ByteReader reader(body.value());
  auto tag = reader.u8();
  if (!tag) return tag.error();
  switch (static_cast<FrameTag>(tag.value())) {
    case FrameTag::kJob:
      return decode_as<JobSpec>(reader);
    case FrameTag::kCellResult:
      return decode_as<CellResultMsg>(reader);
    case FrameTag::kShardDone:
      return decode_as<ShardDoneMsg>(reader);
    case FrameTag::kCellDescriptor:
      return decode_as<WireCellDescriptor>(reader);
  }
  return util::make_error("shard.wire.tag", "unknown frame tag " + std::to_string(tag.value()));
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
  auto prefix = util::ByteReader(std::span(buf_).subspan(pos_)).u32();
  if (!prefix) return std::optional<util::Bytes>();
  const std::size_t length = prefix.value();
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
