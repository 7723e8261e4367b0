#include "concolic/expr.hpp"

#include <cassert>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace dice::concolic {

std::string_view op_name(Op op) noexcept {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kSym: return "sym";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kUDiv: return "udiv";
    case Op::kURem: return "urem";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kShl: return "shl";
    case Op::kLshr: return "lshr";
    case Op::kZext: return "zext";
    case Op::kTrunc: return "trunc";
    case Op::kConcat: return "concat";
    case Op::kExtract: return "extract";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kUlt: return "ult";
    case Op::kUle: return "ule";
    case Op::kBoolNot: return "not";
    case Op::kBoolAnd: return "band";
    case Op::kBoolOr: return "bor";
    case Op::kIte: return "ite";
  }
  return "?";
}

std::size_t ExprPool::NodeKeyHash::operator()(const NodeKey& k) const noexcept {
  std::uint64_t h = util::kFnvOffset;
  h = util::hash_mix(h, static_cast<std::uint64_t>(k.op));
  h = util::hash_mix(h, k.width);
  h = util::hash_mix(h, k.a);
  h = util::hash_mix(h, k.b);
  h = util::hash_mix(h, k.value);
  return static_cast<std::size_t>(util::hash_finalize(h));
}

ExprPool::ExprPool() {
  nodes_.reserve(1024);
  // Slot 0 is a canonical false so that callers can use ref 0 deliberately;
  // it also keeps kNullExpr distinct from any valid node.
  nodes_.push_back(ExprNode{Op::kConst, 1, kNullExpr, kNullExpr, 0});
}

ExprRef ExprPool::intern(const NodeKey& key) {
  if (auto it = interned_.find(key); it != interned_.end()) return it->second;
  const ExprRef ref = static_cast<ExprRef>(nodes_.size());
  nodes_.push_back(ExprNode{key.op, key.width, key.a, key.b, key.value});
  interned_.emplace(key, ref);
  return ref;
}

ExprRef ExprPool::constant(std::uint64_t value, std::uint8_t width) {
  return intern(NodeKey{Op::kConst, width, kNullExpr, kNullExpr, mask(value, width)});
}

ExprRef ExprPool::sym_byte(std::uint32_t input_index) {
  return intern(NodeKey{Op::kSym, 8, kNullExpr, kNullExpr, input_index});
}

std::uint64_t ExprPool::fold_binary(Op op, std::uint64_t a, std::uint64_t b,
                                    std::uint8_t width) const noexcept {
  switch (op) {
    case Op::kAdd: return mask(a + b, width);
    case Op::kSub: return mask(a - b, width);
    case Op::kMul: return mask(a * b, width);
    case Op::kUDiv: return b == 0 ? mask(~std::uint64_t{0}, width) : mask(a / b, width);
    case Op::kURem: return b == 0 ? a : mask(a % b, width);
    case Op::kAnd: return a & b;
    case Op::kOr: return a | b;
    case Op::kXor: return a ^ b;
    case Op::kShl: return b >= width ? 0 : mask(a << b, width);
    case Op::kLshr: return b >= width ? 0 : (a >> b);
    case Op::kEq: return a == b ? 1 : 0;
    case Op::kNe: return a != b ? 1 : 0;
    case Op::kUlt: return a < b ? 1 : 0;
    case Op::kUle: return a <= b ? 1 : 0;
    case Op::kBoolAnd: return (a != 0 && b != 0) ? 1 : 0;
    case Op::kBoolOr: return (a != 0 || b != 0) ? 1 : 0;
    default: return 0;
  }
}

ExprRef ExprPool::binary(Op op, ExprRef a, ExprRef b) {
  assert(a != kNullExpr && b != kNullExpr);
  const std::uint8_t wa = nodes_[a].width;
  std::uint8_t width = wa;
  switch (op) {
    case Op::kEq:
    case Op::kNe:
    case Op::kUlt:
    case Op::kUle:
    case Op::kBoolAnd:
    case Op::kBoolOr:
      width = 1;
      break;
    default:
      break;
  }
  if (is_const(a) && is_const(b)) {
    return constant(fold_binary(op, nodes_[a].value, nodes_[b].value, wa), width);
  }
  // Light algebraic simplifications keep path conditions compact.
  if (is_const(b) && nodes_[b].value == 0 &&
      (op == Op::kAdd || op == Op::kSub || op == Op::kOr || op == Op::kXor ||
       op == Op::kShl || op == Op::kLshr)) {
    return a;
  }
  if (is_const(a) && nodes_[a].value == 0 && (op == Op::kAdd || op == Op::kOr)) return b;
  if (op == Op::kBoolAnd) {
    if (is_const(a)) return nodes_[a].value != 0 ? b : constant(0, 1);
    if (is_const(b)) return nodes_[b].value != 0 ? a : constant(0, 1);
  }
  if (op == Op::kBoolOr) {
    if (is_const(a)) return nodes_[a].value != 0 ? constant(1, 1) : b;
    if (is_const(b)) return nodes_[b].value != 0 ? constant(1, 1) : a;
  }
  return intern(NodeKey{op, width, a, b, 0});
}

ExprRef ExprPool::zext(ExprRef a, std::uint8_t width) {
  assert(a != kNullExpr);
  const ExprNode& na = nodes_[a];
  if (na.width == width) return a;
  assert(na.width < width);
  if (na.op == Op::kConst) return constant(na.value, width);
  return intern(NodeKey{Op::kZext, width, a, kNullExpr, 0});
}

ExprRef ExprPool::trunc(ExprRef a, std::uint8_t width) {
  assert(a != kNullExpr);
  const ExprNode& na = nodes_[a];
  if (na.width == width) return a;
  assert(na.width > width);
  if (na.op == Op::kConst) return constant(na.value, width);
  return intern(NodeKey{Op::kTrunc, width, a, kNullExpr, 0});
}

ExprRef ExprPool::concat(ExprRef high, ExprRef low) {
  assert(high != kNullExpr && low != kNullExpr);
  const ExprNode& nh = nodes_[high];
  const ExprNode& nl = nodes_[low];
  const std::uint8_t width = static_cast<std::uint8_t>(nh.width + nl.width);
  assert(width <= 64);
  if (nh.op == Op::kConst && nl.op == Op::kConst) {
    return constant((nh.value << nl.width) | nl.value, width);
  }
  return intern(NodeKey{Op::kConcat, width, high, low, 0});
}

ExprRef ExprPool::extract(ExprRef a, std::uint8_t bit_offset, std::uint8_t width) {
  assert(a != kNullExpr);
  const ExprNode& na = nodes_[a];
  assert(bit_offset + width <= na.width);
  if (bit_offset == 0 && width == na.width) return a;
  if (na.op == Op::kConst) return constant(na.value >> bit_offset, width);
  return intern(NodeKey{Op::kExtract, width, a, kNullExpr, bit_offset});
}

ExprRef ExprPool::bool_not(ExprRef a) {
  assert(a != kNullExpr);
  const ExprNode& na = nodes_[a];
  assert(na.width == 1);
  if (na.op == Op::kConst) return constant(na.value != 0 ? 0 : 1, 1);
  if (na.op == Op::kBoolNot) return na.a;  // double negation
  // Push negation through comparisons for solver-friendlier forms.
  switch (na.op) {
    case Op::kEq: return binary(Op::kNe, na.a, na.b);
    case Op::kNe: return binary(Op::kEq, na.a, na.b);
    case Op::kUlt: return binary(Op::kUle, na.b, na.a);
    case Op::kUle: return binary(Op::kUlt, na.b, na.a);
    default: break;
  }
  return intern(NodeKey{Op::kBoolNot, 1, a, kNullExpr, 0});
}

ExprRef ExprPool::ite(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  assert(cond != kNullExpr && then_e != kNullExpr && else_e != kNullExpr);
  const ExprNode& nc = nodes_[cond];
  assert(nc.width == 1);
  if (nc.op == Op::kConst) return nc.value != 0 ? then_e : else_e;
  if (then_e == else_e) return then_e;
  return intern(NodeKey{Op::kIte, nodes_[then_e].width, cond, then_e, else_e});
}

std::uint64_t ExprPool::eval(ExprRef ref, std::span<const std::uint8_t> input) const {
  assert(ref != kNullExpr && ref < nodes_.size());
  // Per-call memo: epoch-tagged cache avoids clearing between evaluations.
  if (eval_cache_.size() < nodes_.size()) {
    eval_cache_.resize(nodes_.size(), 0);
    eval_epoch_.resize(nodes_.size(), 0);
  }
  ++epoch_;
  // Iterative post-order to avoid deep recursion on long concat chains;
  // the stack is a member so a call allocates nothing once it has grown.
  std::vector<ExprRef>& stack = eval_stack_;
  stack.clear();
  stack.push_back(ref);
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    if (eval_epoch_[cur] == epoch_) {
      stack.pop_back();
      continue;
    }
    const ExprNode& n = nodes_[cur];
    const ExprRef ca = n.a;
    const ExprRef cb = n.b;
    const ExprRef cc = (n.op == Op::kIte) ? static_cast<ExprRef>(n.value) : kNullExpr;
    bool ready = true;
    for (ExprRef child : {ca, cb, cc}) {
      if (child != kNullExpr && eval_epoch_[child] != epoch_) {
        stack.push_back(child);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    std::uint64_t value = 0;
    switch (n.op) {
      case Op::kConst: value = n.value; break;
      case Op::kSym:
        value = n.value < input.size() ? input[static_cast<std::size_t>(n.value)] : 0;
        break;
      case Op::kZext: value = eval_cache_[ca]; break;
      case Op::kTrunc: value = mask(eval_cache_[ca], n.width); break;
      case Op::kConcat:
        value = mask((eval_cache_[ca] << nodes_[cb].width) | eval_cache_[cb], n.width);
        break;
      case Op::kExtract: value = mask(eval_cache_[ca] >> n.value, n.width); break;
      case Op::kBoolNot: value = eval_cache_[ca] != 0 ? 0 : 1; break;
      case Op::kIte:
        value = eval_cache_[ca] != 0 ? eval_cache_[cb] : eval_cache_[cc];
        break;
      default:
        value = fold_binary(n.op, eval_cache_[ca], eval_cache_[cb], nodes_[ca].width);
        break;
    }
    eval_cache_[cur] = value;
    eval_epoch_[cur] = epoch_;
  }
  return eval_cache_[ref];
}

void ExprPool::collect_syms(ExprRef ref, std::unordered_set<std::uint32_t>& out) const {
  if (ref == kNullExpr) return;
  std::vector<ExprRef> stack{ref};
  std::unordered_set<ExprRef> seen;
  while (!stack.empty()) {
    const ExprRef cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    const ExprNode& n = nodes_[cur];
    if (n.op == Op::kSym) {
      out.insert(static_cast<std::uint32_t>(n.value));
      continue;
    }
    if (n.a != kNullExpr) stack.push_back(n.a);
    if (n.b != kNullExpr) stack.push_back(n.b);
    if (n.op == Op::kIte) stack.push_back(static_cast<ExprRef>(n.value));
  }
}

std::string ExprPool::to_string(ExprRef ref) const {
  if (ref == kNullExpr) return "<null>";
  const ExprNode& n = nodes_[ref];
  switch (n.op) {
    case Op::kConst: return util::format("%llu:w%u", static_cast<unsigned long long>(n.value), n.width);
    case Op::kSym: return util::format("in[%llu]", static_cast<unsigned long long>(n.value));
    case Op::kZext:
    case Op::kTrunc:
      return std::string(op_name(n.op)) + "(" + to_string(n.a) +
             util::format(", w%u)", n.width);
    case Op::kExtract:
      return util::format("extract(%s, off=%llu, w%u)", to_string(n.a).c_str(),
                          static_cast<unsigned long long>(n.value), n.width);
    case Op::kBoolNot: return "!(" + to_string(n.a) + ")";
    case Op::kIte:
      return "ite(" + to_string(n.a) + ", " + to_string(n.b) + ", " +
             to_string(static_cast<ExprRef>(n.value)) + ")";
    default:
      return std::string(op_name(n.op)) + "(" + to_string(n.a) + ", " + to_string(n.b) + ")";
  }
}

}  // namespace dice::concolic
