// Symbolic expression DAG for the concolic runtime (the Oasis substitute,
// see DESIGN.md). Expressions are hash-consed nodes in an arena owned by an
// ExprPool; ExprRef is an index into that arena. Widths are 1 (bool), 8, 16,
// 32 or 64 bits; every symbolic leaf is one 8-bit input byte, matching the
// paper's choice of treating raw BGP UPDATE bytes as the symbolic input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dice::concolic {

using ExprRef = std::uint32_t;
inline constexpr ExprRef kNullExpr = 0xffffffffU;

enum class Op : std::uint8_t {
  kConst,    // value = constant (masked to width)
  kSym,      // value = input byte index, width 8
  kAdd,
  kSub,
  kMul,
  kUDiv,     // division by zero yields all-ones, like hardware-style semantics
  kURem,     // remainder by zero yields the dividend
  kAnd,
  kOr,
  kXor,
  kShl,      // shift amounts >= width yield 0
  kLshr,
  kZext,     // widen a to `width`
  kTrunc,    // narrow a to `width`
  kConcat,   // a is the high part, b the low part; width = wa + wb
  kExtract,  // value = bit offset (from LSB), extracts `width` bits of a
  kEq,       // comparisons produce width-1 booleans
  kNe,
  kUlt,
  kUle,
  kBoolNot,
  kBoolAnd,
  kBoolOr,
  kIte,      // a ? b : c is encoded as (a, b) with value = c (child ref)
};

[[nodiscard]] std::string_view op_name(Op op) noexcept;

/// One DAG node. POD by design: the pool stores nodes contiguously.
struct ExprNode {
  Op op;
  std::uint8_t width;  // result width in bits
  ExprRef a = kNullExpr;
  ExprRef b = kNullExpr;
  std::uint64_t value = 0;  // kConst: constant; kSym: byte index; kExtract: offset; kIte: child c
};

/// Arena + hash-consing + constant folding for expression construction, and
/// a concrete evaluator used by the solver to verify candidate assignments.
class ExprPool {
 public:
  ExprPool();

  [[nodiscard]] ExprRef constant(std::uint64_t value, std::uint8_t width);
  [[nodiscard]] ExprRef sym_byte(std::uint32_t input_index);
  [[nodiscard]] ExprRef binary(Op op, ExprRef a, ExprRef b);
  [[nodiscard]] ExprRef zext(ExprRef a, std::uint8_t width);
  [[nodiscard]] ExprRef trunc(ExprRef a, std::uint8_t width);
  [[nodiscard]] ExprRef concat(ExprRef high, ExprRef low);
  [[nodiscard]] ExprRef extract(ExprRef a, std::uint8_t bit_offset, std::uint8_t width);
  [[nodiscard]] ExprRef bool_not(ExprRef a);
  [[nodiscard]] ExprRef ite(ExprRef cond, ExprRef then_e, ExprRef else_e);

  [[nodiscard]] const ExprNode& node(ExprRef ref) const { return nodes_[ref]; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Evaluates `ref` under a concrete input assignment. Bytes beyond the
  /// assignment read as zero (the decoder never reaches them; see sym.hpp).
  [[nodiscard]] std::uint64_t eval(ExprRef ref, std::span<const std::uint8_t> input) const;

  /// Collects the distinct input byte indices `ref` depends on.
  void collect_syms(ExprRef ref, std::unordered_set<std::uint32_t>& out) const;

  /// Human-readable rendering for debugging and fault evidence.
  [[nodiscard]] std::string to_string(ExprRef ref) const;

 private:
  struct NodeKey {
    Op op;
    std::uint8_t width;
    ExprRef a;
    ExprRef b;
    std::uint64_t value;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    [[nodiscard]] std::size_t operator()(const NodeKey& k) const noexcept;
  };

  [[nodiscard]] ExprRef intern(const NodeKey& key);
  [[nodiscard]] static std::uint64_t mask(std::uint64_t v, std::uint8_t width) noexcept {
    return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
  }
  [[nodiscard]] bool is_const(ExprRef ref) const {
    return ref != kNullExpr && nodes_[ref].op == Op::kConst;
  }
  [[nodiscard]] std::uint64_t fold_binary(Op op, std::uint64_t a, std::uint64_t b,
                                          std::uint8_t width) const noexcept;

  std::vector<ExprNode> nodes_;
  std::unordered_map<NodeKey, ExprRef, NodeKeyHash> interned_;
  // eval() scratch: a node is cached for the current call iff its epoch
  // equals epoch_. 64 bits, because a wrapped 32-bit epoch would read
  // never-evaluated nodes (epoch 0) as cached zeros after 2^32 calls.
  mutable std::vector<std::uint64_t> eval_cache_;
  mutable std::vector<std::uint64_t> eval_epoch_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<ExprRef> eval_stack_;
};

}  // namespace dice::concolic
