// Embedding-gradient synchronization strategies — the heart of the paper.
//
// Problem (Section II): after backward, every rank holds a dense K x D
// gradient block ∆ whose rows map to *different* vocabulary rows on
// different ranks, so a plain ALLREDUCE is impossible.
//
//  * DenseExchange — the state-of-the-art baseline: ALLGATHER all G
//    blocks (Θ(G·K·D) memory and wire bytes per rank), then apply all
//    G·K token gradients locally in rank-major token order.
//  * UniqueExchange — Section III-A: exploit U ≪ N.  Locally reduce ∆ by
//    unique word, ALLGATHER only the K indices (Θ(G·K)), compute the
//    globally-consistent unique index set Î, scatter local sums into the
//    shared U_g x D layout M, ALLREDUCE M (Θ(U_g·D)), apply.
//
// Both strategies return the identical logical result: the globally
// summed gradient for every touched vocabulary row, with a vocabulary-
// consistent (sorted) id order on every rank.
//
// Wire precision is selectable (Section III-C): FP32, or FP16 with
// compression-scaling.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/communicator.hpp"
#include "zipflm/device/device.hpp"
#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

enum class WirePrecision : std::uint8_t { FP32, FP16 };

struct ExchangeOptions {
  WirePrecision precision = WirePrecision::FP32;
  /// Compression-scaling factor F for FP16 (paper: 256 / 512 / 1024).
  float compression_scale = 1024.0f;
  /// Gradient wire codec armed (via WireCodecScope) around the
  /// strategy's sum-allreduces.
  WireCodec codec = WireCodec::None;
};

/// An index ALLGATHER kicked off eagerly — the token ids are known at
/// batch time, long before backward produces the gradient rows — so the
/// Θ(G·K) id exchange rides the comm thread under forward+backward.
/// Arm with begin_id_gather(), flush the engine, then hand the result
/// to exchange(); every strategy consumes it in place of its own id
/// ALLGATHER.
struct PendingIdGather {
  bool armed = false;
  std::vector<Index> ids;      ///< this rank's contribution (owned copy)
  std::vector<Index> all_ids;  ///< gathered, rank-major — job output
};

void begin_id_gather(AsyncCommEngine& engine, std::span<const Index> ids,
                     PendingIdGather& out);

/// The id ALLGATHER every strategy starts from: consume an armed
/// PendingIdGather (asserting it was built from these ids) or run the
/// collective inline.
void gather_ids(Communicator& comm, std::span<const Index> ids,
                const PendingIdGather* pending, std::vector<Index>& all_ids);

class EmbeddingExchange {
 public:
  virtual ~EmbeddingExchange() = default;

  /// Synchronize one step's sparse embedding gradient.
  ///
  /// ids:   this rank's K token ids (repeats allowed);
  /// delta: [K x D] per-token gradient rows;
  /// out_ids / out_rows: globally unique touched rows and their global
  ///   gradient sums — identical content on every rank;
  /// pool:  optional simulated-GPU pool charged for the scratch this
  ///   strategy needs (this is where the baseline OOMs);
  /// pending: an already-gathered id set from begin_id_gather (must
  ///   have been built from these same ids and flushed), or nullptr to
  ///   gather inline.
  virtual void exchange(Communicator& comm, std::span<const Index> ids,
                        const Tensor& delta, std::vector<Index>& out_ids,
                        Tensor& out_rows, MemoryPool* pool = nullptr,
                        const PendingIdGather* pending = nullptr) = 0;

  virtual const char* name() const noexcept = 0;
};

class DenseExchange final : public EmbeddingExchange {
 public:
  explicit DenseExchange(ExchangeOptions options = {}) : options_(options) {}

  void exchange(Communicator& comm, std::span<const Index> ids,
                const Tensor& delta, std::vector<Index>& out_ids,
                Tensor& out_rows, MemoryPool* pool = nullptr,
                const PendingIdGather* pending = nullptr) override;
  const char* name() const noexcept override { return "dense-allgather"; }

 private:
  ExchangeOptions options_;
};

class UniqueExchange final : public EmbeddingExchange {
 public:
  explicit UniqueExchange(ExchangeOptions options = {}) : options_(options) {}

  void exchange(Communicator& comm, std::span<const Index> ids,
                const Tensor& delta, std::vector<Index>& out_ids,
                Tensor& out_rows, MemoryPool* pool = nullptr,
                const PendingIdGather* pending = nullptr) override;
  const char* name() const noexcept override { return "unique"; }

 private:
  ExchangeOptions options_;
};

/// The third road not taken by the paper: materialize the sparse
/// gradient into a dense |V| x D table (TF's IndexedSlices-to-dense
/// conversion) and ALLREDUCE the whole table — Θ(V·D) wire and scratch
/// regardless of the batch.  Beats the ALLGATHER baseline once
/// G·K > |V|, but is always dominated by UNIQUE (U_g <= min(V, G·K));
/// bench_ablation_table_allreduce maps the crossovers.
class TableAllreduceExchange final : public EmbeddingExchange {
 public:
  TableAllreduceExchange(Index vocab, ExchangeOptions options = {})
      : vocab_(vocab), options_(options) {
    ZIPFLM_CHECK(vocab > 0, "table exchange needs the vocabulary size");
  }

  void exchange(Communicator& comm, std::span<const Index> ids,
                const Tensor& delta, std::vector<Index>& out_ids,
                Tensor& out_rows, MemoryPool* pool = nullptr,
                const PendingIdGather* pending = nullptr) override;
  const char* name() const noexcept override { return "table-allreduce"; }

 private:
  Index vocab_;
  ExchangeOptions options_;
};

/// Local reduction (steps 1–2 of the paper's procedure): collapse the
/// K x D token-gradient block to a U_local x D unique-word block.
/// unique_ids comes back sorted; accumulation happens in ascending token
/// position order for determinism.  Exposed for tests and reuse.
void local_reduce_by_word(std::span<const Index> ids, const Tensor& delta,
                          std::vector<Index>& unique_ids, Tensor& reduced);

/// Closed-form *total* wire bytes (summed over all ranks, one direction)
/// of each strategy, verified bit-exactly against the executing
/// implementations' ledgers by tests.
///   dense:  G·(G-1)·K·(8 + D·w)            — ALLGATHER ids + gradients
///   unique: G·(G-1)·K·8 + 2·(G-1)·U_g·D·w  — ALLGATHER ids + ALLREDUCE M
std::uint64_t dense_exchange_total_wire_bytes(int world, std::uint64_t tokens,
                                              std::uint64_t dim,
                                              WirePrecision precision);
std::uint64_t unique_exchange_total_wire_bytes(int world, std::uint64_t tokens,
                                               std::uint64_t global_unique,
                                               std::uint64_t dim,
                                               WirePrecision precision);

}  // namespace zipflm
