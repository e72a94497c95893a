// Compatibility bridges (§5 "we expect the use of Knactor with existing
// systems can be facilitated through the use of proxies or porting
// mechanisms"): adapters between the API-centric world (RPC) and the
// data-centric world (stores + integrators), enabling incremental
// migration in both directions.
//
//   RpcIngressBridge: exposes a knactor's data store AS an RPC service.
//     A legacy client's call becomes a request object in the store; the
//     knactor's reconciler (or an integrator) fills the response field;
//     the bridge replies to the caller.
//
//   RpcEgressBridge: lets the data-centric side consume a legacy RPC
//     service THROUGH state. Writing a request object into a store issues
//     the RPC; the response is patched back into the object, where
//     integrators and reconcilers see it like any other state.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"
#include "core/causality.h"
#include "core/trace.h"
#include "de/object.h"
#include "net/rpc.h"

namespace knactor::core {

/// Ingress: RPC -> store. One bridge per (service, store).
class RpcIngressBridge {
 public:
  struct MethodBinding {
    /// Request objects are written under "<key_prefix><call-id>".
    std::string key_prefix = "rpc/";
    /// The call completes when this field appears on the request object.
    std::string response_field = "response";
    /// Give up after this much sim time (0 = never).
    sim::SimTime timeout = 0;
  };

  RpcIngressBridge(net::SimNetwork& network, std::string node,
                   const net::SchemaPool& pool, de::ObjectStore& store);
  ~RpcIngressBridge();

  RpcIngressBridge(const RpcIngressBridge&) = delete;
  RpcIngressBridge& operator=(const RpcIngressBridge&) = delete;

  /// Exposes `service`; every method must have a binding. Registers the
  /// hosting node with `registry` like a normal RPC server.
  common::Status expose(const net::ServiceDescriptor& service,
                        std::map<std::string, MethodBinding> bindings,
                        net::RpcRegistry& registry);

  /// The principal the bridge acts as against the store.
  [[nodiscard]] std::string principal() const { return "bridge:" + node_; }

  [[nodiscard]] std::uint64_t calls_bridged() const { return bridged_; }

 private:
  net::SimNetwork& network_;
  std::string node_;
  std::unique_ptr<net::RpcServer> server_;
  de::ObjectStore& store_;
  std::uint64_t next_call_ = 1;
  std::uint64_t bridged_ = 0;
};

/// Egress: store -> RPC. Watches a key prefix; objects without the
/// response field trigger a call to the legacy service; the decoded
/// response is patched into the object under `response_field`.
class RpcEgressBridge {
 public:
  struct Options {
    std::string key_prefix = "egress/";
    std::string response_field = "response";
    /// Field of the request object naming the method (absent => `method`).
    std::string method = "";
    /// Content filter over request objects (`expr::` predicate; "" = all).
    /// Compiled into the unified subscription layer, so a request write
    /// the predicate rejects never reaches the bridge — no RPC, no queue
    /// slot, no callback.
    std::string filter;
    /// Per-subscriber delivery contract (window/deadline/history/stage).
    /// With `qos.window` > 0 a burst of request writes arrives as one
    /// coalesced WatchBatch and the bridge issues the RPCs from the batch.
    /// The deadline feeds `stage:` SLO selectors via `sub.deliver` spans.
    de::SubscriptionQos qos;
    /// Optional: each bridged call gets a span parented under the request
    /// write's causal context, and the response patch inherits its trace.
    Tracer* tracer = nullptr;
  };

  RpcEgressBridge(net::SimNetwork& network, std::string node,
                  const net::RpcRegistry& registry,
                  const net::SchemaPool& pool, de::ObjectStore& store,
                  net::ServiceDescriptor stub, Options options);

  RpcEgressBridge(const RpcEgressBridge&) = delete;
  RpcEgressBridge& operator=(const RpcEgressBridge&) = delete;

  common::Status start();
  void stop();

  [[nodiscard]] std::string principal() const { return "bridge:" + node_; }
  [[nodiscard]] std::uint64_t calls_issued() const { return issued_; }
  [[nodiscard]] std::uint64_t batches_consumed() const { return batches_; }

 private:
  void on_event(const de::WatchEvent& event);

  de::ObjectStore& store_;
  net::ServiceDescriptor stub_;
  Options options_;
  std::string node_;
  std::unique_ptr<net::RpcChannel> channel_;
  std::uint64_t watch_id_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace knactor::core
