#include "core/bridge.h"

#include "common/logging.h"
#include "common/strings.h"

namespace knactor::core {

using common::Error;
using common::Result;
using common::Status;
using common::Value;

// ---------------------------------------------------------------------------
// Ingress.
// ---------------------------------------------------------------------------

RpcIngressBridge::RpcIngressBridge(net::SimNetwork& network, std::string node,
                                   const net::SchemaPool& pool,
                                   de::ObjectStore& store)
    : network_(network), node_(std::move(node)), store_(store) {
  server_ = std::make_unique<net::RpcServer>(network_, node_, pool);
}

RpcIngressBridge::~RpcIngressBridge() = default;

Status RpcIngressBridge::expose(const net::ServiceDescriptor& service,
                                std::map<std::string, MethodBinding> bindings,
                                net::RpcRegistry& registry) {
  for (const auto& method : service.methods) {
    if (bindings.find(method.name) == bindings.end()) {
      return Error::invalid_argument("ingress-bridge: no binding for method '" +
                                     method.name + "'");
    }
  }
  KN_TRY(server_->add_service(service, registry));

  for (const auto& method : service.methods) {
    MethodBinding binding = bindings[method.name];
    std::string method_name = method.name;
    KN_TRY(server_->add_handler(
        service.name, method_name,
        [this, binding, method_name](const Value& request,
                                     net::RpcServer::Respond respond) {
          // Materialize the call as a state object the knactor can see.
          std::string key =
              binding.key_prefix + std::to_string(next_call_++);
          Value object = request;
          object.set("method", Value(method_name));

          // Reply once the response field shows up.
          auto watch_id = std::make_shared<std::uint64_t>(0);
          auto done = std::make_shared<bool>(false);
          *watch_id = store_.watch(
              principal(), key,
              [this, key, binding, respond, watch_id,
               done](const de::WatchEvent& event) {
                if (*done || event.object.key != key ||
                    event.type == de::WatchEventType::kDeleted ||
                    !event.object.data) {
                  return;
                }
                const Value* response =
                    event.object.data->get(binding.response_field);
                if (response == nullptr || response->is_null()) return;
                *done = true;
                ++bridged_;
                store_.unwatch(*watch_id);
                Value reply = *response;
                // Clean the request object up (fire and forget).
                store_.remove(principal(), key, [](Status) {});
                respond(std::move(reply));
              });
          if (*watch_id == 0) {
            respond(Error::permission_denied(
                "ingress-bridge: watch denied on store"));
            return;
          }
          if (binding.timeout > 0) {
            network_.clock().schedule_after(
                binding.timeout, [this, respond, watch_id, done]() {
                  if (*done) return;
                  *done = true;
                  store_.unwatch(*watch_id);
                  respond(Error::unavailable(
                      "ingress-bridge: service did not respond"));
                });
          }
          store_.put(principal(), key, std::move(object),
                     [respond, done](Result<std::uint64_t> r) {
                       if (!r.ok() && !*done) {
                         respond(r.error());
                       }
                     });
        }));
  }
  return Status::success();
}

// ---------------------------------------------------------------------------
// Egress.
// ---------------------------------------------------------------------------

RpcEgressBridge::RpcEgressBridge(net::SimNetwork& network, std::string node,
                                 const net::RpcRegistry& registry,
                                 const net::SchemaPool& pool,
                                 de::ObjectStore& store,
                                 net::ServiceDescriptor stub, Options options)
    : store_(store),
      stub_(std::move(stub)),
      options_(std::move(options)),
      node_(std::move(node)) {
  channel_ = std::make_unique<net::RpcChannel>(network, node_, registry, pool);
}

Status RpcEgressBridge::start() {
  if (watch_id_ != 0) return Status::success();
  de::SubscriptionSpec spec;
  spec.prefix = options_.key_prefix;
  spec.filter = options_.filter;
  spec.qos = options_.qos;
  if (spec.qos.window > 0) {
    auto sub = store_.subscribe_batch(principal(), std::move(spec),
                                      [this](const de::WatchBatch& batch) {
                                        ++batches_;
                                        for (const auto& event :
                                             batch.events) {
                                          on_event(event);
                                        }
                                      });
    KN_ASSIGN_OR_RETURN(watch_id_, std::move(sub));
  } else {
    auto sub = store_.subscribe(principal(), std::move(spec),
                                [this](const de::WatchEvent& event) {
                                  on_event(event);
                                });
    KN_ASSIGN_OR_RETURN(watch_id_, std::move(sub));
  }
  return Status::success();
}

void RpcEgressBridge::stop() {
  if (watch_id_ != 0) {
    // Drain: a window still buffering when the bridge stops is delivered
    // synchronously (the pending requests get their RPCs issued) rather
    // than silently dropped.
    store_.unsubscribe(watch_id_, /*drain=*/true);
    watch_id_ = 0;
  }
}

void RpcEgressBridge::on_event(const de::WatchEvent& event) {
  if (event.type == de::WatchEventType::kDeleted || !event.object.data) {
    return;
  }
  const Value& data = *event.object.data;
  if (data.get(options_.response_field) != nullptr) return;  // answered
  if (data.get("bridge_error") != nullptr) return;           // failed before

  // Determine the method.
  std::string method = options_.method;
  if (method.empty()) {
    const Value* m = data.get("method");
    if (m == nullptr || !m->is_string()) {
      KN_WARN << "egress-bridge: request object " << event.object.key
              << " has no method";
      return;
    }
    method = m->as_string();
  }
  const net::MethodDescriptor* mdesc = stub_.method(method);
  if (mdesc == nullptr) {
    KN_WARN << "egress-bridge: method '" << method << "' not in stub";
    return;
  }

  // The request payload is the object minus bridge bookkeeping fields.
  Value request = Value::object();
  for (const auto& [k, v] : data.as_object()) {
    if (k == "method" || k == options_.response_field || k == "bridge_error") {
      continue;
    }
    request.set(k, v);
  }
  ++issued_;
  std::string key = event.object.key;
  // Causal propagation: the response patch inherits the request write's
  // trace, and (when tracing) the whole RPC round trip is one span.
  const TraceContext req_ctx = event.ctx;
  const std::uint64_t req_version = event.object.version;
  common::SharedValue req_data = event.object.data;
  std::uint64_t span = 0;
  if (options_.tracer != nullptr) {
    span = options_.tracer->begin("bridge.call." + method,
                                  req_ctx.parent_span);
    options_.tracer->annotate(span, "stage", "I-S");
    if (req_ctx.active()) {
      options_.tracer->annotate(span, "trace",
                                std::to_string(req_ctx.trace_id));
    }
  }
  channel_->call(
      stub_, method, std::move(request),
      [this, key, req_ctx, req_version, req_data,
       span](Result<Value> response) {
        Value patch = Value::object();
        if (response.ok()) {
          patch.set(options_.response_field, response.take());
        } else {
          patch.set("bridge_error", Value(response.error().to_string()));
        }
        auto& kernel = store_.exchange().kernel();
        TraceContext write_ctx;
        write_ctx.trace_id = req_ctx.trace_id;
        write_ctx.parent_span = span != 0 ? span : req_ctx.parent_span;
        kernel.set_trace_context(write_ctx);
        store_.patch(
            principal(), key, std::move(patch),
            [this, key, req_version, req_data, write_ctx,
             span](Result<std::uint64_t> r) {
              if (!r.ok()) {
                KN_WARN << "egress-bridge: patch failed: "
                        << r.error().to_string();
              } else {
                auto& ring = store_.exchange().kernel().provenance();
                if (ring.enabled()) {
                  LineageRecord rec;
                  rec.output.store = store_.name();
                  rec.output.key = key;
                  rec.output.version = r.value();
                  // Byte-exact payload at the committed version (the live
                  // object may already have moved on).
                  if (const LineageRecord* committed =
                          ring.find(store_.name(), key, r.value());
                      committed != nullptr) {
                    rec.output.data = committed->output.data;
                  } else if (const de::StateObject* obj = store_.peek(key);
                             obj != nullptr) {
                    rec.output.data = obj->data;
                  }
                  rec.inputs.push_back(
                      {store_.name(), key, req_version, req_data});
                  rec.op = "bridge:" + node_;
                  rec.stage = "I-S";
                  rec.trace_id = write_ctx.trace_id;
                  rec.span_id = span;
                  rec.time = store_.exchange().clock().now();
                  ring.record(std::move(rec));
                }
              }
              if (options_.tracer != nullptr && span != 0) {
                options_.tracer->end(span);
              }
            });
        kernel.clear_trace_context();
      });
}

}  // namespace knactor::core
