#include "serve/model_registry.h"

#include <utility>

namespace lbc::serve {

namespace {

using AnySpec = std::variant<ModelSpec, GraphModelSpec>;

// Whether a compile fault degraded any of the plan's convs: such a plan
// answers the acquire but is not kept, so the next acquire compiles again.
bool fault_degraded(const core::GraphPlan& plan) {
  for (i64 i = 0; i < plan.node_count(); ++i) {
    const armkern::ArmConvPlan* conv = plan.conv_plan(i);
    if (conv != nullptr && conv->fault_degraded) return true;
  }
  return false;
}

// Whether two specs compile to one PlanCache entry: both are conv models
// and the cache keys a plan by geometry, bits, impl, algo, threads, backend
// and weights (the layer name is not part of it). Graph plans never share.
bool same_plan(const AnySpec& va, const AnySpec& vb) {
  const ModelSpec* a = std::get_if<ModelSpec>(&va);
  const ModelSpec* b = std::get_if<ModelSpec>(&vb);
  if (a == nullptr || b == nullptr) return false;
  const ConvShape &x = a->shape, &y = b->shape;
  return x.batch == y.batch && x.in_c == y.in_c && x.in_h == y.in_h &&
         x.in_w == y.in_w && x.out_c == y.out_c && x.kernel == y.kernel &&
         x.stride == y.stride && x.pad == y.pad && a->bits == b->bits &&
         a->impl == b->impl && a->algo == b->algo &&
         a->threads == b->threads && a->backend == b->backend &&
         a->weight == b->weight;
}

}  // namespace

ModelRegistry::ModelRegistry(const RegistryOptions& opt) : opt_(opt) {
  if (opt_.plan_budget_bytes < 0) opt_.plan_budget_bytes = 0;
}

Status ModelRegistry::register_model(const std::string& name, ModelSpec spec) {
  LBC_VALIDATE(spec.shape.valid(), kInvalidArgument,
               "model '" << name
                         << "' has an invalid conv shape: "
                         << describe(spec.shape));
  LBC_VALIDATE(spec.shape.batch == 1, kInvalidArgument,
               "model '" << name << "' must have a batch-1 layer shape, got "
                         << spec.shape.batch);
  LBC_VALIDATE(spec.bits >= 2 && spec.bits <= 8, kInvalidArgument,
               "model '" << name << "' bits must be in [2, 8], got "
                         << spec.bits);
  const Shape4 want_w{spec.shape.out_c, spec.shape.in_c, spec.shape.kernel,
                      spec.shape.kernel};
  LBC_VALIDATE(spec.weight.shape() == want_w, kInvalidArgument,
               "model '" << name << "' weight tensor does not match its "
                         << "layer shape " << describe(spec.shape));
  LBC_VALIDATE(spec.threads >= 1 && spec.threads <= 64, kInvalidArgument,
               "model '" << name << "' threads must be in [1, 64], got "
                         << spec.threads);
  return insert(name, std::move(spec));
}

Status ModelRegistry::register_graph_model(const std::string& name,
                                           GraphModelSpec spec) {
  LBC_VALIDATE(spec.graph != nullptr, kInvalidArgument,
               "graph model '" << name << "' has a null graph");
  LBC_VALIDATE(spec.graph->node_count() > 0, kInvalidArgument,
               "graph model '" << name << "' has an empty graph");
  LBC_VALIDATE(spec.graph->calibrated(), kInvalidArgument,
               "graph model '" << name
                               << "' must be calibrated before registration");
  LBC_VALIDATE(spec.options.threads >= 1 && spec.options.threads <= 64,
               kInvalidArgument, "graph model '"
                                     << name << "' threads must be in "
                                     << "[1, 64], got "
                                     << spec.options.threads);
  return insert(name, std::move(spec));
}

Status ModelRegistry::insert(const std::string& name, AnySpec spec) {
  LBC_VALIDATE(!name.empty(), kInvalidArgument,
               "model name must be non-empty");
  MutexLock lock(mu_);
  LBC_VALIDATE(!entries_.contains(name), kInvalidArgument,
               "model '" << name << "' is already registered");
  auto entry = std::make_unique<Entry>();
  entry->spec = std::move(spec);
  entries_.emplace(name, std::move(entry));
  return Status();
}

Status ModelRegistry::unregister_model(const std::string& name) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  LBC_VALIDATE(it != entries_.end(), kNotFound,
               "model '" << name << "' is not registered");
  evict_locked(*it->second);
  entries_.erase(it);
  return Status();
}

StatusOr<ModelRegistry::Entry*> ModelRegistry::find_locked(
    const std::string& name, bool graph) {
  auto it = entries_.find(name);
  LBC_VALIDATE(it != entries_.end() &&
                   std::holds_alternative<GraphModelSpec>(it->second->spec) ==
                       graph,
               kNotFound,
               (graph ? "graph model '" : "model '")
                   << name << "' is not registered");
  return it->second.get();
}

StatusOr<std::shared_ptr<const core::ConvPlan>> ModelRegistry::acquire_plan(
    const std::string& name) {
  Entry* entry = nullptr;
  {
    MutexLock lock(mu_);
    LBC_ASSIGN_OR_RETURN(entry, find_locked(name, /*graph=*/false));
  }
  // Compile (or hit) outside mu_ — a slow compile of one model must not
  // block lookups of another. `entry` stays valid: unregister_model is the
  // only eraser and callers must not race it with acquires of the same name.
  const ModelSpec& s = std::get<ModelSpec>(entry->spec);
  LBC_ASSIGN_OR_RETURN(
      std::shared_ptr<const core::ConvPlan> plan,
      cache_.get_or_compile(s.shape, s.weight, s.bits, s.impl, s.algo,
                            s.threads, s.backend));
  MutexLock lock(mu_);
  ++acquires_;
  touch_locked(*entry);
  return plan;
}

StatusOr<std::shared_ptr<const core::GraphPlan>>
ModelRegistry::acquire_graph_plan(const std::string& name) {
  Entry* entry = nullptr;
  {
    MutexLock lock(mu_);
    LBC_ASSIGN_OR_RETURN(entry, find_locked(name, /*graph=*/true));
    if (entry->graph_plan != nullptr) {
      std::shared_ptr<const core::GraphPlan> plan = entry->graph_plan;
      ++graph_acquires_;
      touch_locked(*entry);
      return plan;
    }
  }
  // Compile outside mu_ — the whole-net compile (joint search + weight
  // prepack across every layer) is the slowest thing the registry does and
  // must not block lookups. Same validity contract as acquire_plan.
  const GraphModelSpec& s = std::get<GraphModelSpec>(entry->spec);
  LBC_ASSIGN_OR_RETURN(core::GraphPlan compiled,
                       core::GraphPlan::compile(*s.graph, s.options));
  auto plan = std::make_shared<const core::GraphPlan>(std::move(compiled));

  MutexLock lock(mu_);
  if (entry->graph_plan != nullptr) {
    plan = entry->graph_plan;  // lost a compile race: serve the resident plan
  } else if (!fault_degraded(*plan)) {
    entry->graph_plan = plan;
    graph_bytes_ += plan->packed_weight_bytes();
  }
  ++graph_acquires_;
  touch_locked(*entry);
  return plan;
}

bool ModelRegistry::resident_locked(const Entry& e) const {
  if (const ModelSpec* s = std::get_if<ModelSpec>(&e.spec))
    return cache_.resident(s->shape, s->weight, s->bits, s->impl, s->algo,
                           s->threads, s->backend);
  return e.graph_plan != nullptr;
}

void ModelRegistry::evict_locked(Entry& e) {
  if (const ModelSpec* s = std::get_if<ModelSpec>(&e.spec)) {
    cache_.evict(s->shape, s->weight, s->bits, s->impl, s->algo, s->threads,
                 s->backend);
  } else if (e.graph_plan != nullptr) {
    graph_bytes_ -= e.graph_plan->packed_weight_bytes();
    e.graph_plan.reset();
    ++graph_evictions_;
  }
}

void ModelRegistry::touch_locked(Entry& keep) {
  keep.last_used = ++tick_;
  if (opt_.plan_budget_bytes <= 0) return;
  while (cache_.resident_packed_bytes() + graph_bytes_ >
         opt_.plan_budget_bytes) {
    // The least-recently-used entry of either kind other than `keep` whose
    // plan is still resident; never-acquired entries (last_used == 0) go
    // first, ties by name. A twin of a kept conv model shares its cache
    // entry, so evicting the twin would evict the plan just acquired.
    Entry* victim = nullptr;
    for (auto& [vname, e] : entries_) {
      if (e.get() == &keep || same_plan(e->spec, keep.spec) ||
          !resident_locked(*e))
        continue;
      if (victim == nullptr || e->last_used < victim->last_used)
        victim = e.get();
    }
    // Nothing evictable: only the kept plan remains — a single over-budget
    // plan is allowed to stand.
    if (victim == nullptr) return;
    evict_locked(*victim);
  }
}

bool ModelRegistry::contains(const std::string& name) const {
  MutexLock lock(mu_);
  return entries_.contains(name);
}

bool ModelRegistry::plan_resident(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && resident_locked(*it->second);
}

RegistryStats ModelRegistry::stats() const {
  MutexLock lock(mu_);
  RegistryStats s;
  for (const auto& [name, e] : entries_)
    ++(std::holds_alternative<ModelSpec>(e->spec) ? s.models : s.graph_models);
  s.acquires = acquires_;
  s.graph_acquires = graph_acquires_;
  s.plan_evictions = cache_.evictions();
  s.graph_evictions = graph_evictions_;
  s.resident_plan_bytes = cache_.resident_packed_bytes();
  s.resident_graph_bytes = graph_bytes_;
  s.budget_bytes = opt_.plan_budget_bytes;
  return s;
}

}  // namespace lbc::serve
