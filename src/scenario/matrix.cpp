#include "scenario/matrix.hpp"

#include <unordered_map>

#include "common/contracts.hpp"

namespace sparkxd::scenario {

namespace {

std::string task_label(data::Task t) {
  return t == data::Task::kDigits ? "digits" : "fashion";
}

void require_named(const std::string& name, const char* axis) {
  SPARKXD_REQUIRE(!name.empty(),
                  std::string("unnamed ") + axis + " axis value");
}

}  // namespace

std::vector<Scenario> ScenarioMatrix::expand() const {
  SPARKXD_REQUIRE(!tasks.empty(), "matrix task axis is empty");
  SPARKXD_REQUIRE(!sizes.empty(), "matrix size axis is empty");
  SPARKXD_REQUIRE(!geometries.empty(), "matrix geometry axis is empty");
  SPARKXD_REQUIRE(!error_models.empty(), "matrix error-model axis is empty");
  SPARKXD_REQUIRE(!layer_stacks.empty(), "matrix layer-stack axis is empty");
  SPARKXD_REQUIRE(!ecc_schemes.empty(), "matrix ecc axis is empty");
  SPARKXD_REQUIRE(!refresh_policies.empty(),
                  "matrix refresh-policy axis is empty");
  for (const auto& s : sizes) require_named(s.name, "size");
  for (const auto& g : geometries) require_named(g.name, "geometry");
  for (const auto& m : error_models) require_named(m.name, "error-model");
  for (const auto& ls : layer_stacks) require_named(ls.name, "layer-stack");
  for (const auto& e : ecc_schemes) require_named(e.name, "ecc");
  for (const auto& r : refresh_policies) require_named(r.name, "refresh");

  std::vector<Scenario> out;
  // Name -> the axis tuple that produced it. Suffixes are appended only for
  // multi-valued axes, so two different tuples CAN lower to the same name;
  // that would silently shadow one of them in a registry — fail loudly with
  // both tuples instead.
  std::unordered_map<std::string, std::string> sources;
  for (const auto task : tasks)
    for (const auto& size : sizes)
      for (const auto& geom : geometries)
        for (const auto& model : error_models)
          for (const auto& stack : layer_stacks)
            for (const auto& ecc : ecc_schemes)
              for (const auto& refresh : refresh_policies) {
                Scenario s;
                s.name = task_label(task) + "-" + size.name + "-" +
                         geom.name + "-" + model.name;
                if (layer_stacks.size() > 1) s.name += "-" + stack.name;
                if (ecc_schemes.size() > 1) s.name += "-" + ecc.name;
                if (refresh_policies.size() > 1) s.name += "-" + refresh.name;
                const std::string tuple =
                    "(task=" + task_label(task) + " size=" + size.name +
                    " geometry=" + geom.name + " model=" + model.name +
                    " layers=" + stack.name + " ecc=" + ecc.name +
                    " refresh=" + refresh.name + ")";
                const auto [it, inserted] = sources.emplace(s.name, tuple);
                SPARKXD_REQUIRE(inserted,
                                "scenario name collision: '" + s.name +
                                    "' produced by both " + it->second +
                                    " and " + tuple);
                s.description =
                    task_label(task) + " task, " +
                    std::to_string(size.n_neurons) + " neurons, " +
                    std::to_string(stack.hidden.size() + 1) + " layer(s), " +
                    geom.name + " DRAM, error model " + model.name +
                    ", ecc " + error::ecc_label(ecc.spec) +
                    ", refresh " + refresh_label(refresh.policy);
                s.task = task;
                s.network.n_neurons = size.n_neurons;
                s.network.hidden_neurons = stack.hidden;
                s.train_samples = size.train_samples;
                s.test_samples = size.test_samples;
                s.baseline_epochs = size.baseline_epochs;
                s.fault_training.ber_stages = {1e-5, 1e-3};
                s.salp = geom.salp;
                s.refresh = refresh.policy;
                s.error_model = model.spec;
                s.ecc = ecc.spec;
                s.voltages = voltages;
                s.seed = seed;
                s.validate();
                out.push_back(std::move(s));
              }
  return out;
}

}  // namespace sparkxd::scenario
