#include "core/ppdl_model.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "common/artifact_io.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "nn/model_io.hpp"

namespace ppdl::core {

PowerPlanningDL::PowerPlanningDL(PpdlModelConfig config)
    : config_(std::move(config)),
      extractor_(config_.feature_window_pitches) {
  PPDL_REQUIRE(config_.hidden_layers > 0 && config_.hidden_units > 0,
               "model needs positive architecture sizes");
}

TrainReport PowerPlanningDL::fit(const grid::PowerGrid& golden) {
  const Timer timer;
  TrainReport report;
  models_.clear();

  const std::vector<Dataset> datasets =
      build_layer_datasets(golden, config_.features, extractor_);
  PPDL_REQUIRE(!datasets.empty(), "golden grid has no wires to learn from");

  // Layer sub-models are independent, so they train concurrently. Each
  // sub-model draws its initial weights from its own counter-based RNG
  // stream keyed by the dataset index — a pure function of (seed, index),
  // so the fitted weights are bit-identical for any thread count. Results
  // land in per-layer slots and are merged in dataset order.
  const auto n_layers = static_cast<Index>(datasets.size());
  std::vector<LayerFit> fits(static_cast<std::size_t>(n_layers));
  std::vector<std::unique_ptr<LayerModel>> trained(
      static_cast<std::size_t>(n_layers));
  parallel::for_range(n_layers, 1, [&](Index lb, Index le) {
    for (Index li = lb; li < le; ++li) {
      const Dataset& all_rows = datasets[static_cast<std::size_t>(li)];
      // Deterministic subsample when the layer population exceeds the cap.
      Dataset sampled;
      const Dataset* d = &all_rows;
      if (config_.max_training_rows > 0 &&
          all_rows.x.rows() > config_.max_training_rows) {
        std::vector<Index> order(static_cast<std::size_t>(all_rows.x.rows()));
        for (Index i = 0; i < all_rows.x.rows(); ++i) {
          order[static_cast<std::size_t>(i)] = i;
        }
        Rng sample_rng(config_.init_seed ^ 0x5eedULL);
        sample_rng.shuffle(order);
        // ppdl-lint: allow(unguarded-ingest-alloc) -- shrinking to an
        // in-process config cap (not a decoded length), bounded by the
        // x.rows() check above
        order.resize(static_cast<std::size_t>(config_.max_training_rows));
        sampled = take_rows(all_rows, order);
        d = &sampled;
      }

      nn::MlpConfig arch = nn::MlpConfig::paper_default(
          config_.features.count(), 1, config_.hidden_layers,
          config_.hidden_units);
      Rng init_rng =
          Rng::stream(config_.init_seed, static_cast<U64>(li));
      auto lm = std::make_unique<LayerModel>(
          LayerModel{nn::Mlp(arch, init_rng), {}, {}});

      nn::Matrix targets = d->y;
      if (config_.log_target) {
        for (Real& v : targets.data()) {
          PPDL_REQUIRE(v > 0.0,
                       "log-target training requires positive widths");
          v = std::log(v);
        }
      }
      lm->x_scaler.fit(d->x);
      lm->y_scaler.fit(targets);
      const nn::Matrix xs = lm->x_scaler.transform(d->x);
      const nn::Matrix ys = lm->y_scaler.transform(targets);

      LayerFit fit;
      fit.layer = d->layer;
      fit.rows = d->x.rows();
      fit.history = nn::train(lm->mlp, xs, ys, config_.train);
      fits[static_cast<std::size_t>(li)] = std::move(fit);
      trained[static_cast<std::size_t>(li)] = std::move(lm);
    }
  });
  for (Index li = 0; li < n_layers; ++li) {
    const Index layer = fits[static_cast<std::size_t>(li)].layer;
    report.layers.push_back(std::move(fits[static_cast<std::size_t>(li)]));
    models_.emplace(layer, std::move(*trained[static_cast<std::size_t>(li)]));
  }
  report.train_seconds = timer.seconds();
  return report;
}

WidthPrediction PowerPlanningDL::predict(const grid::PowerGrid& pg) const {
  PPDL_REQUIRE(trained(), "predict called before fit");
  const Timer timer;
  WidthPrediction out;

  const std::vector<Dataset> datasets =
      build_layer_datasets(pg, config_.features, extractor_);
  std::size_t total_rows = 0;
  for (const Dataset& d : datasets) {
    total_rows += d.branch.size();
  }
  // ppdl-lint: allow(unguarded-ingest-alloc) -- total_rows sums the sizes
  // of the in-memory datasets just built from `pg`, not a decoded length
  out.branch.reserve(total_rows);
  // ppdl-lint: allow(unguarded-ingest-alloc) -- same in-memory row count
  out.predicted.reserve(total_rows);
  for (const Dataset& d : datasets) {
    const auto it = models_.find(d.layer);
    if (it == models_.end()) {
      // Unseen layer: fall back to its default width.
      const Real w = pg.layer(d.layer).default_width;
      for (const Index bi : d.branch) {
        out.branch.push_back(bi);
        out.predicted.push_back(w);
      }
      continue;
    }
    const LayerModel& lm = it->second;
    const nn::Matrix xs = lm.x_scaler.transform(d.x);
    const nn::Matrix zs = lm.mlp.predict(xs);
    const nn::Matrix ys = lm.y_scaler.inverse_transform(zs);
    // A regressor can emit non-physical widths in the tail; floor at a
    // sliver of the layer default so resistances stay finite.
    const Real floor_w = pg.layer(d.layer).default_width * 0.05;
    for (Index r = 0; r < ys.rows(); ++r) {
      out.branch.push_back(d.branch[static_cast<std::size_t>(r)]);
      const Real w = config_.log_target ? std::exp(ys(r, 0)) : ys(r, 0);
      out.predicted.push_back(std::max(w, floor_w));
    }
  }
  out.predict_seconds = timer.seconds();
  return out;
}

void PowerPlanningDL::save(std::ostream& out) const {
  PPDL_REQUIRE(trained(), "cannot save an untrained model");
  out << "ppdl-model 1\n";
  out << "features " << (config_.features.use_x ? 1 : 0) << ' '
      << (config_.features.use_y ? 1 : 0) << ' '
      << (config_.features.use_id ? 1 : 0) << "\n";
  out << "log_target " << (config_.log_target ? 1 : 0) << "\n";
  out << "window " << config_.feature_window_pitches << "\n";
  out << "layers " << models_.size() << "\n";
  for (const auto& [layer, lm] : models_) {
    out << "layer_model " << layer << "\n";
    nn::save_model(lm.mlp, out);
    nn::save_scaler(lm.x_scaler, out);
    nn::save_scaler(lm.y_scaler, out);
  }
}

void PowerPlanningDL::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  write_artifact_file(path, Artifact{"ppdl-model", 1, payload.str()});
}

PowerPlanningDL PowerPlanningDL::load(std::istream& in) {
  std::string tok;
  Index version = 0;
  if (!(in >> tok >> version) || tok != "ppdl-model" || version != 1) {
    throw nn::ModelIoError("not a PowerPlanningDL model file");
  }
  PpdlModelConfig config;
  int use_x = 0;
  int use_y = 0;
  int use_id = 0;
  int log_target = 0;
  if (!(in >> tok >> use_x >> use_y >> use_id) || tok != "features") {
    throw nn::ModelIoError("malformed features line");
  }
  config.features = FeatureSet{use_x != 0, use_y != 0, use_id != 0};
  if (!(in >> tok >> log_target) || tok != "log_target") {
    throw nn::ModelIoError("malformed log_target line");
  }
  config.log_target = log_target != 0;
  if (!(in >> tok >> config.feature_window_pitches) || tok != "window") {
    throw nn::ModelIoError("malformed window line");
  }
  Index layer_count = 0;
  if (!(in >> tok >> layer_count) || tok != "layers" || layer_count <= 0) {
    throw nn::ModelIoError("malformed layers line");
  }

  PowerPlanningDL model(config);
  for (Index i = 0; i < layer_count; ++i) {
    Index layer = -1;
    if (!(in >> tok >> layer) || tok != "layer_model" || layer < 0) {
      throw nn::ModelIoError("malformed layer_model header");
    }
    nn::Mlp mlp = nn::load_model(in);
    if (mlp.config().inputs != config.features.count()) {
      throw nn::ModelIoError("layer model input width mismatch");
    }
    nn::StandardScaler xs = nn::load_scaler(in);
    nn::StandardScaler ys = nn::load_scaler(in);
    model.models_.emplace(layer,
                          LayerModel{std::move(mlp), std::move(xs),
                                     std::move(ys)});
  }
  return model;
}

PowerPlanningDL PowerPlanningDL::load_file(const std::string& path) {
  const Artifact artifact = read_artifact_file(path, "ppdl-model");
  std::istringstream in(artifact.payload);
  PowerPlanningDL model = load(in);
  std::string trailing;
  if (in >> trailing) {
    throw nn::ModelIoError("trailing garbage after model payload in " + path);
  }
  return model;
}

void PowerPlanningDL::apply_widths(grid::PowerGrid& pg,
                                   const WidthPrediction& prediction) {
  PPDL_REQUIRE(prediction.branch.size() == prediction.predicted.size(),
               "prediction arrays mismatch");
  for (std::size_t i = 0; i < prediction.branch.size(); ++i) {
    pg.set_wire_width(prediction.branch[i], prediction.predicted[i]);
  }
}

}  // namespace ppdl::core
