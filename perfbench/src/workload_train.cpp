// train_qm9_sqvae and train_pdbbind_sqae: Trainer::fit as a user drives it.
//
// The measured phase is whole rounds; a round builds the model from the
// same initial weights and trains it for a fixed number of epochs, so
// every round does identical work and ends at the same held-out MSE
// whatever the machine's speed. Rounds repeat until args.seconds have
// passed.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "checks.h"
#include "chem/mol_hash.h"
#include "chem/smiles.h"
#include "data/io.h"
#include "data/molecule_dataset.h"
#include "data/molecule_gen.h"
#include "data/shard_dataset.h"
#include "data/shard_store.h"
#include "models/checkpoint.h"
#include "models/quantum_layer.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sqvae::Matrix;
using sqvae::Rng;
namespace models = sqvae::models;
namespace data = sqvae::data;
namespace chem = sqvae::chem;

struct TrainShape {
  bool pdbbind = false;
  std::size_t matrix_dim = 8;
  std::size_t train_rows = 0;
  std::size_t test_rows = 0;
  std::size_t epochs = 0;  // per round
  models::ScalableQuantumConfig model;
};

TrainShape shape_for(const std::string& workload) {
  TrainShape s;
  if (workload == "train_qm9_sqvae") {
    s.matrix_dim = 8;
    s.train_rows = 4096;
    s.test_rows = 512;
    s.epochs = 3;
    s.model.input_dim = 64;
    s.model.patches = 2;  // 5-qubit patches
    s.model.generative = true;
  } else {
    s.pdbbind = true;
    s.matrix_dim = 32;
    s.train_rows = 384;
    s.test_rows = 64;
    s.epochs = 2;
    s.model.input_dim = 1024;  // ScalableQuantumConfig defaults otherwise:
  }                            // 8 patches, 5 entangling layers
  return s;
}

std::unique_ptr<models::ScalableQuantumAutoencoder> make_model(
    const TrainShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return shape.model.generative ? models::make_sq_vae(shape.model, rng)
                                : models::make_sq_ae(shape.model, rng);
}

std::vector<Matrix> parameter_values(models::Autoencoder& model) {
  std::vector<Matrix> out;
  for (sqvae::ad::Parameter* p : models::checkpoint_parameters(model)) {
    out.push_back(p->value);
  }
  return out;
}

/// Autoencoder wrapper that records a span around every forward pass the
/// trainer makes (training samples and held-out evaluation alike).
class TracedAutoencoder final : public models::Autoencoder {
 public:
  explicit TracedAutoencoder(models::Autoencoder& inner) : inner_(inner) {}
  models::ForwardResult forward(models::Tape& tape, models::Var input,
                                Rng& rng) override {
    ScopedSpan span("model.forward");
    return inner_.forward(tape, input, rng);
  }
  models::Var decode(models::Tape& tape, models::Var z) override {
    return inner_.decode(tape, z);
  }
  models::Var encode_mean(models::Tape& tape, models::Var input) override {
    return inner_.encode_mean(tape, input);
  }
  std::size_t input_dim() const override { return inner_.input_dim(); }
  std::size_t latent_dim() const override { return inner_.latent_dim(); }
  bool is_generative() const override { return inner_.is_generative(); }
  std::vector<sqvae::ad::Parameter*> quantum_parameters() override {
    return inner_.quantum_parameters();
  }
  std::vector<sqvae::ad::Parameter*> classical_parameters() override {
    return inner_.classical_parameters();
  }
  void set_simulation_options(
      const sqvae::qsim::SimulationOptions& sim) override {
    inner_.set_simulation_options(sim);
  }
  bool stochastic_forward() const override {
    return inner_.stochastic_forward();
  }

 private:
  models::Autoencoder& inner_;
};

/// RowSource wrapper that records a span around every row the trainer
/// copies (a SMILES decode per row for a shard, a memcpy in memory).
class TracedRowSource final : public data::RowSource {
 public:
  explicit TracedRowSource(const data::RowSource& inner) : inner_(inner) {}
  std::size_t rows() const override { return inner_.rows(); }
  std::size_t cols() const override { return inner_.cols(); }
  void copy_row(std::size_t row, double* out) const override {
    ScopedSpan span("data.copy_row");
    inner_.copy_row(row, out);
  }

 private:
  const data::RowSource& inner_;
};

struct Ingest {
  std::string shard_path;
  std::size_t molecules = 0;
  std::size_t duplicates = 0;
  std::size_t written = 0;
  std::size_t distinct_canonical = 0;  // the benchmark's own count
  double shard_bytes = 0.0;
  bool ok = true;
  std::string error;
};

/// The ingest path of moldb_make over generated PDBbind-like ligands:
/// SMILES text -> parse -> canonical SMILES -> content hash -> ShardWriter.
/// One ligand in ten appears twice in the text, so the writer's duplicate
/// detection has work to do.
Ingest ingest_ligands(const Args& args, std::size_t unique_target) {
  Ingest in;
  Rng rng(mix_seed(args.seed, 1));
  const data::MoleculeGenConfig config = data::pdbbind_config(32);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < unique_target; ++i) {
    const auto smiles = chem::to_smiles(data::generate_molecule(config, rng));
    if (!smiles) continue;
    lines.push_back(*smiles);
    if (i % 10 == 9) lines.push_back(lines[lines.size() - 1 - (i % 7)]);
  }
  std::filesystem::create_directories(args.out_dir);
  in.shard_path = args.out_dir + "/ligands-" + std::to_string(args.seed) +
                  "-" + std::to_string(::getpid()) + ".moldb";

  std::set<std::string> distinct;
  {
    ScopedSpan span("ingest.write");
    data::ShardWriter writer(in.shard_path);
    for (const std::string& line : lines) {
      ++in.molecules;
      const auto mol = chem::from_smiles(line);
      const auto canonical = mol ? chem::to_smiles(*mol) : std::nullopt;
      if (!canonical) {
        in.ok = false;
        in.error = "generated SMILES did not round-trip: " + line;
        continue;
      }
      distinct.insert(*canonical);
      switch (writer.insert(chem::hash_bytes(*canonical), *canonical)) {
        case data::ShardWriter::Insert::kAdded:
          ++in.written;
          break;
        case data::ShardWriter::Insert::kDuplicate:
          ++in.duplicates;
          break;
        case data::ShardWriter::Insert::kError:
          in.ok = false;
          in.error = "shard write failed";
          break;
      }
    }
    std::string error;
    if (!writer.finish(&error)) {
      in.ok = false;
      in.error = "shard finish failed: " + error;
    }
  }
  in.distinct_canonical = distinct.size();
  std::error_code ec;
  in.shard_bytes = static_cast<double>(
      std::filesystem::file_size(in.shard_path, ec));
  return in;
}

/// Reads every record of the shard back through ShardReader.
std::vector<std::pair<chem::MolHash, std::string>> read_records(
    const std::string& path, std::string* error) {
  std::vector<std::pair<chem::MolHash, std::string>> out;
  auto reader = data::ShardReader::open(path, error);
  if (!reader) return out;
  for (std::size_t i = 0; i < reader->size(); ++i) {
    out.emplace_back(reader->key(i), std::string(reader->smiles(i)));
  }
  return out;
}

/// Microseconds per row of QuantumLayer::forward_values on the workload's
/// patch shape (amplitude-embedded encoder patch), median of five passes
/// over `rows` patch slices of the training rows.
double quantum_layer_us_per_row(const TrainShape& shape,
                                const data::RowSource& source) {
  models::QuantumLayerConfig q;
  q.num_qubits = shape.model.qubits_per_patch();
  q.entangling_layers = shape.model.entangling_layers;
  q.input = models::QuantumLayerConfig::InputMode::kAmplitude;
  q.output = models::QuantumLayerConfig::OutputMode::kExpectationZ;
  q.input_dim = static_cast<int>(shape.model.input_dim /
                                 static_cast<std::size_t>(shape.model.patches));
  Rng rng(7);
  const models::QuantumLayer layer(q, rng);
  const std::size_t rows = std::min<std::size_t>(256, source.rows());
  Matrix batch(rows, static_cast<std::size_t>(q.input_dim));
  std::vector<double> row(source.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    source.copy_row(r, row.data());
    for (int c = 0; c < q.input_dim; ++c) batch(r, c) = row[c];
  }
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan span("quantum_layer.forward_values");
    if (layer.forward_values(batch).rows() != rows) return 0.0;
  }
  return 1e6 *
         quantile(Tracer::instance().durations("quantum_layer.forward_values"),
                  0.5) /
         static_cast<double>(rows);
}

}  // namespace

Outcome run_train_workload(const Args& args, Clock::time_point process_start) {
  Outcome out;
  const TrainShape shape = shape_for(args.workload);
  Tracer& tracer = Tracer::instance();

  // ---- set-up: inputs, and for PDBbind the shard they stream from ------
  Matrix memory_train;
  Matrix test;
  std::unique_ptr<data::MatrixRowSource> memory_source;
  std::unique_ptr<data::ShardDataset> shard;
  std::unique_ptr<data::RowSlice> shard_train;
  Ingest ingest;
  const data::RowSource* source = nullptr;
  if (shape.pdbbind) {
    // Enough unique ligands for train + test even after the generator's
    // own rare repeats.
    ingest = ingest_ligands(args, (shape.train_rows + shape.test_rows) * 9 / 8);
    out.check(ingest.ok, ingest.error);
    try {
      ScopedSpan span("dataset.open");
      shard = std::make_unique<data::ShardDataset>(
          std::vector<std::string>{ingest.shard_path}, shape.matrix_dim);
    } catch (const std::exception& e) {
      out.check(false, std::string("ShardDataset open failed: ") + e.what());
      return out;
    }
    if (!out.check(shard->rows() >= shape.train_rows + shape.test_rows,
                   "shard holds too few unique ligands")) {
      return out;
    }
    shard_train =
        std::make_unique<data::RowSlice>(*shard, 0, shape.train_rows);
    test = data::materialize_rows(*shard, shape.train_rows, shape.test_rows);
    source = shard_train.get();
  } else {
    // As a user loads QM9: a SMILES file, parsed, encoded into matrices.
    Rng rng(mix_seed(args.seed, 1));
    const std::size_t count = shape.train_rows + shape.test_rows;
    const std::string smiles_path = args.out_dir + "/qm9-" +
                                    std::to_string(args.seed) + "-" +
                                    std::to_string(::getpid()) + ".smi";
    std::filesystem::create_directories(args.out_dir);
    const data::SaveSmilesResult saved = data::save_smiles(
        data::make_qm9_like(count, shape.matrix_dim, rng).molecules,
        smiles_path);
    data::CsvError load_error;
    auto loaded = data::load_smiles(smiles_path, &load_error);
    std::error_code ec;
    std::filesystem::remove(smiles_path, ec);
    if (!out.check(saved.io_ok && saved.skipped.empty() && loaded &&
                       loaded->size() == count,
                   "QM9 SMILES file did not round-trip: " +
                       load_error.message)) {
      return out;
    }
    const data::Dataset all =
        data::MoleculeDataset{std::move(*loaded), shape.matrix_dim}.features();
    memory_train = Matrix(shape.train_rows, all.num_features());
    test = Matrix(shape.test_rows, all.num_features());
    for (std::size_t i = 0; i < all.samples.size(); ++i) {
      if (i < memory_train.size()) {
        memory_train[i] = all.samples[i];
      } else {
        test[i - memory_train.size()] = all.samples[i];
      }
    }
    memory_source = std::make_unique<data::MatrixRowSource>(memory_train);
    source = memory_source.get();
  }
  const std::uint64_t model_seed = mix_seed(args.seed, 2);
  const std::uint64_t shuffle_seed = mix_seed(args.seed, 3);
  models::TrainConfig config;  // defaults: batch 32, Adam 1e-3, all threads
  config.epochs = shape.epochs;
  const double setup_s = seconds_since(process_start);

  // ---- warm-up: one short epoch on a throwaway model --------------------
  {
    models::TrainConfig warm = config;
    warm.epochs = 1;
    auto model = make_model(shape, model_seed);
    const data::RowSlice rows(*source, 0,
                              std::min<std::size_t>(64, source->rows()));
    Rng rng(shuffle_seed);
    models::Trainer(*model, warm).fit(rows, &test, rng);
  }

  // ---- measured phase ----------------------------------------------------
  const TracedRowSource traced_source(*source);
  const data::RowSource& fit_source =
      args.trace ? static_cast<const data::RowSource&>(traced_source) : *source;
  std::vector<std::vector<models::EpochStats>> rounds;
  std::vector<double> epoch_seconds;
  std::vector<double> round_rates;  // training samples / round wall time
  std::unique_ptr<models::ScalableQuantumAutoencoder> last_model;
  int threads = 1;
  const Clock::time_point measure_start = Clock::now();
  while (rounds.empty() || seconds_since(measure_start) < args.seconds) {
    const Clock::time_point round_start = Clock::now();
    auto model = make_model(shape, model_seed);
    TracedAutoencoder traced(*model);
    models::Autoencoder& fit_model =
        args.trace ? static_cast<models::Autoencoder&>(traced) : *model;
    threads = models::Trainer::resolve_threads(fit_model, config);
    models::Trainer trainer(fit_model, config);
    Rng rng(shuffle_seed);
    const std::uint64_t span = tracer.begin("trainer.fit");
    rounds.push_back(trainer.fit(fit_source, &test, rng,
                                 [&](const models::EpochStats& s) {
                                   epoch_seconds.push_back(s.seconds);
                                 }));
    tracer.end(span);
    round_rates.push_back(
        static_cast<double>(shape.train_rows * shape.epochs) /
        seconds_since(round_start));
    last_model = std::move(model);
  }
  const double epochs_run =
      static_cast<double>(rounds.size() * shape.epochs);
  out.attempted = static_cast<std::uint64_t>(rounds.size() * shape.epochs);

  // ---- checks --------------------------------------------------------------
  const std::vector<models::EpochStats>& first = rounds.front();
  out.check(first.size() == shape.epochs, "fit ran a different epoch count");
  out.check(first.back().train_loss < first.front().train_loss,
            "training loss after the last epoch is not below the first");
  for (const auto& r : rounds) {
    bool same = r.size() == first.size();
    for (std::size_t e = 0; same && e < r.size(); ++e) {
      same = r[e].train_loss == first[e].train_loss &&
             r[e].test_mse == first[e].test_mse;
    }
    if (!out.check(same, "rounds from the same start disagree")) break;
  }
  {
    // One epoch on a fixed 64-row subset at 1 thread and at the default.
    const data::RowSlice subset(*source, 0, 64);
    std::vector<Matrix> params[2];
    for (int i = 0; i < 2; ++i) {
      models::TrainConfig c = config;
      c.epochs = 1;
      c.num_threads = i == 0 ? 1 : 0;
      auto model = make_model(shape, model_seed);
      Rng rng(shuffle_seed);
      models::Trainer(*model, c).fit(subset, nullptr, rng);
      params[i] = parameter_values(*model);
    }
    std::string why;
    out.check(params_identical(params[0], params[1], &why), why);
  }
  if (shape.pdbbind) {
    const Matrix recon =
        last_model->decode_values(last_model->encode_values(test));
    std::string why;
    out.check(mse_matches(rounds.back().back().test_mse,
                          mean_squared_error(recon, test), 1e-12, &why),
              why);
    const auto records = read_records(ingest.shard_path, &why);
    out.check(!records.empty(), "shard did not reopen: " + why);
    out.check(shard_consistent(records, ingest.distinct_canonical, &why), why);
  }

  // ---- metrics --------------------------------------------------------------
  out.e2e("setup_s", setup_s, "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // Medians over rounds and epochs, so a burst of load from outside the
  // benchmark moves a few of them and not the reported figure. A round's
  // rate also counts model construction and the held-out evaluations.
  const double epoch_s = quantile(epoch_seconds, 0.5);
  out.e2e("throughput_per_s", quantile(round_rates, 0.5), "1/s");
  out.e2e("latency_p50_ms", 1e3 * epoch_s, "ms");

  if (args.trace) {
    const double forward_s = tracer.total_seconds("model.forward") / epochs_run;
    const double copy_s = tracer.total_seconds("data.copy_row") / epochs_run;
    out.layer("trainer.epoch_s", epoch_s, "s");
    out.layer("trainer.threads", threads, "count");
    out.layer("trainer.backward_update_s",
              epoch_s - (forward_s + copy_s) / threads, "s");
    out.layer("trainer.test_mse", first.back().test_mse, "mse");
    out.layer("model.forward_calls",
              static_cast<double>(tracer.count("model.forward")) / epochs_run,
              "count/epoch");
    out.layer("model.forward_s", forward_s, "thread-s/epoch");
    out.layer("quantum_layer.forward_us_per_row",
              quantum_layer_us_per_row(shape, *source), "us");
    out.layer("data.rows_copied",
              static_cast<double>(tracer.count("data.copy_row")) / epochs_run,
              "count/epoch");
    out.layer("data.copy_row_s", copy_s, "thread-s/epoch");
    out.layer("ingest.molecules", static_cast<double>(ingest.molecules),
              "count");
    out.layer("ingest.duplicates", static_cast<double>(ingest.duplicates),
              "count");
    out.layer("ingest.records_written", static_cast<double>(ingest.written),
              "count");
    out.layer("ingest.shard_bytes", ingest.shard_bytes, "bytes");
    out.layer("ingest.s", tracer.total_seconds("ingest.write"), "s");
    out.layer("dataset_open.s", tracer.total_seconds("dataset.open"), "s");
  }
  if (!ingest.shard_path.empty()) {
    shard.reset();
    std::error_code ec;
    std::filesystem::remove(ingest.shard_path, ec);
  }
  return out;
}

}  // namespace perfbench
