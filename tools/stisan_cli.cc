// stisan — command-line interface to the library.
//
// Subcommands:
//   generate   write a synthetic check-in CSV
//   train      train STiSAN on a CSV and save a checkpoint
//   evaluate   evaluate a checkpoint with the paper's protocol
//   recommend  print Top-K next-POI recommendations for one user
//
// Examples:
//   stisan_cli generate --preset gowalla --scale 0.3 --out city.csv
//   stisan_cli train --data city.csv --epochs 12 --ckpt model.bin
//   stisan_cli evaluate --data city.csv --ckpt model.bin
//   stisan_cli recommend --data city.csv --ckpt model.bin --user 3 --k 10
//
// The model configuration (dims, blocks, thresholds) must match between
// train and evaluate/recommend; it is controlled by the same flags and
// defaults in both. A flag the command does not read, or a value that does
// not parse as the number its flag takes, exits 2 before any work is done.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/stisan.h"
#include "data/csv_loader.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/metrics.h"
#include "train/signal.h"
#include "util/io_env.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

using namespace stisan;

namespace {

// Flag values are checked against the command's FlagSpec before the
// command runs, so the numeric getters parse values known to be valid.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it != flags.end() ? it->second : fallback;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it != flags.end() ? *ParseDouble(it->second) : fallback;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    return it != flags.end() ? *ParseInt64(it->second) : fallback;
  }
  bool Has(const std::string& key) const { return flags.contains(key); }
};

enum class FlagKind { kText, kInt, kReal };
using FlagSpec = std::map<std::string, FlagKind>;

// The flags each command reads. Returns nullptr for an unknown command.
const FlagSpec* CommandFlags(const std::string& command) {
  using enum FlagKind;
  // Data, window and model flags shared by train, evaluate and recommend.
  static const FlagSpec model = {
      {"data", kText},       {"ckpt", kText},      {"seq-len", kInt},
      {"min-user", kInt},    {"min-poi", kInt},    {"poi-dim", kInt},
      {"geo-dim", kInt},     {"fourier-dim", kInt}, {"blocks", kInt},
      {"dropout", kReal},    {"kt-days", kReal},   {"kd-km", kReal},
      {"epochs", kInt},      {"lr", kReal},        {"negatives", kInt},
      {"temperature", kReal}, {"knn", kInt},       {"seed", kInt},
      {"verbose", kInt}};
  auto with = [](FlagSpec spec, const FlagSpec& extra) {
    spec.insert(extra.begin(), extra.end());
    return spec;
  };
  static const std::map<std::string, FlagSpec> commands = {
      {"generate",
       {{"out", kText}, {"preset", kText}, {"scale", kReal}, {"seed", kInt}}},
      {"train", with(model, {{"ckpt-every", kInt},
                             {"keep-ckpts", kInt},
                             {"resume", kInt},
                             {"metrics-json", kText},
                             {"metrics-every", kInt}})},
      {"evaluate",
       with(model, {{"eval-batch", kInt}, {"metrics-json", kText}})},
      {"recommend", with(model, {{"user", kInt}, {"k", kInt}})},
      {"help", {}},
      {"--help", {}}};
  auto it = commands.find(command);
  return it != commands.end() ? &it->second : nullptr;
}

Status CheckFlags(const Args& args, const FlagSpec& spec) {
  for (const auto& [name, value] : args.flags) {
    auto it = spec.find(name);
    if (it == spec.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    bool parses = true;
    if (it->second == FlagKind::kInt) parses = ParseInt64(value).ok();
    if (it->second == FlagKind::kReal) parses = ParseDouble(value).ok();
    if (!parses) {
      return Status::InvalidArgument("bad value for --" + name + ": '" +
                                     value + "'");
    }
  }
  return Status::OK();
}

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got: " + flag);
    }
    flag = flag.substr(2);
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + flag + " needs a value");
    }
    args.flags[flag] = argv[++i];
  }
  return args;
}

void PrintUsage() {
  std::printf(
      "usage: stisan_cli <command> [--flag value ...]\n\n"
      "commands:\n"
      "  generate   --out FILE [--preset gowalla|brightkite|weeplaces|\n"
      "             changchun] [--scale F] [--seed N]\n"
      "  train      --data FILE --ckpt FILE [model flags]\n"
      "             [--ckpt-every N] [--keep-ckpts K] [--resume 1]\n"
      "             (--ckpt-every enables crash-safe epoch checkpoints in\n"
      "              FILE.d; --resume continues from the newest valid one;\n"
      "              SIGINT/SIGTERM checkpoint gracefully and exit 130)\n"
      "             [--metrics-json FILE] [--metrics-every N]\n"
      "  evaluate   --data FILE --ckpt FILE [model flags] [--eval-batch N]\n"
      "             [--metrics-json FILE]\n"
      "  recommend  --data FILE --ckpt FILE --user N [--k N] [model flags]\n\n"
      "model flags (the same in train, evaluate and recommend):\n"
      "  [--epochs N] [--seq-len N] [--poi-dim N] [--geo-dim N]\n"
      "  [--fourier-dim N] [--blocks N] [--dropout F] [--lr F]\n"
      "  [--negatives N] [--temperature F] [--knn N] [--kt-days F]\n"
      "  [--kd-km F] [--seed N] [--min-user N] [--min-poi N] [--verbose 1]\n\n"
      "A flag the command does not read, or a value that does not parse as\n"
      "the number its flag takes, exits 2.\n\n"
      "observability: --metrics-json writes the obs-registry snapshot\n"
      "  (counters, gauges, timing histograms) as sorted JSON, atomically\n"
      "  via temp+rename. --metrics-every N also snapshots every N epochs\n"
      "  during training. Strictly passive: results are bit-identical with\n"
      "  or without these flags.\n\n"
      "CSV format: user,poi,lat,lon,timestamp (header optional)\n");
}

core::StisanOptions ModelOptions(const Args& args) {
  core::StisanOptions opts;
  opts.poi_dim = args.GetInt("poi-dim", 16);
  opts.geo.dim = args.GetInt("geo-dim", 16);
  opts.geo.fourier_dim = args.GetInt("fourier-dim", opts.geo.dim / 2);
  opts.num_blocks = args.GetInt("blocks", 2);
  opts.dropout = static_cast<float>(args.GetDouble("dropout", 0.2));
  opts.relation.kt_days = args.GetDouble("kt-days", 10.0);
  opts.relation.kd_km = args.GetDouble("kd-km", 15.0);
  opts.train.epochs = args.GetInt("epochs", 12);
  opts.train.lr = static_cast<float>(args.GetDouble("lr", 0.001));
  opts.train.num_negatives = args.GetInt("negatives", 15);
  opts.train.temperature =
      static_cast<float>(args.GetDouble("temperature", 1.0));
  opts.train.knn_neighborhood = args.GetInt("knn", 100);
  opts.train.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  opts.train.verbose = args.GetInt("verbose", 0) != 0;
  return opts;
}

// Writes the obs-registry snapshot to --metrics-json (when given) and logs
// the one-line summary. Runs after the command's real work, so the snapshot
// can never influence it.
void EmitMetrics(const Args& args) {
  const std::string path = args.Get("metrics-json", "");
  const auto snapshot = obs::TakeSnapshot();
  STISAN_LOG(INFO) << obs::SummaryLine(snapshot);
  if (path.empty()) return;
  Status st = WriteFileAtomic(Env::Default(), path, obs::ToJson(snapshot));
  if (!st.ok()) {
    std::fprintf(stderr, "warning: --metrics-json write failed: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::printf("wrote metrics snapshot: %s\n", path.c_str());
}

// Checkpoint fingerprint: the model architecture plus the training window
// length. seq-len does not change parameter shapes, so only the fingerprint
// can catch evaluating a checkpoint with a different --seq-len.
std::string CheckpointFingerprint(const core::StisanModel& model,
                                  int64_t seq_len) {
  return model.ConfigFingerprint() +
         StrFormat(" seq_len=%lld", static_cast<long long>(seq_len));
}

Result<data::Dataset> LoadAndFilter(const Args& args) {
  const std::string path = args.Get("data", "");
  if (path.empty()) return Status::InvalidArgument("--data is required");
  STISAN_ASSIGN_OR_RETURN(data::Dataset raw, data::LoadCsv(path, path));
  data::FilterOptions filter;
  filter.min_user_checkins = args.GetInt("min-user", 20);
  filter.min_poi_checkins = args.GetInt("min-poi", 10);
  data::Dataset filtered = data::FilterCold(raw, filter);
  std::printf("loaded %s: %s\n", path.c_str(),
              filtered.Stats().ToString().c_str());
  if (filtered.num_users() == 0) {
    return Status::FailedPrecondition(
        "no users survive cold filtering; lower --min-user/--min-poi");
  }
  return filtered;
}

int Generate(const Args& args) {
  const std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 1;
  }
  const std::string preset = args.Get("preset", "gowalla");
  const double scale = args.GetDouble("scale", 0.3);
  data::SyntheticConfig cfg;
  if (preset == "gowalla") {
    cfg = data::GowallaLikeConfig(scale);
  } else if (preset == "brightkite") {
    cfg = data::BrightkiteLikeConfig(scale);
  } else if (preset == "weeplaces") {
    cfg = data::WeeplacesLikeConfig(scale);
  } else if (preset == "changchun") {
    cfg = data::ChangchunLikeConfig(scale);
  } else {
    std::fprintf(stderr, "error: unknown preset '%s'\n", preset.c_str());
    return 1;
  }
  if (args.Has("seed")) {
    cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  }
  data::Dataset ds = data::GenerateSynthetic(cfg);
  Status st = data::SaveCsv(ds, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %s\n", out.c_str(), ds.Stats().ToString().c_str());
  return 0;
}

int Train(const Args& args) {
  const std::string ckpt = args.Get("ckpt", "");
  if (ckpt.empty()) {
    std::fprintf(stderr, "error: --ckpt is required\n");
    return 1;
  }
  auto dataset = LoadAndFilter(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int64_t seq_len = args.GetInt("seq-len", 32);
  data::Split split =
      data::TrainTestSplit(*dataset, {.max_seq_len = seq_len});
  std::printf("train windows: %zu, test instances: %zu\n",
              split.train.size(), split.test.size());

  core::StisanOptions opts = ModelOptions(args);
  opts.train.metrics_json = args.Get("metrics-json", "");
  opts.train.metrics_every = args.GetInt("metrics-every", 0);
  const int64_t ckpt_every = args.GetInt("ckpt-every", 0);
  const bool resume = args.GetInt("resume", 0) != 0;
  if (ckpt_every > 0 || resume) {
    opts.train.checkpoint.dir = ckpt + ".d";
    opts.train.checkpoint.every_epochs = std::max<int64_t>(1, ckpt_every);
    opts.train.checkpoint.keep_last =
        std::max<int64_t>(1, args.GetInt("keep-ckpts", 3));
    opts.train.checkpoint.resume = resume;
  }
  train::InstallStopSignalHandlers();

  core::StisanModel model(*dataset, opts);
  Stopwatch watch;
  model.Fit(*dataset, split.train);
  const train::TrainResult& result = model.last_train_result();
  if (!result.status.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status.ToString().c_str());
    return 1;
  }
  if (result.resumed) {
    std::printf("resumed from %s\n", opts.train.checkpoint.dir.c_str());
  }
  if (result.interrupted) {
    std::printf("interrupted after %lld completed epochs%s\n",
                static_cast<long long>(result.epochs_completed),
                opts.train.checkpoint.dir.empty()
                    ? ""
                    : "; rerun with --resume 1 to continue");
    return 130;
  }
  std::printf("trained %lld epochs in %.1fs (final loss %.4f)\n",
              static_cast<long long>(result.epochs_completed),
              watch.ElapsedSeconds(), model.last_epoch_loss());

  Status st = model.SaveParameters(
      ckpt, CheckpointFingerprint(model, seq_len));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved checkpoint: %s\n", ckpt.c_str());
  // Re-emit after SaveParameters so the snapshot includes the final model
  // checkpoint's bytes/latency (the trainer already wrote one at run end).
  EmitMetrics(args);
  return 0;
}

int Evaluate(const Args& args) {
  auto dataset = LoadAndFilter(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int64_t seq_len = args.GetInt("seq-len", 32);
  data::Split split =
      data::TrainTestSplit(*dataset, {.max_seq_len = seq_len});

  core::StisanModel model(*dataset, ModelOptions(args));
  const std::string ckpt = args.Get("ckpt", "");
  if (!ckpt.empty()) {
    Status st =
        model.LoadParameters(ckpt, CheckpointFingerprint(model, seq_len));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("loaded checkpoint: %s\n", ckpt.c_str());
  } else {
    std::printf("note: no --ckpt given, evaluating an untrained model\n");
  }

  eval::CandidateGenerator candidates(*dataset);
  eval::EvalOptions eval_options;
  eval_options.batch_size = args.GetInt("eval-batch", 32);
  auto acc = eval::Evaluate(static_cast<eval::BatchScorer&>(model),
                            split.test, candidates, eval_options);
  for (const auto& [name, value] : acc.Means()) {
    std::printf("%-8s %.4f\n", name.c_str(), value);
  }
  std::printf("%-8s %.4f\n", "MRR", acc.MeanReciprocalRank());
  Rng rng(1);
  auto ci = eval::BootstrapHitRateCi(acc.ranks(), 10, 0.95, rng);
  std::printf("HR@10 95%% CI: [%.4f, %.4f] over %lld users\n", ci.lo, ci.hi,
              static_cast<long long>(acc.count()));
  EmitMetrics(args);
  return 0;
}

int Recommend(const Args& args) {
  auto dataset = LoadAndFilter(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int64_t user = args.GetInt("user", 0);
  if (user < 0 || user >= dataset->num_users()) {
    std::fprintf(stderr, "error: --user out of range [0, %lld)\n",
                 static_cast<long long>(dataset->num_users()));
    return 1;
  }
  const int64_t k = args.GetInt("k", 10);
  const int64_t seq_len = args.GetInt("seq-len", 32);

  core::StisanModel model(*dataset, ModelOptions(args));
  const std::string ckpt = args.Get("ckpt", "");
  if (!ckpt.empty()) {
    Status st =
        model.LoadParameters(ckpt, CheckpointFingerprint(model, seq_len));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Build an inference instance from the user's full history.
  const auto& seq = dataset->user_seqs[static_cast<size_t>(user)];
  data::EvalInstance inst;
  inst.user = user;
  const size_t begin =
      seq.size() > static_cast<size_t>(seq_len) ? seq.size() - seq_len : 0;
  std::vector<data::Visit> recent(seq.begin() + begin, seq.end());
  inst.first_real = data::PadHead(recent, seq_len, &inst.poi, &inst.t);
  inst.target = seq.back().poi;  // candidates centre on the last location
  inst.target_time = seq.back().timestamp;
  for (const auto& v : seq) inst.visited.push_back(v.poi);

  eval::CandidateGenerator candidates(*dataset);
  auto cands = candidates.Candidates(inst, 200);
  // Drop the pseudo-target (index 0): recommend unvisited POIs only.
  cands.erase(cands.begin());
  if (cands.empty()) {
    std::fprintf(stderr, "error: no unvisited candidates near the user\n");
    return 1;
  }
  auto scores = model.Score(inst, cands);
  std::vector<size_t> order(cands.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });

  std::printf("top-%lld next-POI recommendations for user %lld:\n",
              static_cast<long long>(k), static_cast<long long>(user));
  const auto& here = dataset->poi_location(seq.back().poi);
  for (int64_t i = 0; i < k && i < static_cast<int64_t>(order.size()); ++i) {
    const int64_t poi = cands[order[static_cast<size_t>(i)]];
    const auto& loc = dataset->poi_location(poi);
    std::printf("  %2lld. POI %-6lld score %8.3f at %s (%.2f km away)\n",
                static_cast<long long>(i + 1), static_cast<long long>(poi),
                scores[order[static_cast<size_t>(i)]],
                geo::ToString(loc).c_str(), geo::HaversineKm(here, loc));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (const FlagSpec* spec = CommandFlags(args->command)) {
    Status st = CheckFlags(*args, *spec);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n\n", st.ToString().c_str());
      PrintUsage();
      return 2;
    }
  }
  if (args->command == "generate") return Generate(*args);
  if (args->command == "train") return Train(*args);
  if (args->command == "evaluate") return Evaluate(*args);
  if (args->command == "recommend") return Recommend(*args);
  if (args->command == "help" || args->command == "--help") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "error: unknown command '%s'\n\n",
               args->command.c_str());
  PrintUsage();
  return 2;
}
