#include "repro/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "exact/certify.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "parallel/thread_pool.hpp"
#include "repro/artifact.hpp"
#include "repro/registry.hpp"

namespace rdp::repro {

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("repro: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("repro: cannot open " + path.string());
  out << content;
  if (!out) throw std::runtime_error("repro: write failed for " + path.string());
}

std::string checks_to_json(const std::vector<TheoremCheck>& checks) {
  JsonArray array;
  for (const TheoremCheck& c : checks) {
    JsonObject obj;
    obj["label"] = c.label;
    obj["measured"] = c.measured;
    obj["bound"] = c.bound;
    obj["kind"] = c.kind == TheoremCheck::Kind::kUpperBound ? "upper_bound"
                                                            : "lower_bound";
    obj["tolerance"] = c.tolerance;
    obj["pass"] = c.pass();
    array.emplace_back(std::move(obj));
  }
  return JsonValue(std::move(array)).dump(2) + "\n";
}

std::string checks_to_markdown(const std::vector<TheoremCheck>& checks) {
  if (checks.empty()) return "";
  TextTable table({"check", "measured", "bound", "direction", "status"});
  for (const TheoremCheck& c : checks) {
    table.add_row({c.label, fmt(c.measured), fmt(c.bound),
                   c.kind == TheoremCheck::Kind::kUpperBound ? "<=" : ">=",
                   c.pass() ? "PASS" : "**FAIL**"});
  }
  return "**Theorem checks:**\n\n" + table.render_markdown() + "\n";
}

/// The full RESULTS.md section of one artifact, cached next to its data
/// so cached artifacts can be re-assembled without recomputing.
std::string render_fragment(const Artifact& artifact, const ArtifactResult& result) {
  std::ostringstream md;
  md << "## " << artifact.title << "\n\n"
     << "*Reproduces " << artifact.paper_ref << " (artifact `" << artifact.name
     << "`).* " << artifact.description << "\n\n"
     << result.markdown;
  md << checks_to_markdown(result.checks);
  return md.str();
}

std::string kind_heading(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTable: return "# Tables";
    case ArtifactKind::kFigure: return "# Figures";
    case ArtifactKind::kTheorem: return "# Theorem validation";
  }
  return "#";
}

/// Replaces every occurrence of kArtifactsToken with `replacement`.
std::string resolve_links(std::string fragment, const std::string& replacement) {
  const std::string token = kArtifactsToken;
  std::size_t pos = 0;
  while ((pos = fragment.find(token, pos)) != std::string::npos) {
    fragment.replace(pos, token.size(), replacement);
    pos += replacement.size();
  }
  return fragment;
}

}  // namespace

ReproSummary run_repro(const ReproOptions& options) {
  const auto run_start = std::chrono::steady_clock::now();
  const fs::path out_root(options.out_dir);
  fs::create_directories(out_root);

  const std::vector<Artifact>& all = paper_artifacts();
  const std::vector<const Artifact*> selected =
      select_artifacts(all, options.filter);
  if (selected.empty()) {
    throw std::invalid_argument("repro: filter '" + options.filter +
                                "' matches no artifact");
  }

  const fs::path manifest_path = out_root / "manifest.json";
  const std::optional<Manifest> previous = load_manifest(manifest_path.string());

  // One engine + pool shared across artifacts: the certify cache carries
  // over (theorem sweeps re-solve instances the tables already certified).
  CertifyEngine engine(1 << 15);
  ThreadPool pool(options.jobs);

  // Count checks/violations into the installed registry if the caller
  // provided one (rdp_cli --metrics-out), else into a local scope that
  // keeps the installed tracer (--trace-out alone still records spans).
  obs::MetricsRegistry local_registry;
  std::optional<obs::ObservabilityScope> scope;
  if (obs::metrics() == nullptr) scope.emplace(&local_registry, obs::tracer());
  obs::MetricsRegistry& registry = *obs::metrics();

  ReproSummary summary;
  summary.selected = selected.size();
  summary.manifest_path = manifest_path.string();

  Manifest manifest;
  manifest.git_sha = read_git_sha(options.out_dir);
  manifest.seed = options.seed;
  manifest.node_budget = options.node_budget;
  manifest.jobs = pool.num_threads();
  manifest.filter = options.filter;

  ArtifactContext ctx;
  ctx.seed = options.seed;
  ctx.node_budget = options.node_budget;
  ctx.engine = &engine;
  ctx.pool = &pool;

  for (const Artifact& artifact : all) {
    const bool is_selected =
        std::find(selected.begin(), selected.end(), &artifact) != selected.end();
    const ManifestEntry* prev_entry =
        previous ? previous->find(artifact.name) : nullptr;

    if (!is_selected) {
      // Not part of this run: carry the previous record forward unchanged
      // so filtered runs don't erase full-run provenance.
      if (prev_entry != nullptr) manifest.entries.push_back(*prev_entry);
      continue;
    }

    const std::uint64_t hash =
        artifact_input_hash(artifact, options.seed, options.node_budget);
    const std::string hash_hex = hash_to_hex(hash);
    const fs::path dir = out_root / artifact.name;

    // Skip when provenance matches and every recorded output still exists.
    bool cached = !options.force && prev_entry != nullptr &&
                  prev_entry->input_hash == hash_hex &&
                  fs::exists(dir / "fragment.md");
    if (cached) {
      for (const std::string& rel : prev_entry->outputs) {
        if (!fs::exists(out_root / rel)) {
          cached = false;
          break;
        }
      }
    }
    if (cached) {
      ManifestEntry entry = *prev_entry;
      entry.status = "cached";
      entry.wall_seconds = 0;
      manifest.entries.push_back(std::move(entry));
      ++summary.cached;
      if (options.log) {
        *options.log << "[repro] cached    " << artifact.name << "\n";
      }
      continue;
    }

    if (options.log) {
      *options.log << "[repro] running   " << artifact.name << " ..." << std::flush;
    }
    const auto start = std::chrono::steady_clock::now();
    const ArtifactResult result = artifact.run(ctx);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    fs::create_directories(dir);
    ManifestEntry entry;
    entry.name = artifact.name;
    entry.kind = to_string(artifact.kind);
    entry.input_hash = hash_hex;
    entry.status = "generated";
    entry.wall_seconds = wall;

    const auto emit = [&](const std::string& filename, const std::string& content) {
      write_file(dir / filename, content);
      entry.outputs.push_back(artifact.name + "/" + filename);
    };
    emit(artifact.name + ".json", result.report.to_json() + "\n");
    {
      std::ostringstream csv;
      result.report.write_csv(csv);
      emit(artifact.name + ".csv", csv.str());
    }
    for (const ArtifactFile& file : result.extra_files) {
      emit(file.filename, file.content);
    }
    emit("checks.json", checks_to_json(result.checks));
    emit("fragment.md", render_fragment(artifact, result));

    std::uint64_t violations = 0;
    for (const TheoremCheck& check : result.checks) {
      if (!check.pass()) ++violations;
    }
    entry.checks = result.checks.size();
    entry.violations = violations;
    registry.counter("repro.theorem_checks").add(entry.checks);
    if (violations > 0) registry.counter("repro.bound_violations").add(violations);
    summary.checks += entry.checks;
    summary.violations += violations;

    manifest.entries.push_back(std::move(entry));
    ++summary.generated;
    if (options.log) {
      *options.log << " done (" << fmt(wall, 2) << "s, "
                   << result.checks.size() << " checks, " << violations
                   << " violations)\n";
    }
  }

  // Run-wide counters: what the obs registry accumulated plus the shared
  // engine's cache statistics.
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  manifest.theorem_checks = snapshot.counter_or("repro.theorem_checks");
  manifest.bound_violations = snapshot.counter_or("repro.bound_violations");
  const CertifyCacheStats cache = engine.cache_stats();
  manifest.certify_cache_hits = cache.hits;
  manifest.certify_cache_misses = cache.misses;
  if (const obs::RunSampler* sampler = obs::sampler()) {
    manifest.sampler_path = sampler->path();
    manifest.sampler_period_ms = sampler->period_ms();
    manifest.sampler_samples = sampler->samples();
  }
  manifest.total_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();
  manifest.save(manifest_path.string());
  summary.manifest = manifest;

  // RESULTS.md is only assembled when every registered artifact has a
  // fragment (fresh or cached): a filtered run must never truncate the
  // committed document.
  if (!options.results_path.empty()) {
    bool complete = true;
    for (const Artifact& artifact : all) {
      if (!fs::exists(out_root / artifact.name / "fragment.md")) {
        complete = false;
        break;
      }
    }
    if (complete) {
      const fs::path results_path(options.results_path);
      fs::path results_dir = results_path.parent_path();
      if (results_dir.empty()) results_dir = ".";
      fs::create_directories(results_dir);
      std::error_code ec;
      fs::path rel = fs::relative(out_root, results_dir, ec);
      if (ec || rel.empty()) rel = fs::absolute(out_root);
      const std::string artifacts_prefix = rel.generic_string();

      std::ostringstream md;
      md << "<!-- Generated by `rdp_cli repro`. Do not edit: regenerate "
            "with `rdp_cli repro` (see docs/REPRODUCING.md). -->\n\n"
         << "# Reproduced results\n\n"
         << "Every table, figure, and theorem validation of the paper, "
            "regenerated from this repository. Inputs, hashes, and wall "
            "times are recorded in the run's `manifest.json`.\n\n";

      TextTable index({"artifact", "reproduces", "kind", "checks", "status"});
      for (const Artifact& artifact : all) {
        const std::string checks_json =
            read_file(out_root / artifact.name / "checks.json");
        const JsonValue checks = parse_json(checks_json);
        std::size_t total = checks.as_array().size();
        std::size_t failed = 0;
        for (const JsonValue& c : checks.as_array()) {
          if (!c.get_bool("pass", true)) ++failed;
        }
        index.add_row({"`" + artifact.name + "`", artifact.paper_ref,
                       to_string(artifact.kind), std::to_string(total),
                       total == 0 ? "-"
                       : failed == 0 ? "PASS"
                                     : "**FAIL (" + std::to_string(failed) + ")**"});
      }
      md << index.render_markdown() << "\n";

      ArtifactKind current_kind = ArtifactKind::kTable;
      bool first_section = true;
      for (const Artifact& artifact : all) {
        if (first_section || artifact.kind != current_kind) {
          md << kind_heading(artifact.kind) << "\n\n";
          current_kind = artifact.kind;
          first_section = false;
        }
        const std::string fragment =
            read_file(out_root / artifact.name / "fragment.md");
        md << resolve_links(fragment, artifacts_prefix) << "\n";
      }
      write_file(results_path, md.str());
      summary.results_written = true;
      if (options.log) {
        *options.log << "[repro] wrote " << options.results_path << "\n";
      }
    } else if (options.log) {
      *options.log << "[repro] skipped " << options.results_path
                   << " (fragments incomplete; run without --filter to "
                      "generate everything)\n";
    }
  }

  return summary;
}

}  // namespace rdp::repro
