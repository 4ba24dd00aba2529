// Tests of the reproduction pipeline (src/repro/): registry/filtering,
// the provenance manifest round-trip, the JSON parser it relies on, the
// markdown renderers, incremental skipping, and the golden determinism
// contract (--jobs 1 and --jobs 8 produce byte-identical artifacts).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "io/json.hpp"
#include "io/table.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "repro/artifact.hpp"
#include "repro/manifest.hpp"
#include "repro/pipeline.hpp"
#include "repro/registry.hpp"

namespace rdp::repro {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("rdp_repro_" + name + "_" +
               std::to_string(::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every regular file under `root`, as relative-path -> content.
std::map<std::string, std::string> tree_contents(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    files[fs::relative(entry.path(), root).generic_string()] =
        slurp(entry.path());
  }
  return files;
}

// ------------------------------------------------------------- registry --

TEST(ReproRegistry, CoversEveryPaperTableFigureAndTheorem) {
  const std::vector<Artifact>& all = paper_artifacts();
  ASSERT_GE(all.size(), 12u);
  std::size_t tables = 0, figures = 0, theorems = 0;
  for (const Artifact& a : all) {
    EXPECT_FALSE(a.name.empty());
    EXPECT_FALSE(a.paper_ref.empty());
    EXPECT_TRUE(a.run != nullptr) << a.name;
    switch (a.kind) {
      case ArtifactKind::kTable: ++tables; break;
      case ArtifactKind::kFigure: ++figures; break;
      case ArtifactKind::kTheorem: ++theorems; break;
    }
  }
  EXPECT_EQ(tables, 2u);
  EXPECT_EQ(figures, 6u);
  EXPECT_GE(theorems, 4u);
}

TEST(ReproRegistry, FilterSelectsByNameTagAndKind) {
  const std::vector<Artifact>& all = paper_artifacts();
  EXPECT_EQ(select_artifacts(all, "").size(), all.size());
  EXPECT_EQ(select_artifacts(all, "table").size(), 2u);
  EXPECT_EQ(select_artifacts(all, "fig1").size(), 1u);
  EXPECT_EQ(select_artifacts(all, "smoke").size(), 4u);
  // Comma-separated terms union; duplicates are not added twice.
  EXPECT_EQ(select_artifacts(all, "fig1,table").size(), 3u);
  EXPECT_EQ(select_artifacts(all, "no-such-artifact").size(), 0u);
}

TEST(ReproRegistry, InputHashTracksParamsSeedAndBudget) {
  const Artifact& a = paper_artifacts().front();
  const std::uint64_t base = artifact_input_hash(a, 1, 1000);
  EXPECT_EQ(artifact_input_hash(a, 1, 1000), base);
  EXPECT_NE(artifact_input_hash(a, 2, 1000), base);
  EXPECT_NE(artifact_input_hash(a, 1, 2000), base);

  Artifact copy = a;
  copy.params["extra"] = "1";
  EXPECT_NE(artifact_input_hash(copy, 1, 1000), base);
}

TEST(ReproArtifact, TheoremCheckDirections) {
  TheoremCheck upper{"u", 1.5, 2.0, TheoremCheck::Kind::kUpperBound, 1e-9};
  EXPECT_TRUE(upper.pass());
  upper.measured = 2.5;
  EXPECT_FALSE(upper.pass());

  TheoremCheck lower{"l", 1.9, 2.0, TheoremCheck::Kind::kLowerBound, 0.1};
  EXPECT_TRUE(lower.pass());  // within 10% relative slack
  lower.measured = 1.5;
  EXPECT_FALSE(lower.pass());
}

// ------------------------------------------------------------- manifest --

TEST(ReproManifest, JsonRoundTrip) {
  Manifest m;
  m.git_sha = "deadbeef";
  m.seed = 7;
  m.node_budget = 1234;
  m.jobs = 3;
  m.filter = "smoke";
  m.theorem_checks = 11;
  m.bound_violations = 1;
  m.certify_cache_hits = 5;
  m.certify_cache_misses = 9;
  m.total_wall_seconds = 2.5;
  ManifestEntry e;
  e.name = "fig1-adversary";
  e.kind = "figure";
  e.input_hash = hash_to_hex(0xabcull);
  e.status = "generated";
  e.wall_seconds = 0.25;
  e.outputs = {"fig1-adversary/fig1-adversary.json"};
  e.checks = 2;
  e.violations = 1;
  m.entries.push_back(e);

  TempDir dir("manifest");
  const std::string path = (dir.path() / "manifest.json").string();
  m.save(path);

  const std::optional<Manifest> loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->git_sha, "deadbeef");
  EXPECT_EQ(loaded->seed, 7u);
  EXPECT_EQ(loaded->node_budget, 1234u);
  EXPECT_EQ(loaded->jobs, 3u);
  EXPECT_EQ(loaded->filter, "smoke");
  EXPECT_EQ(loaded->theorem_checks, 11u);
  EXPECT_EQ(loaded->bound_violations, 1u);
  EXPECT_EQ(loaded->certify_cache_hits, 5u);
  EXPECT_EQ(loaded->certify_cache_misses, 9u);
  ASSERT_EQ(loaded->entries.size(), 1u);
  const ManifestEntry* entry = loaded->find("fig1-adversary");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, "figure");
  EXPECT_EQ(entry->input_hash, "0000000000000abc");
  EXPECT_EQ(entry->status, "generated");
  EXPECT_DOUBLE_EQ(entry->wall_seconds, 0.25);
  EXPECT_EQ(entry->outputs, e.outputs);
  EXPECT_EQ(entry->checks, 2u);
  EXPECT_EQ(entry->violations, 1u);
}

TEST(ReproManifest, SchemaFieldsPresentInJson) {
  const Manifest m;
  const JsonValue root = parse_json(m.to_json());
  for (const char* key :
       {"schema_version", "git_sha", "seed", "node_budget", "jobs", "filter",
        "artifacts", "counters", "total_wall_seconds"}) {
    EXPECT_NE(root.find(key), nullptr) << key;
  }
  EXPECT_EQ(root.get_number("schema_version"), 1.0);
}

// Satellite: sampler provenance is optional -- absent fields keep the
// manifest byte-identical to the pre-sampler format (the golden
// byte-equality tests below depend on this), present fields round-trip.
TEST(ReproManifest, SamplerProvenanceIsOptionalAndRoundTrips) {
  const Manifest unsampled;
  EXPECT_EQ(unsampled.to_json().find("\"sampler\""), std::string::npos);

  Manifest m;
  m.sampler_path = "samples.jsonl";
  m.sampler_period_ms = 250;
  m.sampler_samples = 12;
  const JsonValue root = parse_json(m.to_json());
  ASSERT_NE(root.find("sampler"), nullptr);

  TempDir dir("sampler-manifest");
  const std::string path = (dir.path() / "manifest.json").string();
  m.save(path);
  const std::optional<Manifest> loaded = load_manifest(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sampler_path, "samples.jsonl");
  EXPECT_EQ(loaded->sampler_period_ms, 250u);
  EXPECT_EQ(loaded->sampler_samples, 12u);
}

TEST(ReproManifest, LoadRejectsCorruptAndWrongVersion) {
  TempDir dir("corrupt");
  EXPECT_FALSE(load_manifest((dir.path() / "missing.json").string()).has_value());

  const std::string garbage_path = (dir.path() / "garbage.json").string();
  std::ofstream(garbage_path) << "{not json";
  EXPECT_FALSE(load_manifest(garbage_path).has_value());

  const std::string wrong_version = (dir.path() / "wrong.json").string();
  std::ofstream(wrong_version) << R"({"schema_version": 999})";
  EXPECT_FALSE(load_manifest(wrong_version).has_value());
}

TEST(ReproManifest, HashToHexPads) {
  EXPECT_EQ(hash_to_hex(0), "0000000000000000");
  EXPECT_EQ(hash_to_hex(0xffffffffffffffffull), "ffffffffffffffff");
}

TEST(ReproManifest, ReadGitShaFindsThisRepository) {
  // The test binary runs from the build tree inside the repo; the sha is
  // a hex string (or a symbolic fallback), never empty.
  const std::string sha = read_git_sha(".");
  EXPECT_FALSE(sha.empty());
}

// ---------------------------------------------------------- json parser --

TEST(JsonParser, ParsesScalarsArraysAndObjects) {
  const JsonValue v = parse_json(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"nested": true}, "e": null})");
  EXPECT_DOUBLE_EQ(v.get_number("a"), 1.5);
  EXPECT_EQ(v.get_string("b"), "text");
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("c")->as_array().size(), 3u);
  ASSERT_NE(v.find("d"), nullptr);
  EXPECT_TRUE(v.find("d")->get_bool("nested"));
  ASSERT_NE(v.find("e"), nullptr);
  EXPECT_TRUE(v.find("e")->is_null());
}

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonObject obj;
  obj["pi"] = 3.25;
  obj["name"] = "quoted \"text\" with \\ and \n";
  JsonArray arr;
  arr.emplace_back(1.0);
  arr.emplace_back(true);
  obj["list"] = std::move(arr);
  const std::string dumped = JsonValue(std::move(obj)).dump(2);

  const JsonValue parsed = parse_json(dumped);
  EXPECT_DOUBLE_EQ(parsed.get_number("pi"), 3.25);
  EXPECT_EQ(parsed.get_string("name"), "quoted \"text\" with \\ and \n");
  EXPECT_EQ(parsed.find("list")->as_array().size(), 2u);
}

TEST(JsonParser, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
}

// ------------------------------------------------------------- markdown --

TEST(Markdown, TableRendererEscapesPipes) {
  TextTable table({"name", "value"});
  table.add_row({"a|b", "1"});
  const std::string md = table.render_markdown();
  EXPECT_NE(md.find("| name | value |"), std::string::npos);
  EXPECT_NE(md.find("| --- | --- |"), std::string::npos);
  EXPECT_NE(md.find("a\\|b"), std::string::npos);
}

// ------------------------------------------------- pipeline (end-to-end) --

ReproOptions smoke_options(const fs::path& out, std::size_t jobs) {
  ReproOptions options;
  options.out_dir = (out / "artifacts").string();
  options.results_path = (out / "RESULTS.md").string();
  options.filter = "smoke";
  options.jobs = jobs;
  options.seed = 1;
  options.node_budget = 50'000;
  return options;
}

TEST(ReproPipeline, SmokeRunEmitsLayoutAndManifest) {
  TempDir dir("smoke");
  const ReproSummary summary = run_repro(smoke_options(dir.path(), 2));
  EXPECT_EQ(summary.selected, 4u);
  EXPECT_EQ(summary.generated, 4u);
  EXPECT_EQ(summary.cached, 0u);
  EXPECT_EQ(summary.violations, 0u);
  EXPECT_GT(summary.checks, 0u);
  // A filtered run must not fabricate a partial RESULTS.md.
  EXPECT_FALSE(summary.results_written);
  EXPECT_FALSE(fs::exists(dir.path() / "RESULTS.md"));

  const fs::path artifacts = dir.path() / "artifacts";
  for (const char* name :
       {"fig3-ratio-replication", "fig6-memory-makespan", "thm4-ls-group"}) {
    const fs::path adir = artifacts / name;
    EXPECT_TRUE(fs::exists(adir / (std::string(name) + ".json"))) << name;
    EXPECT_TRUE(fs::exists(adir / (std::string(name) + ".csv"))) << name;
    EXPECT_TRUE(fs::exists(adir / "checks.json")) << name;
    EXPECT_TRUE(fs::exists(adir / "fragment.md")) << name;
  }
  // Figures carry SVGs; fragments reference them via the token, which
  // must never leak into RESULTS.md (checked in the full-run test).
  EXPECT_TRUE(fs::exists(artifacts / "fig3-ratio-replication" /
                         "fig3-ratio-replication.svg"));

  const std::optional<Manifest> manifest =
      load_manifest((artifacts / "manifest.json").string());
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->entries.size(), 4u);
  EXPECT_EQ(manifest->filter, "smoke");
  EXPECT_EQ(manifest->bound_violations, 0u);
  for (const ManifestEntry& entry : manifest->entries) {
    EXPECT_EQ(entry.status, "generated");
    EXPECT_EQ(entry.input_hash.size(), 16u);
    EXPECT_EQ(entry.violations, 0u);
    for (const std::string& rel : entry.outputs) {
      EXPECT_TRUE(fs::exists(artifacts / rel)) << rel;
    }
  }
}

TEST(ReproPipeline, GoldenAcrossThreadCounts) {
  // The determinism contract of the whole stack (certify engine, batch
  // experiments, renderers): --jobs 1 and --jobs 8 must produce
  // byte-identical artifact trees. manifest.json is excluded -- it
  // records wall times and the thread count by design.
  TempDir dir1("jobs1");
  TempDir dir8("jobs8");
  run_repro(smoke_options(dir1.path(), 1));
  run_repro(smoke_options(dir8.path(), 8));

  std::map<std::string, std::string> tree1 =
      tree_contents(dir1.path() / "artifacts");
  std::map<std::string, std::string> tree8 =
      tree_contents(dir8.path() / "artifacts");
  tree1.erase("manifest.json");
  tree8.erase("manifest.json");

  ASSERT_EQ(tree1.size(), tree8.size());
  for (const auto& [rel, content] : tree1) {
    ASSERT_TRUE(tree8.count(rel)) << rel;
    EXPECT_EQ(content, tree8.at(rel)) << rel << " differs across thread counts";
  }
}

TEST(ReproPipeline, SearchCountersMatchAcrossThreadCounts) {
  // exp.certify.bnb_nodes / .bnb_budget_exhausted count the search, not
  // the wall clock, so --jobs must not move them: the engine's warm-start
  // seeds are fixed before the fan-out, making every solve's tree the same.
  const auto search_counts = [](std::size_t jobs) {
    TempDir dir("counters" + std::to_string(jobs));
    ReproOptions options = smoke_options(dir.path(), jobs);
    options.filter = "thm2-lpt-no-choice";
    options.node_budget = 5'000;  // small enough that some searches stop
    obs::MetricsRegistry registry;
    {
      const obs::ObservabilityScope scope(&registry, nullptr);
      run_repro(options);
    }
    const obs::MetricsSnapshot snap = registry.snapshot();
    return std::make_pair(snap.counter_or("exp.certify.bnb_nodes"),
                          snap.counter_or("exp.certify.bnb_budget_exhausted"));
  };
  const auto serial = search_counts(1);
  const auto parallel = search_counts(2);
  EXPECT_GT(serial.first, 0u);
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(serial, parallel);
}

TEST(ReproPipeline, TracerOnlyRunRecordsSpans) {
  // rdp_cli repro --trace-out without --metrics-out: the pipeline counts
  // into a local registry, and the scope that installs it must keep the
  // caller's tracer rather than replace it with null.
  TempDir dir("tracer");
  ReproOptions options = smoke_options(dir.path(), 1);
  options.filter = "fig1-adversary";
  obs::Tracer tracer;
  {
    const obs::ObservabilityScope scope(nullptr, &tracer);
    run_repro(options);
    EXPECT_EQ(obs::tracer(), &tracer);
    EXPECT_EQ(obs::metrics(), nullptr);
  }
  EXPECT_GT(tracer.size(), 0u);
}

TEST(ReproPipeline, SecondRunSkipsViaInputHash) {
  TempDir dir("incremental");
  const ReproOptions options = smoke_options(dir.path(), 2);
  run_repro(options);

  const ReproSummary second = run_repro(options);
  EXPECT_EQ(second.generated, 0u);
  EXPECT_EQ(second.cached, 4u);
  for (const ManifestEntry& entry : second.manifest.entries) {
    EXPECT_EQ(entry.status, "cached") << entry.name;
    EXPECT_EQ(entry.wall_seconds, 0.0);
  }
  // Cached entries keep their check provenance.
  const ManifestEntry* thm4 = second.manifest.find("thm4-ls-group");
  ASSERT_NE(thm4, nullptr);
  EXPECT_GT(thm4->checks, 0u);

  // A changed seed changes every input hash -> full regeneration.
  ReproOptions reseeded = options;
  reseeded.seed = 2;
  const ReproSummary third = run_repro(reseeded);
  EXPECT_EQ(third.generated, 4u);
  EXPECT_EQ(third.cached, 0u);

  // --force regenerates even with matching hashes.
  ReproOptions forced = reseeded;
  forced.force = true;
  const ReproSummary fourth = run_repro(forced);
  EXPECT_EQ(fourth.generated, 4u);
}

TEST(ReproPipeline, MissingOutputFileInvalidatesCacheEntry) {
  TempDir dir("invalidate");
  const ReproOptions options = smoke_options(dir.path(), 2);
  run_repro(options);
  fs::remove(dir.path() / "artifacts" / "thm4-ls-group" / "checks.json");

  const ReproSummary again = run_repro(options);
  EXPECT_EQ(again.generated, 1u);
  EXPECT_EQ(again.cached, 3u);
  EXPECT_TRUE(
      fs::exists(dir.path() / "artifacts" / "thm4-ls-group" / "checks.json"));
}

TEST(ReproPipeline, UnknownFilterThrows) {
  TempDir dir("badfilter");
  ReproOptions options = smoke_options(dir.path(), 1);
  options.filter = "no-such-artifact";
  EXPECT_THROW(run_repro(options), std::invalid_argument);
}

}  // namespace
}  // namespace rdp::repro
