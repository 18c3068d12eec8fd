/**
 * @file
 * Tests keeping the experiment registry complete and consistent with
 * the bench tree.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/experiments.hh"

namespace {

using namespace wsc;
using namespace wsc::core;

TEST(Experiments, RegistryNonEmptyAndUnique)
{
    const auto &all = allExperiments();
    ASSERT_GE(all.size(), 25u);
    std::set<std::string> ids;
    for (const auto &e : all) {
        EXPECT_FALSE(e.id.empty());
        EXPECT_FALSE(e.title.empty());
        EXPECT_FALSE(e.benchTarget.empty());
        ids.insert(e.id);
    }
    EXPECT_EQ(ids.size(), all.size()) << "duplicate experiment ids";
}

TEST(Experiments, EveryPaperArtifactRegistered)
{
    for (const auto &id :
         {"table1", "fig1a", "fig1b", "table2", "fig2c", "fig3",
          "fig4b", "fig4c", "table3a", "table3b", "fig5", "sec36"}) {
        auto *e = findExperiment(id);
        ASSERT_NE(e, nullptr) << id;
        EXPECT_NE(e->kind, ExperimentKind::Extension) << id;
        EXPECT_FALSE(e->paperReference.empty()) << id;
    }
}

TEST(Experiments, ExtensionsHaveNoPaperReference)
{
    for (const auto &e : allExperiments()) {
        if (e.kind == ExperimentKind::Extension) {
            EXPECT_TRUE(e.paperReference.empty()) << e.id;
        }
    }
}

TEST(Experiments, LookupMissReturnsNull)
{
    EXPECT_EQ(findExperiment("nonexistent"), nullptr);
}

TEST(Experiments, BenchTargetsExistInSourceTree)
{
    // Every registered bench target must have a source file under
    // bench/ — the registry cannot reference binaries that are not
    // built.
    namespace fs = std::filesystem;
    fs::path bench_dir;
    for (auto candidate : {"bench", "../bench", "../../bench",
                           "/root/repo/bench"}) {
        if (fs::exists(fs::path(candidate) / "bench_fig1.cc")) {
            bench_dir = candidate;
            break;
        }
    }
    if (bench_dir.empty())
        GTEST_SKIP() << "bench sources not reachable from test cwd";
    for (const auto &target : registeredBenchTargets()) {
        EXPECT_TRUE(fs::exists(bench_dir / (target + ".cc")))
            << target;
    }
}

TEST(Experiments, KindNamesPrintable)
{
    EXPECT_EQ(to_string(ExperimentKind::PaperTable), "paper-table");
    EXPECT_EQ(to_string(ExperimentKind::Extension), "extension");
}

} // namespace
