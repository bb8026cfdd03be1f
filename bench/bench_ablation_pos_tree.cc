// Ablations for the POS-Tree design choices called out in DESIGN.md:
//
//   A. expected chunk size (q): build cost vs dedup quality — the paper's
//      note that chunk size is configurable (type-specific sizes, §4.3.3);
//   B. rolling-hash window (k): boundary stability under edits;
//   C. hard-cap multiplier (alpha): forced-split rate on random data
//      (expected (1/e)^alpha, §4.3.3);
//   D. batched vs sequential Map updates (the UpsertBatch fast path used
//      by blockchain commits and dataset updates);
//   E. per-mutation cost against tree size: one FMap::Set, one 25-key
//      FMap::SetBatch and one 16-byte Blob::Splice, as µs, chunk gets and
//      chunk puts per op. A mutation re-chunks only the paths it touches,
//      so gets+puts should track the height, not the size.
//
// Flags: --scale=<f> (sections A-D), --quick (CI-sized section E),
// --json (writes BENCH_ablation_pos_tree.json).

#include <cmath>
#include <set>

#include "bench/bench_common.h"
#include "chunk/chunk_store.h"
#include "pos_tree/diff.h"
#include "pos_tree/tree.h"
#include "types/handles.h"
#include "util/random.h"

namespace fb {
namespace {

void AblateChunkSize(size_t data_size, bench::BenchJson* json) {
  bench::Header("Ablation A: leaf pattern bits q (chunk size)");
  bench::Row("%6s %12s %14s %16s %18s", "q", "avg leaf B", "build MB/s",
             "edit reuse %", "chunks/object");
  Rng rng(1);
  const Bytes data = rng.BytesOf(data_size);

  for (int q : {8, 10, 12, 14}) {
    TreeConfig cfg;
    cfg.leaf_pattern_bits = q;
    MemChunkStore store;

    Timer t;
    auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
    bench::Check(root.status(), "build");
    const double mbps = data_size / 1048576.0 / t.ElapsedSeconds();

    PosTree tree(&store, cfg, ChunkType::kBlob, *root);
    std::vector<Entry> leaves;
    bench::Check(tree.LoadLeafEntries(&leaves), "leaves");
    const double avg_leaf =
        static_cast<double>(data_size) / static_cast<double>(leaves.size());

    // Edit 100 bytes in the middle; measure chunk reuse of the new
    // version against the old.
    PosTree edited = tree;
    bench::Check(edited.SpliceBytes(data_size / 2, 100,
                                    Slice(rng.BytesOf(100))),
                 "splice");
    auto overlap = ComputeChunkOverlap(tree, edited);
    bench::Check(overlap.status(), "overlap");
    const double reuse =
        100.0 * static_cast<double>(overlap->shared) /
        static_cast<double>(overlap->shared + overlap->only_b);

    std::vector<Hash> cids;
    bench::Check(tree.CollectChunkIds(&cids), "cids");
    bench::Row("%6d %12.0f %14.1f %16.1f %18zu", q, avg_leaf, mbps, reuse,
               cids.size());
    json->Row()
        .Str("section", "A")
        .Num("q", q)
        .Num("avg_leaf_bytes", avg_leaf)
        .Num("build_mb_per_s", mbps)
        .Num("edit_reuse_pct", reuse)
        .Num("chunks", static_cast<double>(cids.size()));
  }
  bench::Row("(larger chunks build faster; smaller chunks localize edits "
             "=> higher reuse)");
}

void AblateWindow(size_t data_size, bench::BenchJson* json) {
  bench::Header("Ablation B: rolling-hash window k (boundary stability)");
  bench::Row("%8s %16s %18s", "window", "build MB/s", "edit reuse %");
  Rng rng(2);
  const Bytes data = rng.BytesOf(data_size);

  for (size_t window : {size_t{8}, size_t{16}, size_t{32}, size_t{64}}) {
    TreeConfig cfg;
    cfg.window = window;
    MemChunkStore store;
    Timer t;
    auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
    bench::Check(root.status(), "build");
    const double mbps = data_size / 1048576.0 / t.ElapsedSeconds();

    PosTree tree(&store, cfg, ChunkType::kBlob, *root);
    PosTree edited = tree;
    bench::Check(edited.SpliceBytes(data_size / 3, 0,
                                    Slice(rng.BytesOf(64))),
                 "splice");
    auto overlap = ComputeChunkOverlap(tree, edited);
    bench::Check(overlap.status(), "overlap");
    const double reuse =
        100.0 * static_cast<double>(overlap->shared) /
        static_cast<double>(overlap->shared + overlap->only_b);
    bench::Row("%8zu %16.1f %18.1f", window, mbps, reuse);
    json->Row()
        .Str("section", "B")
        .Num("window", static_cast<double>(window))
        .Num("build_mb_per_s", mbps)
        .Num("edit_reuse_pct", reuse);
  }
}

void AblateAlpha(bench::BenchJson* json) {
  bench::Header("Ablation C: size cap alpha (forced-split rate)");
  bench::Row("%8s %18s %20s", "alpha", "capped chunks %", "expected e^-a %");
  Rng rng(3);
  const Bytes data = rng.BytesOf(4 << 20);
  for (size_t alpha : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    TreeConfig cfg;
    cfg.leaf_pattern_bits = 10;
    cfg.size_alpha = alpha;
    MemChunkStore store;
    auto root = PosTree::BuildFromBytes(&store, cfg, Slice(data));
    bench::Check(root.status(), "build");
    PosTree tree(&store, cfg, ChunkType::kBlob, *root);
    std::vector<Entry> leaves;
    bench::Check(tree.LoadLeafEntries(&leaves), "leaves");
    size_t capped = 0;
    for (const Entry& e : leaves) {
      if (e.count == cfg.max_leaf_bytes()) ++capped;
    }
    const double capped_pct =
        100.0 * capped / static_cast<double>(leaves.size());
    const double expected_pct = 100.0 * std::exp(-static_cast<double>(alpha));
    bench::Row("%8zu %18.2f %20.2f", alpha, capped_pct, expected_pct);
    json->Row()
        .Str("section", "C")
        .Num("alpha", static_cast<double>(alpha))
        .Num("capped_pct", capped_pct)
        .Num("expected_pct", expected_pct);
  }
}

void AblateBatching(size_t map_entries, size_t batch_size,
                    bench::BenchJson* json) {
  bench::Header("Ablation D: batched vs sequential Map updates");
  MemChunkStore store;
  TreeConfig cfg;
  Rng rng(4);

  std::vector<Element> base;
  for (size_t i = 0; i < map_entries; ++i) {
    Element e;
    e.key = ToBytes(MakeKey(i));
    e.value = rng.BytesOf(40);
    base.push_back(std::move(e));
  }
  auto root = PosTree::BuildFromElements(&store, cfg, ChunkType::kMap, base);
  bench::Check(root.status(), "build");

  std::vector<Element> updates;
  for (size_t i = 0; i < batch_size; ++i) {
    Element e;
    e.key = ToBytes(MakeKey(rng.Uniform(map_entries)));
    e.value = rng.BytesOf(40);
    updates.push_back(std::move(e));
  }

  {
    PosTree tree(&store, cfg, ChunkType::kMap, *root);
    Timer t;
    for (const Element& e : updates) {
      bench::Check(tree.InsertOrAssign(Slice(e.key), Slice(e.value)),
                   "set");
    }
    const double ms = t.ElapsedMillis();
    bench::Row("sequential Set x%zu over %zu entries: %8.2f ms", batch_size,
               map_entries, ms);
    json->Row().Str("section", "D").Str("mode", "sequential").Num("ms", ms);
  }
  {
    PosTree tree(&store, cfg, ChunkType::kMap, *root);
    Timer t;
    bench::Check(tree.UpsertBatch(updates), "batch");
    const double ms = t.ElapsedMillis();
    bench::Row("UpsertBatch  x%zu over %zu entries: %8.2f ms", batch_size,
               map_entries, ms);
    json->Row().Str("section", "D").Str("mode", "batched").Num("ms", ms);
  }
}

// Runs `op` `n` times and reports its mean cost and chunk traffic.
template <typename Op>
void MeasureMutation(const char* name, uint64_t size, size_t height,
                     MemChunkStore* store, size_t n, const Op& op,
                     bench::BenchJson* json) {
  const ChunkStoreStats before = store->stats();
  Timer t;
  for (size_t i = 0; i < n; ++i) op();
  const double us = t.ElapsedMicros() / static_cast<double>(n);
  const ChunkStoreStats after = store->stats();
  const double gets = static_cast<double>(after.gets - before.gets) / n;
  const double puts = static_cast<double>(after.puts - before.puts) / n;
  bench::Row("%-16s %10llu %7zu %12.1f %8.1f %8.1f %14.1f", name,
             static_cast<unsigned long long>(size), height, us, gets, puts,
             (gets + puts) / static_cast<double>(height));
  json->Row()
      .Str("section", "E")
      .Str("op", name)
      .Num("size", static_cast<double>(size))
      .Num("height", static_cast<double>(height))
      .Num("us_per_op", us)
      .Num("gets_per_op", gets)
      .Num("puts_per_op", puts);
}

void AblateMutationCost(bool quick, bench::BenchJson* json) {
  bench::Header("Ablation E: per-mutation cost vs tree size");
  bench::Row("%-16s %10s %7s %12s %8s %8s %14s", "op", "size", "height",
             "us/op", "gets/op", "puts/op", "(g+p)/height");
  const TreeConfig cfg;
  Rng rng(5);

  std::vector<uint64_t> map_sizes = {1000, 10000, 100000, 1000000};
  if (quick) map_sizes.pop_back();
  for (const uint64_t entries : map_sizes) {
    // Even keys are present; odd ones are fresh, so about half of the
    // random Sets overwrite and half insert.
    MemChunkStore store;
    std::vector<Element> elems(entries);
    for (uint64_t i = 0; i < entries; ++i) {
      elems[i].key = ToBytes(MakeKey(2 * i));
      elems[i].value = rng.BytesOf(40);
    }
    FMap map(&store, cfg,
             bench::CheckResult(PosTree::BuildFromElements(
                                    &store, cfg, ChunkType::kMap, elems),
                                "build map"));
    elems.clear();
    const size_t height =
        bench::CheckResult(map.tree().Height(), "height");
    const size_t ops = quick ? 50 : 200;
    MeasureMutation("map_set", entries, height, &store, ops, [&] {
      const std::string key = MakeKey(rng.Uniform(2 * entries));
      bench::Check(map.Set(Slice(key), Slice(rng.BytesOf(40))), "set");
    }, json);
    MeasureMutation("map_set_batch25", entries, height, &store, ops / 4, [&] {
      std::vector<std::pair<Bytes, Bytes>> batch;
      for (int k = 0; k < 25; ++k) {
        batch.emplace_back(ToBytes(MakeKey(rng.Uniform(2 * entries))),
                           rng.BytesOf(40));
      }
      bench::Check(map.SetBatch(std::move(batch)), "set batch");
    }, json);
  }

  std::vector<uint64_t> blob_mb = {1, 16, 128};
  if (quick) blob_mb.pop_back();
  for (const uint64_t mb : blob_mb) {
    MemChunkStore store;
    const uint64_t size = mb << 20;
    const Bytes content = rng.BytesOf(size);
    Blob blob(&store, cfg,
              bench::CheckResult(
                  PosTree::BuildFromBytes(&store, cfg, Slice(content)),
                  "build blob"));
    const size_t height =
        bench::CheckResult(blob.tree().Height(), "height");
    MeasureMutation("blob_splice16", size, height, &store, quick ? 50 : 200,
                    [&] {
                      bench::Check(blob.Splice(rng.Uniform(size - 16), 16,
                                               Slice(rng.BytesOf(16))),
                                   "splice");
                    },
                    json);
  }
}

}  // namespace
}  // namespace fb

int main(int argc, char** argv) {
  const bool quick = fb::bench::FlagArg(argc, argv, "--quick");
  const double scale =
      fb::bench::ScaleArg(argc, argv, quick ? 0.125 : 1.0);
  fb::bench::BenchJson json(argc, argv, "ablation_pos_tree");
  json.Config("scale", scale).Config("quick", quick ? 1.0 : 0.0);
  const size_t data_size = static_cast<size_t>((8 << 20) * scale);
  fb::AblateChunkSize(data_size, &json);
  fb::AblateWindow(data_size, &json);
  fb::AblateAlpha(&json);
  fb::AblateBatching(static_cast<size_t>(20000 * scale), 50, &json);
  fb::AblateMutationCost(quick, &json);
  return 0;
}
