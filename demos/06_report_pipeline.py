"""End-to-end analysis: corpus CSV in, report CSVs and SVG charts out.

Everything here is also reachable from the command line; the
equivalent invocations are printed at the end.

Run from the repository root:

    python3 demos/06_report_pipeline.py
"""

import tempfile
from pathlib import Path

from molmask import (
    build_vocab,
    graph_motifs,
    ingest,
    read_report_csv,
    render_svg,
    run_coverage,
    run_jsd_analysis,
    run_mi_analysis,
    run_shuffle_control,
    target_column,
    write_report_csv,
)

corpus = Path(__file__).parent / "data" / "demo_corpus.csv"
records, _ = ingest(corpus, smiles_column="smiles", label_column="activity")
# Each target kind is one label column over the records.  Motif labels
# read each record's motifs, found once here, and a vocabulary counted
# from their signatures, as the commands do; the coverage report below
# reuses that vocabulary and those signatures.
graphs = [r.graph for r in records]
motifs = [graph_motifs(graph) for graph in graphs]
vocab = build_vocab(m.signatures for m in motifs)
columns = [target_column(kind, graphs, {"vocab": vocab, "motifs": motifs})
           for kind in ("atom_type", "motif")]

# Each runner returns an AnalysisReport: typed rows plus a fixed column
# order, with seed and a config hash in every row for provenance.
mi = run_mi_analysis(records, columns, dataset_name="demo", seed=0)
jsd = run_jsd_analysis(records, columns, dataset_name="demo", seed=0)
shuffle = run_shuffle_control(records, columns[1], dataset_name="demo", repeats=5, seed=0)
cov = run_coverage(vocab, (m.signatures for m in motifs), dataset_name="demo")

print("mi rows:")
for row in mi.rows:
    print(f"  {row[1]:10} mi={row[3]:.4f} h_y={row[4]:.4f} config={row[11]}")
print("\nshuffle rows:")
for row in shuffle.rows:
    print(f"  {row[2]:10} mi={row[3]:.4f}")
print(f"\ncoverage: overlap={cov.rows[0][1]:.3f} mean_r={cov.rows[0][2]:.3f}")

# The reports and charts go to a temporary directory, removed when the
# demo ends.
with tempfile.TemporaryDirectory(prefix="molmask_demo_") as tmp:
    out = Path(tmp)

    # Reports serialize to CSV with a fixed float format, so byte-for-byte
    # equality across runs and across --workers is a testable property.
    # Reading a report back and rewriting it reproduces the exact file.
    for name, report in (("mi", mi), ("jsd", jsd), ("coverage", cov)):
        path = out / f"{name}.csv"
        write_report_csv(report, path)
        again = read_report_csv(path)
        assert again.kind == report.kind
        write_report_csv(again, out / "rewrite.csv")
        assert (out / "rewrite.csv").read_bytes() == path.read_bytes()
    (out / "rewrite.csv").unlink()

    # Every report kind renders to a self-contained SVG chart.
    for name, report in (("mi", mi), ("jsd", jsd), ("coverage", cov)):
        render_svg(report, out / f"{name}.svg")

    print(f"\nwrote reports and charts under {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name} ({path.stat().st_size} bytes)")

print("""
command-line equivalents:
  molmask --seed 0 --out-dir OUT mi --input demos/data/demo_corpus.csv \\
      --label-col activity --targets atom_type,motif
  molmask --seed 0 --out-dir OUT jsd --input demos/data/demo_corpus.csv \\
      --label-col activity --targets atom_type,motif
  molmask --seed 0 --out-dir OUT shuffle-control --input demos/data/demo_corpus.csv \\
      --label-col activity --target motif
  molmask --out-dir OUT plot --report OUT/jsd.csv""")
