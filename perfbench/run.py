"""molmask benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  The run

1. generates the workload's corpus from --seed (perfbench/gen.py);
2. times interpreter start + ``import molmask`` + CLI start
   (``molmask --version``): three samples first and two after every
   pass; setup_s is their median;
3. runs the workload's command list at --workers 1, then at --workers 2,
   one command at a time (a closed loop with one client, so at most two
   processes are busy), and repeats that pair of passes to fill
   --seconds, at least three times;
4. checks every output (exit codes, byte identity across worker counts,
   ground-truth MI and counts from the generator's sidecar);
5. with --trace 1, also runs the commands in-process at --workers 1 under
   span-recording wrappers (perfbench/spans.py) and reports per-layer
   metrics instead of the end-to-end ones.

wall_s.wN sums, over the command list, each command's median wall over
the passes.  peak_rss_mb.wN is the median over the passes of the
largest peak of any one command.

Peak RSS comes from ``os.wait4`` on each command's own process; Linux
folds in the largest waited-for descendant, so at --workers 2 it is the
largest single process of the command's tree, pool workers included.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Lines before it list every metric by name and unit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
COMMAND_TIMEOUT_S = 150.0
MIN_PASSES = 3

STRATEGIES = "uniform,pagerank,external,moama,motifpred"
MASK_RATIO = 0.15

# Corpus sizes are scaled down from the roadmap's 1k/5k so that one pass
# at both worker counts takes about 5-7 s on 2 cores, and five or more
# passes fit one 38-second run.
WORKLOADS = {
    "exact": {
        "molecules": 300,
        "side_files": ("vectors",),
        "commands": [
            ("mi", ["mi", "--input", "corpus.csv", "--label-col", "activity",
                    "--targets", "atom_type,motif,vq_code,argmax_token",
                    "--embeddings", "embeddings.csv", "--codebook", "codebook.csv",
                    "--logits", "logits.csv"], ["mi.csv"]),
            ("jsd", ["jsd", "--input", "corpus.csv", "--label-col", "activity"], ["jsd.csv"]),
            ("shuffle-control", ["shuffle-control", "--input", "corpus.csv",
                                 "--label-col", "activity", "--target", "motif"], ["shuffle.csv"]),
            ("plot", ["plot", "--report", "{out}/jsd.csv"], ["jsd.svg"]),
        ],
    },
    "masksim": {
        "molecules": 100,
        "side_files": ("scores",),
        "commands": [
            ("mask-sim", ["mask-sim", "--input", "corpus.csv", "--label-col", "activity",
                          "--strategies", STRATEGIES, "--repeats", "5",
                          "--scores", "scores.csv"], ["mask_sim.csv"]),
        ],
    },
    "export": {
        "molecules": 700,
        "side_files": (),
        "commands": [
            ("export-views.moama", ["export-views", "--input", "corpus.csv",
                                    "--strategy", "moama", "--target", "motif",
                                    "--draws-per-graph", "2",
                                    "--output", "{out}/views_moama.jsonl"], ["views_moama.jsonl"]),
            ("export-views.pagerank", ["export-views", "--input", "corpus.csv",
                                       "--strategy", "pagerank", "--target", "atom_type",
                                       "--draws-per-graph", "2",
                                       "--output", "{out}/views_pagerank.jsonl"],
             ["views_pagerank.jsonl"]),
        ],
    },
}
ALL_COMMANDS = [name for w in WORKLOADS.values() for name, _, _ in w["commands"]]
DRAWS_PER_GRAPH = 2

END_TO_END = [
    ("wall_s.w1", "s"), ("wall_s.w2", "s"),
    ("peak_rss_mb.w1", "MB"), ("peak_rss_mb.w2", "MB"),
    ("setup_s", "s"),
]

# Per-layer metric names and units; spans.py computes all but cli.* and
# trace.*.  Every name is printed on every workload (0 where a workload
# does not reach the layer).
PER_LAYER = [
    ("molgraph.parse_smiles.calls", "count"),
    ("molgraph.parse_smiles.self_s", "s"),
    ("molgraph.parse_smiles.us_per_call", "us"),
    ("motif.canonical_signature.calls", "count"),
    ("motif.canonical_signature.self_s", "s"),
    ("motif.canonical_signature.us_per_call", "us"),
    ("motif.canonical_signature.calls_per_motif", "ratio"),
    ("motif.signature_fallback_share", "ratio"),
    ("motif.decompose.calls", "count"),
    ("motif.decompose.self_s", "s"),
    ("motif.decompose.calls_per_graph", "ratio"),
    ("motif.build_vocab.self_s", "s"),
    ("scoring.pagerank.calls", "count"),
    ("scoring.pagerank.self_s", "s"),
    ("scoring.pagerank.us_per_call", "us"),
    ("scoring.pagerank.iterations_mean", "count"),
    ("scoring.pagerank.unconverged", "count"),
    ("masking.plan.draws", "count"),
    ("masking.uniform_mask.us_per_call", "us"),
    ("masking.perturbed_topk.us_per_call", "us"),
    ("masking.moama_mask.us_per_call", "us"),
    ("masking.motifpred_mask.us_per_call", "us"),
    ("masking.plan.self_s", "s"),
    ("masking.export_views.self_s", "s"),
    ("masking.export_views.bytes_written", "bytes"),
    ("infotheory.sample_pairs_for_graph.calls", "count"),
    ("infotheory.sample_pairs_for_graph.self_s", "s"),
    ("infotheory.mutual_information.self_s", "s"),
    ("infotheory.jsd_curve.self_s", "s"),
    ("infotheory.shuffle_control.self_s", "s"),
    ("targets.load_embeddings.self_s", "s"),
    ("targets.load_embeddings.bytes_read", "bytes"),
    ("targets.vq_labels.self_s", "s"),
    ("targets.argmax_labels.self_s", "s"),
    ("targets.motif_targets.self_s", "s"),
    ("workbench.ingest.self_s", "s"),
    ("workbench.ingest.rows", "count"),
    ("workbench.exact_joint_counts.calls", "count"),
    ("workbench.exact_joint_counts.self_s", "s"),
    ("workbench.run_analysis.self_s", "s"),
    ("workbench.parallel_map.result_bytes", "bytes"),
    ("workbench.write_report_csv.self_s", "s"),
    ("svg.render_svg.self_s", "s"),
    *[(f"cli.{c}.{m}", "s") for c in ALL_COMMANDS for m in ("wall_s.w1", "wall_s.w2", "cpu_s.w2")],
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
]


class Command(NamedTuple):
    """One CLI invocation and what it cost."""

    name: str
    wall_s: float
    code: int
    rss_mb: float
    cpu_s: float


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, name: str, log: Path) -> Command:
    """Run one process to completion; wall, exit code, and its own
    rusage from wait4 (never RUSAGE_CHILDREN, which mixes commands)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Command(name, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                   usage.ru_utime + usage.ru_stime)


def cli_argv(args: list[str], workers: int, out: str, seed: int) -> list[str]:
    filled = [a.replace("{out}", out) for a in args]
    return ["--seed", str(seed), "--workers", str(workers), "--out-dir", out, *filled]


def setup_samples(cwd: Path, log: Path, samples: int) -> list[float]:
    """Walls of ``molmask --version``: the start-up every command pays."""
    argv = [sys.executable, "-m", "molmask.cli", "--version"]
    walls = []
    for _ in range(samples):
        cmd = run_child(argv, cwd, "setup", log)
        if cmd.code != 0:
            raise SystemExit(f"molmask --version failed (exit {cmd.code}); see {log}")
        walls.append(cmd.wall_s)
    return walls


def run_pass(spec: dict, workers: int, work: Path, seed: int, log: Path) -> list[Command]:
    out = f"w{workers}"
    (work / out).mkdir(exist_ok=True)
    done = []
    for name, args, _ in spec["commands"]:
        argv = [sys.executable, "-m", "molmask.cli", *cli_argv(args, workers, out, seed)]
        done.append(run_child(argv, work, name, log))
    return done


# ---------------------------------------------------------------- checks

def load_truth(work: Path) -> list[dict]:
    with open(work / "truth.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def _plugin_mi(table: dict[tuple[int, int], int]) -> tuple[float, int]:
    """Plug-in MI in bits of a (x, y) count table, and its total."""
    xs = sorted({x for x, _ in table})
    mat = np.zeros((len(xs), 2))
    for (x, y), n in table.items():
        mat[xs.index(x), y] = n
    total = mat.sum()
    p = mat / total
    outer = p.sum(axis=1, keepdims=True) @ p.sum(axis=0, keepdims=True)
    nz = p > 0
    return max(float(np.sum(p[nz] * np.log2(p[nz] / outer[nz]))), 0.0), int(total)


def atom_type_truth(truth: list[dict]) -> tuple[float, int]:
    """Ground-truth atom_type MI and pair count over usable graphs:
    parsed, labeled, more than one atom."""
    table: dict[tuple[int, int], int] = {}
    for row in truth:
        if row["outcome"] != "ok" or row["label"] not in ("0", "1") or int(row["n_atoms"]) < 2:
            continue
        y = int(row["label"])
        for cell in row["elements"].split(";"):
            z, n = (int(v) for v in cell.split(":"))
            table[(z, y)] = table.get((z, y), 0) + n
    return _plugin_mi(table)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _finite_nonneg(cell: str) -> bool:
    value = float(cell)
    return math.isfinite(value) and value >= 0.0


def check_outputs(name: str, out: Path, truth: list[dict]) -> list[str]:
    """Content checks of one command's outputs; returns problems."""
    problems = []
    try:
        if name == "mi":
            rows = {r["target_kind"]: r for r in _read_csv(out / "mi.csv")}
            if sorted(rows) != sorted(["atom_type", "motif", "vq_code", "argmax_token"]):
                problems.append(f"mi.csv kinds {sorted(rows)}")
            mi, pairs = atom_type_truth(truth)
            row = rows.get("atom_type", {})
            if int(row.get("n_pairs", -1)) != pairs:
                problems.append(f"atom_type n_pairs {row.get('n_pairs')} != {pairs}")
            if abs(float(row.get("mi_bits", "nan")) - mi) > 1e-9 or not math.isfinite(mi):
                problems.append(f"atom_type MI {row.get('mi_bits')} != {mi:.12g}")
            if not all(_finite_nonneg(r["mi_bits"]) for r in rows.values()):
                problems.append("mi.csv has a negative or non-finite MI")
        elif name == "jsd":
            kinds = {r["target_kind"] for r in _read_csv(out / "jsd.csv")}
            if kinds != {"atom_type", "motif"}:
                problems.append(f"jsd.csv kinds {sorted(kinds)}")
        elif name == "shuffle-control":
            rows = _read_csv(out / "shuffle.csv")
            if [r["strategy"] for r in rows] != ["exact", "shuffled"] or not all(
                _finite_nonneg(r["mi_bits"]) for r in rows
            ):
                problems.append("shuffle.csv is not one finite exact and one shuffled row")
        elif name == "plot":
            if b"<svg" not in (out / "jsd.svg").read_bytes()[:512]:
                problems.append("jsd.svg is not an SVG document")
        elif name == "mask-sim":
            rows = _read_csv(out / "mask_sim.csv")
            if [r["strategy"] for r in rows] != STRATEGIES.split(","):
                problems.append(f"mask_sim.csv strategies {[r['strategy'] for r in rows]}")
            if not all(_finite_nonneg(r["mi_bits"]) for r in rows):
                problems.append("mask_sim.csv has a negative or non-finite MI")
        elif name.startswith("export-views."):
            strategy = name.split(".", 1)[1]
            parsed = [r for r in truth if r["outcome"] == "ok"]
            with open(out / f"views_{strategy}.jsonl") as handle:
                views = [json.loads(line) for line in handle]
            if len(views) != len(parsed) * DRAWS_PER_GRAPH:
                problems.append(f"{len(views)} views for {len(parsed)} graphs")
            for i, view in enumerate(views[: len(parsed) * DRAWS_PER_GRAPH]):
                n = int(parsed[i // DRAWS_PER_GRAPH]["n_atoms"])
                if strategy == "pagerank":
                    k = max(1, math.floor(MASK_RATIO * n + 0.5))
                    if len(view["masked_atoms"]) != k:
                        problems.append(f"view {i} masks {len(view['masked_atoms'])} of {n}, want {k}")
                        break
                if not view["masked_atoms"] or max(view["masked_atoms"]) >= n:
                    problems.append(f"view {i} masks atoms outside its graph")
                    break
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"{name}: unreadable output: {exc!r}")
    return problems


def check_ingest(stats: list[dict], truth: list[dict]) -> list[str]:
    """Ingest tallies recorded in the traced run against the sidecar."""
    want_fail: dict[str, int] = {}
    for row in truth:
        if row["outcome"] != "ok":
            want_fail[row["outcome"]] = want_fail.get(row["outcome"], 0) + 1
    parsed = [r for r in truth if r["outcome"] == "ok"]
    singletons = sum(1 for r in parsed if int(r["n_atoms"]) == 1)
    problems = []
    for s in stats:
        got = (s["rows"], s["parsed"], s["parse_failures"], s["singletons"])
        want = (len(truth), len(parsed), want_fail, singletons)
        if got != want:
            problems.append(f"ingest tallies {got} != sidecar {want}")
    return problems


def same_bytes(a: Path, b: Path) -> bool:
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


# ----------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description="molmask benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="",
                        help="also merge this run's result into a JSON file")
    args = parser.parse_args()

    if not (ROOT / "src" / "molmask" / "cli.py").is_file():
        print(f"error: no molmask sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stderr.log"
    try:
        return run(args, spec, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, spec: dict, work: Path, log: Path) -> int:
    corpus = gen.generate(work, spec["molecules"], args.seed, side_files=spec["side_files"])
    truth = load_truth(work)
    setup_samples(work, log, 1)  # warm-up: file cache, and bytecode caches where written
    setup = setup_samples(work, log, 3)

    attempted = failed = 0
    problems: list[str] = []
    passes: list[tuple[list[Command], list[Command]]] = []
    t_start = time.perf_counter()
    while True:
        w1 = run_pass(spec, 1, work, args.seed, log)
        w2 = run_pass(spec, 2, work, args.seed, log)
        passes.append((w1, w2))
        for workers, cmds in ((1, w1), (2, w2)):
            for (name, _, outputs), cmd in zip(spec["commands"], cmds):
                attempted += 1
                bad = [] if cmd.code == 0 else [f"exit {cmd.code}"]
                if not bad:
                    bad = check_outputs(name, work / f"w{workers}", truth)
                if workers == 2 and not bad:
                    bad = [f"{o} differs between --workers 1 and 2" for o in outputs
                           if not same_bytes(work / "w1" / o, work / "w2" / o)]
                if bad:
                    failed += 1
                    problems += [f"{name} --workers {workers}: {p}" for p in bad]
        setup += setup_samples(work, log, 1)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    setup_s = statistics.median(setup)

    if not args.trace:
        metrics = end_to_end_metrics(passes, setup_s)
        speedup = metrics["wall_s.w1"][0] / metrics["wall_s.w2"][0]
        print(f"info: w2/w1 speed-up {speedup:.3f} (not a gated metric)")
        for w in (1, 2):
            walls = [round(sum(c.wall_s for c in p[w - 1]), 3) for p in passes]
            print(f"info: --workers {w} command-list wall per pass: {walls}")
    else:
        traced, trace_problems = run_traced(args, spec, work, log, truth)
        attempted += len(spec["commands"])
        failed += len(trace_problems)
        problems += [p for ps in trace_problems.values() for p in ps]
        metrics = per_layer_metrics(passes, traced, setup_s, len(spec["commands"]))
        corpus["distinct_signatures"] = traced["metrics"].get("_distinct_signatures", 0)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if failed and log.exists():
        sys.stderr.write(log.read_text()[-4000:])
    print(f"info: workload {args.workload} seed {args.seed}: {corpus['rows']} rows, "
          f"{corpus['parsed']} parsed, mean {corpus['mean_atoms']:.2f} atoms; "
          f"{len(passes)} pass(es); failed_share {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record(Path(args.record), args, corpus, result)
    print(json.dumps(result))
    return 0


def run_traced(args, spec: dict, work: Path, log: Path,
               truth: list[dict]) -> tuple[dict, dict[str, list[str]]]:
    """In-process traced pass at --workers 1; returns its summary and
    the problems its outputs show, by command."""
    out = "trace"
    (work / out).mkdir(exist_ok=True)
    plan = {"cwd": str(work),
            "commands": [[name, cli_argv(a, 1, out, args.seed)] for name, a, _ in spec["commands"]]}
    (work / "trace_plan.json").write_text(json.dumps(plan))
    summary_path = work / "trace_summary.json"
    spans = WORK / f"spans-{args.workload}.npz"
    cmd = run_child([sys.executable, str(HERE / "spans.py"), str(work / "trace_plan.json"),
                     str(summary_path), str(spans)], work, "trace", log)
    names = [name for name, _, _ in spec["commands"]]
    if cmd.code != 0 or not summary_path.exists():
        return {"metrics": {}, "commands": []}, {n: [f"traced run exit {cmd.code}"] for n in names}
    summary = json.loads(summary_path.read_text())
    problems: dict[str, list[str]] = {}
    for (name, _, outputs), traced in zip(spec["commands"], summary["commands"]):
        bad = [] if traced["code"] == 0 else [f"exit {traced['code']}"]
        bad += [f"{o} differs between traced and untraced runs" for o in outputs
                if not same_bytes(work / "w1" / o, work / out / o)]
        problems.setdefault(name, []).extend(bad)
    for line in log.read_text().splitlines():
        if line.startswith("trace: "):
            print(f"info: {line}", file=sys.stderr)
    if not summary["ingest"]:
        print("info: no ingest tallies were recorded; that check was skipped", file=sys.stderr)
    for stats in summary["ingest"]:
        problems[names[stats["command"]]].extend(check_ingest([stats], truth))
    problems = {name: [f"{name} traced: {p}" for p in ps] for name, ps in problems.items() if ps}
    return summary, problems


def per_command(passes, workers: int, field: str) -> dict[str, float]:
    """Per command, the median of ``field`` over the passes."""
    values: dict[str, list[float]] = {}
    for p in passes:
        for c in p[workers - 1]:
            values.setdefault(c.name, []).append(getattr(c, field))
    return {name: statistics.median(v) for name, v in values.items()}


def end_to_end_metrics(passes, setup_s: float) -> dict:
    metrics = {"setup_s": setup_s}
    for w in (1, 2):
        metrics[f"wall_s.w{w}"] = sum(per_command(passes, w, "wall_s").values())
        metrics[f"peak_rss_mb.w{w}"] = statistics.median(
            max(c.rss_mb for c in p[w - 1]) for p in passes
        )
    return {name: (metrics[name], unit) for name, unit in END_TO_END}


def per_layer_metrics(passes, traced: dict, setup_s: float, n_commands: int) -> dict:
    layer = traced["metrics"]
    metrics = {}
    for name, unit in PER_LAYER:
        if name in layer:
            metrics[name] = (float(layer[name]), unit)
    for workers, field in ((1, "wall_s"), (2, "wall_s"), (2, "cpu_s")):
        for name, value in per_command(passes, workers, field).items():
            metrics[f"cli.{name}.{field}.w{workers}"] = (value, "s")
    untraced = sum(per_command(passes, 1, "wall_s").values())
    net = layer.get("_net_wall_s", 0.0)
    baseline = untraced - n_commands * setup_s
    metrics["trace.overhead_share"] = (net / baseline - 1.0 if net and baseline > 0 else 0.0, "ratio")
    metrics["trace.coverage"] = (layer["_top_level_s"] / net if net else 0.0, "ratio")
    return {name: metrics.get(name, (0.0, unit)) for name, unit in PER_LAYER}


def record(path: Path, args, corpus: dict, result: dict) -> None:
    """Merge this run into a result file, with what it ran on."""
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["environment"] = {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    entry = data.setdefault("workloads", {}).setdefault(args.workload, {})
    entry["corpus"] = {"seed": args.seed, **corpus}
    entry["trace" if args.trace else "end_to_end"] = result
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
