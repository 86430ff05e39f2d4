"""Traced in-process run of a workload's commands, for per-layer numbers.

Imports molmask, rebinds each layer's public functions to span-recording
wrappers in every molmask module that holds them by name, then calls
``molmask.cli.main`` once per command.  No source file changes.

A span is (name, start, end, parent, command id).  Spans stay in memory
in flat arrays and are written out once, when the run ends.  A span's
self time is its duration minus the time its direct child spans cover;
calls nest strictly on one thread, so children never overlap.

Bookkeeping that costs real time (pickling what ``parallel_map`` returns,
sizing files) runs inside ``trace.hook`` spans.  They are siblings of the
span they describe, so no layer's self time includes them, and their
total is subtracted from the traced command wall.

Usage (normally started by run.py):
    python3 perfbench/spans.py PLAN.json SUMMARY.json SPANS.npz
where PLAN.json holds {"cwd": dir, "commands": [[name, argv], ...]}.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import pickle
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"

# (module, function) pairs wrapped as spans.  Wrapped for coverage even
# where no metric reads them, so that parent self times exclude them.
LAYER_FUNCTIONS = [
    ("molgraph", "parse_smiles"),
    ("motif", "decompose"),
    ("motif", "canonical_signature"),
    ("motif", "motif_signatures"),
    ("motif", "motif_adjacency"),
    ("motif", "build_vocab"),
    ("scoring", "pagerank"),
    ("scoring", "load_external_scores"),
    ("masking", "uniform_mask"),
    ("masking", "perturbed_topk"),
    ("masking", "moama_mask"),
    ("masking", "motifpred_mask"),
    ("masking", "export_views"),
    ("infotheory", "sample_pairs_for_graph"),
    ("infotheory", "mutual_information"),
    ("infotheory", "entropy_y"),
    ("infotheory", "jsd_curve"),
    ("infotheory", "shuffle_control"),
    ("targets", "load_embeddings"),
    ("targets", "load_codebook"),
    ("targets", "atom_labels"),
    ("targets", "vq_labels"),
    ("targets", "argmax_labels"),
    ("targets", "atom_type_targets"),
    ("targets", "motif_targets"),
    ("workbench", "ingest"),
    ("workbench", "exact_joint_counts"),
    ("workbench", "parallel_map"),
    ("workbench", "run_mi_analysis"),
    ("workbench", "run_jsd_analysis"),
    ("workbench", "run_shuffle_control"),
    ("workbench", "run_mask_sim"),
    ("workbench", "write_report_csv"),
    ("workbench", "read_report_csv"),
    ("svg", "render_svg"),
]

PLAN_FUNCTIONS = ("uniform_mask", "perturbed_topk", "moama_mask", "motifpred_mask")
RUN_FUNCTIONS = ("run_mi_analysis", "run_jsd_analysis", "run_shuffle_control", "run_mask_sim")


class Tracer:
    """Span recorder plus the counters that hooks fill in."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.cmd = array("l")
        self.stack: list[int] = []
        self.command = -1
        self.counters: dict[str, float] = defaultdict(float)
        # Per command: distinct (graph, motif) pairs seen by the
        # signature routine, and parsed graphs per ingest.
        self.motif_keys: dict[int, set] = defaultdict(set)
        self.signatures: set[str] = set()
        self.parsed: dict[int, int] = defaultdict(int)
        self.decompose_cmds: set[int] = set()
        self.ingest_stats: list[dict] = []
        self.pagerank_iterations = array("l")
        self.pagerank_unconverged = 0
        self.hook_errors: dict[str, str] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cmd.append(self.command)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def hook(self):
        idx = self.open(self.name_id(HOOK))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, qualname: str, fn, on_result=None):
        name_id = self.name_id(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
                    # The layer's signature changed: lose the counter,
                    # never the command.
                    self.hook_errors[qualname] = repr(exc)
            return result

        return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Rebind every layer function, in every molmask module that imported
    it by name, to a span-recording wrapper.  A function that no longer
    exists is skipped, so its metrics read 0."""
    import molmask.cli  # noqa: F401  (loads every module that binds names)

    def on_signature(args, kwargs, result):
        atoms = _arg(args, kwargs, 1, "atoms")
        tracer.motif_keys[tracer.command].add((id(_arg(args, kwargs, 0, "graph")), atoms))
        tracer.signatures.add(result)

    def on_decompose(args, kwargs, result):
        tracer.decompose_cmds.add(tracer.command)

    def on_pagerank(args, kwargs, result):
        tracer.pagerank_iterations.append(result.iterations)
        tracer.pagerank_unconverged += int(not result.converged)

    def on_parallel_map(args, kwargs, result):
        with tracer.hook():
            tracer.counters["workbench.parallel_map.result_bytes"] += len(
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            )

    def on_ingest(args, kwargs, result):
        _, stats = result
        tracer.parsed[tracer.command] += stats.parsed
        tracer.counters["workbench.ingest.rows"] += stats.rows_total
        tracer.ingest_stats.append({
            "command": tracer.command,
            "rows": stats.rows_total,
            "parsed": stats.parsed,
            "parse_failures": dict(stats.parse_failures),
            "singletons": stats.singletons,
        })

    def on_export(args, kwargs, result):
        with tracer.hook():
            tracer.counters["masking.export_views.bytes_written"] += os.path.getsize(
                _arg(args, kwargs, 3, "path")
            )

    def on_load_embeddings(args, kwargs, result):
        with tracer.hook():
            tracer.counters["targets.load_embeddings.bytes_read"] += os.path.getsize(
                _arg(args, kwargs, 0, "path")
            )

    hooks = {
        "canonical_signature": on_signature,
        "decompose": on_decompose,
        "pagerank": on_pagerank,
        "parallel_map": on_parallel_map,
        "ingest": on_ingest,
        "export_views": on_export,
        "load_embeddings": on_load_embeddings,
    }
    modules = [m for n, m in sys.modules.items() if n == "molmask" or n.startswith("molmask.")]
    for module_name, func_name in LAYER_FUNCTIONS:
        original = getattr(sys.modules.get(f"molmask.{module_name}"), func_name, None)
        if original is None:
            print(f"trace: molmask.{module_name}.{func_name} not found; not traced", file=sys.stderr)
            continue
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original, hooks.get(func_name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time."""
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - covered


def layer_metrics(tracer: Tracer, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of the whole traced run (all commands)."""
    dur, self_t = _self_times(tracer)
    name = np.asarray(tracer.name, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    self_by = np.bincount(name, weights=self_t, minlength=n_names)

    def stat(qualname: str) -> tuple[int, float]:
        if qualname not in tracer.names:
            return 0, 0.0
        i = tracer.names.index(qualname)
        return int(calls[i]), float(self_by[i])

    def per_call_us(qualname: str) -> float:
        n, s = stat(qualname)
        return 1e6 * s / n if n else 0.0

    m: dict[str, float] = {}
    n, s = stat("molgraph.parse_smiles")
    m.update({"molgraph.parse_smiles.calls": n, "molgraph.parse_smiles.self_s": s,
              "molgraph.parse_smiles.us_per_call": per_call_us("molgraph.parse_smiles")})

    n, s = stat("motif.canonical_signature")
    occurrences = sum(len(keys) for keys in tracer.motif_keys.values())
    fallback = sum(1 for sig in tracer.signatures if "|cls:" in sig)
    m.update({
        "motif.canonical_signature.calls": n,
        "motif.canonical_signature.self_s": s,
        "motif.canonical_signature.us_per_call": per_call_us("motif.canonical_signature"),
        "motif.canonical_signature.calls_per_motif": n / occurrences if occurrences else 0.0,
        "motif.signature_fallback_share": fallback / len(tracer.signatures) if tracer.signatures else 0.0,
    })
    n, s = stat("motif.decompose")
    graphs = sum(tracer.parsed[c] for c in tracer.decompose_cmds)
    m.update({"motif.decompose.calls": n, "motif.decompose.self_s": s,
              "motif.decompose.calls_per_graph": n / graphs if graphs else 0.0,
              "motif.build_vocab.self_s": stat("motif.build_vocab")[1]})

    n, s = stat("scoring.pagerank")
    iters = tracer.pagerank_iterations
    m.update({"scoring.pagerank.calls": n, "scoring.pagerank.self_s": s,
              "scoring.pagerank.us_per_call": per_call_us("scoring.pagerank"),
              "scoring.pagerank.iterations_mean": sum(iters) / len(iters) if iters else 0.0,
              "scoring.pagerank.unconverged": tracer.pagerank_unconverged})

    plan = [stat(f"masking.{f}") for f in PLAN_FUNCTIONS]
    m["masking.plan.draws"] = sum(n for n, _ in plan)
    for f in PLAN_FUNCTIONS:
        m[f"masking.{f}.us_per_call"] = per_call_us(f"masking.{f}")
    m["masking.plan.self_s"] = sum(s for _, s in plan)
    m["masking.export_views.self_s"] = stat("masking.export_views")[1]
    m["masking.export_views.bytes_written"] = tracer.counters["masking.export_views.bytes_written"]

    n, s = stat("infotheory.sample_pairs_for_graph")
    m.update({"infotheory.sample_pairs_for_graph.calls": n,
              "infotheory.sample_pairs_for_graph.self_s": s})
    for f in ("mutual_information", "jsd_curve", "shuffle_control"):
        m[f"infotheory.{f}.self_s"] = stat(f"infotheory.{f}")[1]

    m["targets.load_embeddings.self_s"] = stat("targets.load_embeddings")[1]
    m["targets.load_embeddings.bytes_read"] = tracer.counters["targets.load_embeddings.bytes_read"]
    for f in ("vq_labels", "argmax_labels", "motif_targets"):
        m[f"targets.{f}.self_s"] = stat(f"targets.{f}")[1]

    n, s = stat("workbench.exact_joint_counts")
    m.update({
        "workbench.ingest.self_s": stat("workbench.ingest")[1],
        "workbench.ingest.rows": tracer.counters["workbench.ingest.rows"],
        "workbench.exact_joint_counts.calls": n,
        "workbench.exact_joint_counts.self_s": s,
        "workbench.run_analysis.self_s": sum(stat(f"workbench.{f}")[1] for f in RUN_FUNCTIONS),
        "workbench.parallel_map.result_bytes": tracer.counters["workbench.parallel_map.result_bytes"],
        "workbench.write_report_csv.self_s": stat("workbench.write_report_csv")[1],
        "svg.render_svg.self_s": stat("svg.render_svg")[1],
    })

    # Hook time is taken out of both sides: out of the command walls, and
    # out of the top-level spans that enclose nested hooks.
    hook = np.asarray([n == HOOK for n in tracer.names], dtype=bool)[name]
    top = (parent < 0) & ~hook
    m["_top_level_s"] = float(dur[top].sum() - dur[hook & (parent >= 0)].sum())
    m["_net_wall_s"] = sum(walls) - float(dur[hook].sum())
    m["_distinct_signatures"] = len(tracer.signatures)
    return m


def main() -> int:
    plan_path, summary_path, spans_path = sys.argv[1:4]
    with open(plan_path) as handle:
        plan = json.load(handle)
    os.chdir(plan["cwd"])
    tracer = Tracer()
    install(tracer)
    from molmask import cli

    commands = []
    walls = []
    for index, (name, argv) in enumerate(plan["commands"]):
        tracer.command = index
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a crashed run
            print(f"trace: {name} raised {exc!r}", file=sys.stderr)
            code = -1
        walls.append(time.perf_counter() - t0)
        commands.append({"name": name, "code": code, "wall_s": walls[-1]})

    metrics = layer_metrics(tracer, walls)
    for qualname, error in tracer.hook_errors.items():
        print(f"trace: counters of {qualname} lost: {error}", file=sys.stderr)
    summary = {"commands": commands, "metrics": metrics, "ingest": tracer.ingest_stats}
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    np.savez_compressed(
        spans_path,
        names=np.asarray(tracer.names),
        name=np.asarray(tracer.name, dtype=np.int32),
        start=np.asarray(tracer.start),
        end=np.asarray(tracer.end),
        parent=np.asarray(tracer.parent, dtype=np.int64),
        command=np.asarray(tracer.cmd, dtype=np.int32),
        command_names=np.asarray([c["name"] for c in commands]),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
