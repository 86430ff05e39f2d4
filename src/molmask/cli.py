"""Command line front end.

Exit codes: 0 success, 1 usage problem, 2 data problem (unreadable or
malformed inputs).  All analysis outputs land under --out-dir with
deterministic bytes for a fixed seed, whatever --workers says.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

# Only what the parser needs is imported here.  Each command imports the
# layers it runs, so start-up, --help, --version and plot load no numpy.
from ._version import __version__
from .choices import DEFAULT_TAUS, STRATEGY_INPUTS, TARGET_INPUTS
from .errors import DataError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _add_dataset_flags(
    sub: argparse.ArgumentParser, named: bool = True, labeled: bool = True
) -> None:
    """The corpus flags, with --dataset-name for a command that names
    the corpus in its output and --label-col for one that reads labels."""
    sub.add_argument("--input", required=True, help="CSV corpus path")
    sub.add_argument("--smiles-col", default="smiles", help="SMILES column name")
    if named:
        sub.add_argument("--dataset-name", default="", help="name used in report rows")
    if labeled:
        sub.add_argument("--label-col", default="", help="binary task column name")


def _add_choice_flags(
    sub: argparse.ArgumentParser, flag: str, table: dict, default: str, output: str, several: bool
) -> None:
    """The choice flag ``flag`` over ``table`` (comma-separated names
    when ``several``), every input flag its choices read, and, unless
    ``output`` is empty, --output with ``output`` as its default name."""
    what = _nouns(table)[0]
    sub.add_argument(flag, default=default, choices=None if several else tuple(table),
                     help=f"comma-separated {what} names" if several else f"one {what}")
    helps = {"vocab": "motif vocabulary TSV of the {} (default: build from input)",
             "logits": "per-atom logits CSV of the {}",
             "embeddings": "per-atom embedding CSV of the {}",
             "codebook": "codebook CSV of the {}",
             "vq_normalize": "L2-normalize before quantizing, for the {}",
             "scores": "per-atom score CSV of the {}"}
    for name in dict.fromkeys(name for inputs in table.values() for name in inputs):
        how = {"action": "store_true"} if name == "vq_normalize" else {"default": ""}
        sub.add_argument(_flag(name), **how, help=helps[name].format(_read_by(name, table)))
    if output:
        sub.add_argument("--output", default="", help=f"output path (default: {output} in --out-dir)")


def _nouns(table: dict) -> tuple[str, str]:
    """What usage errors call a choice of ``table``: in a list, and alone."""
    return ("target kind", "target") if table is TARGET_INPUTS else ("strategy", "strategy")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read_by(name: str, table: dict) -> str:
    """The choices of ``table`` that read input ``name``, quoted, and their noun."""
    readers = " and ".join(repr(choice) for choice, inputs in table.items() if name in inputs)
    return f"{readers} {_nouns(table)[1]}"


def _add_mask_flags(sub: argparse.ArgumentParser, flag: str, output: str, several: bool) -> None:
    _add_choice_flags(sub, flag, STRATEGY_INPUTS, "uniform", output, several)
    sub.add_argument("--ratio", type=float, default=0.15, help="mask ratio gamma")
    sub.add_argument("--beta", type=float, default=None,
                     help="candidate bonus of the scored strategies "
                          "(default 0.25 for pagerank, 0.5 for external)")
    sub.add_argument("--epoch", type=int, default=None, help="annealing epoch i (default: final)")
    sub.add_argument("--max-epoch", type=int, default=100, help="annealing horizon E")
    sub.add_argument("--intra-frac", type=float, default=0.5,
                     help="fraction of atoms masked inside a selected motif")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _taus(text: str) -> list[float]:
    try:
        taus = [float(piece) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(tau) and tau > 0 for tau in taus):
        raise argparse.ArgumentTypeError(f"thresholds must be finite and positive, got {text!r}")
    for tau in taus:
        if taus.count(tau) > 1:
            raise argparse.ArgumentTypeError(f"tau {tau} given more than once")
    return taus


def _mask_config(args) -> MaskConfig:
    from .masking import MaskConfig

    try:
        return MaskConfig(
            ratio=args.ratio,
            beta=args.beta,
            epoch=args.epoch,
            max_epoch=args.max_epoch,
            intra_motif_fraction=args.intra_frac,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _manifest(args) -> DatasetManifest:
    from .workbench import DatasetManifest

    return DatasetManifest(
        path=args.input,
        smiles_column=args.smiles_col,
        label_column=getattr(args, "label_col", ""),
        name=getattr(args, "dataset_name", ""),
    )


def _ingest_for_analysis(args, command: str = ""):
    """The parsed corpus; a ``command`` that needs labels is checked
    for --label-col before the corpus is read."""
    from .workbench import ingest

    manifest = _manifest(args)
    if command and not manifest.label_column:
        raise _UsageError(f"{command} needs --label-col")
    records, stats = ingest(manifest)
    if not records:
        raise DataError(f"no parseable molecules in {args.input}")
    return manifest, records, stats


def _output_path(explicit: str) -> Path:
    """An --output path, its directory created if missing."""
    path = Path(explicit)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _out_path(args, default_name: str) -> Path:
    explicit = getattr(args, "output", "")
    if explicit:
        return _output_path(explicit)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / default_name


def _write_report(args, report, default_name: str) -> int:
    from .report import write_report_csv

    path = _out_path(args, default_name)
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def _choices(args, flag: str, table: dict) -> list[str]:
    """The choices of ``table`` that ``flag`` names, checked with their
    inputs before the corpus is read: a choice without an input it
    needs, or an input flag that none of them reads, is a usage error."""
    what, noun = _nouns(table)
    chosen = [piece.strip() for piece in getattr(args, flag[2:]).split(",") if piece.strip()]
    if not chosen:
        raise _UsageError(f"no {what} given")
    for choice in chosen:
        if choice not in table:
            raise _UsageError(f"unknown {what} {choice!r}; choose from {', '.join(table)}")
        if chosen.count(choice) > 1:
            raise _UsageError(f"{what} {choice!r} given more than once")
    for choice in chosen:
        needed = [name for name, required in table[choice].items() if required]
        if not all(getattr(args, name) for name in needed):
            raise _UsageError(f"{noun} {choice!r} needs {' and '.join(map(_flag, needed))}")
    read = {name for choice in chosen for name in table[choice]}
    for name in dict.fromkeys(name for inputs in table.values() for name in inputs):
        if name not in read and getattr(args, name):
            raise _UsageError(f"{_flag(name)} is read only by the {_read_by(name, table)}")
    return chosen


def _external_scores(args, records):
    """The per-atom scores of --scores, when it is given."""
    if not args.scores:
        return None
    from .scoring import load_external_scores

    return load_external_scores(args.scores, [rec.graph.n_atoms for rec in records])


def _target_columns(args, kinds: Sequence[str], records, counted: bool) -> list[TargetColumn]:
    """Each kind's TargetColumn over ``records``, read as target_columns
    reads it; with ``counted``, it labels only the records an analysis
    counts, so the input files need no rows for the others."""
    from .targets import target_columns
    from .workbench import usable_positions

    positions = usable_positions(records)[0] if counted else None
    return target_columns(kinds, [rec.graph for rec in records], vars(args), positions)


def cmd_parse_check(args) -> int:
    from .workbench import ingest

    manifest = _manifest(args)
    records, stats = ingest(manifest)
    print(f"dataset: {manifest.display_name}")
    print(f"rows: {stats.rows_total}")
    print(f"parsed: {stats.parsed}")
    print(f"failed: {stats.rows_total - stats.parsed}")
    for reason in sorted(stats.parse_failures):
        print(f"  {reason}: {stats.parse_failures[reason]}")
    print(f"singleton molecules: {stats.singletons}")
    print(f"invalid label cells: {stats.invalid_labels}")
    return 0


def cmd_decompose(args) -> int:
    from .molgraph import parse_smiles
    from .motif import graph_motifs
    from .workbench import ingest

    if args.smiles:
        graphs = (parse_smiles(smiles) for smiles in args.smiles)
    elif args.input:
        records, _ = ingest(_manifest(args))
        graphs = (rec.graph for rec in records)
    else:
        raise _UsageError("decompose needs --smiles or --input")
    for graph in graphs:
        motifs = graph_motifs(graph)
        print(graph.source_smiles)
        for m, (atoms, sig) in enumerate(zip(motifs.partition.motifs, motifs.signatures)):
            atom_list = ",".join(str(a) for a in atoms)
            print(f"  motif {m}: atoms {atom_list}  signature {sig}")
    return 0


def cmd_vocab_build(args) -> int:
    from .motif import build_vocab, graph_motifs
    from .workbench import build_vocab_tsv

    _, records, _ = _ingest_for_analysis(args)
    vocab = build_vocab(graph_motifs(rec.graph).signatures for rec in records)
    path = _out_path(args, "vocab.tsv")
    build_vocab_tsv(vocab, path)
    print(f"wrote {vocab.size} signatures to {path}")
    return 0


def cmd_vocab_coverage(args) -> int:
    from .workbench import load_vocab_tsv, run_coverage

    manifest, records, _ = _ingest_for_analysis(args)
    vocab = load_vocab_tsv(args.vocab)
    report = run_coverage(vocab, records, dataset_name=manifest.display_name, seed=args.seed)
    return _write_report(args, report, "coverage.csv")


def cmd_mask_sim(args) -> int:
    from .workbench import run_mask_sim

    strategies = _choices(args, "--strategies", STRATEGY_INPUTS)
    config = _mask_config(args)
    manifest, records, _ = _ingest_for_analysis(args, "mask-sim")
    external = _external_scores(args, records)
    report = run_mask_sim(
        records, strategies, config,
        dataset_name=manifest.display_name, repeats=args.repeats,
        seed=args.seed, workers=args.workers, external_scores=external,
    )
    return _write_report(args, report, "mask_sim.csv")


def cmd_mi(args) -> int:
    from .workbench import run_mi_analysis

    kinds = _choices(args, "--targets", TARGET_INPUTS)
    manifest, records, _ = _ingest_for_analysis(args, "mi")
    report = run_mi_analysis(
        records, _target_columns(args, kinds, records, counted=True),
        dataset_name=manifest.display_name, seed=args.seed,
    )
    return _write_report(args, report, "mi.csv")


def cmd_jsd(args) -> int:
    from .workbench import run_jsd_analysis

    kinds = _choices(args, "--targets", TARGET_INPUTS)
    manifest, records, _ = _ingest_for_analysis(args, "jsd")
    taus = args.taus or list(DEFAULT_TAUS)
    report = run_jsd_analysis(
        records, _target_columns(args, kinds, records, counted=True),
        dataset_name=manifest.display_name, taus=taus, seed=args.seed,
    )
    return _write_report(args, report, "jsd.csv")


def cmd_shuffle_control(args) -> int:
    from .workbench import run_shuffle_control

    kinds = _choices(args, "--target", TARGET_INPUTS)
    manifest, records, _ = _ingest_for_analysis(args, "shuffle-control")
    [column] = _target_columns(args, kinds, records, counted=True)
    report = run_shuffle_control(
        records, column, dataset_name=manifest.display_name,
        repeats=args.repeats, seed=args.seed,
    )
    return _write_report(args, report, "shuffle.csv")


def cmd_export_views(args) -> int:
    from .masking import bind_corpus, export_views

    strategies = _choices(args, "--strategy", STRATEGY_INPUTS)
    kinds = _choices(args, "--target", TARGET_INPUTS)
    config = _mask_config(args)
    _, records, _ = _ingest_for_analysis(args)
    external = _external_scores(args, records)
    # Built before the views file is opened: a labelling error leaves no
    # partial file behind.  A motif column's partitions are the masks' too.
    [column] = _target_columns(args, kinds, records, counted=False)
    graphs = [rec.graph for rec in records]
    bind = bind_corpus(strategies, config, graphs, external, column.partitions)
    path = _out_path(args, "views.jsonl")
    lines = export_views(
        graphs, (bind(g)[0] for g in range(len(graphs))), column, path,
        draws_per_graph=args.draws_per_graph, seed=args.seed,
    )
    print(f"wrote {lines} views to {path}")
    return 0


def cmd_plot(args) -> int:
    from .report import read_report_csv
    from .svg import render_svg

    report = read_report_csv(args.report)
    if args.output:
        path = _output_path(args.output)
    else:
        path = Path(args.report).with_suffix(".svg")
    render_svg(report, path)
    print(f"wrote {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="molmask", description=__doc__)
    parser.add_argument("--version", action="version", version=f"molmask {__version__}")
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="base seed for every random draw (a whole number, 0 or more)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="at most this many processes for mask-sim sampling")
    parser.add_argument("--out-dir", default=".", help="directory for report outputs")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("parse-check", help="validate a corpus and report parse failures")
    _add_dataset_flags(sub)
    sub.set_defaults(func=cmd_parse_check)

    sub = subs.add_parser("decompose", help="print motifs and signatures")
    sub.add_argument("--smiles", action="append", default=[], help="molecule (repeatable)")
    sub.add_argument("--input", default="", help="CSV corpus path")
    sub.add_argument("--smiles-col", default="smiles", help="SMILES column name of --input")
    sub.set_defaults(func=cmd_decompose)

    vocab_parser = subs.add_parser("vocab", help="build or evaluate motif vocabularies")
    vocab_subs = vocab_parser.add_subparsers(dest="vocab_command", required=True)

    sub = vocab_subs.add_parser("build", help="count motif signatures into a TSV vocabulary")
    _add_dataset_flags(sub, named=False, labeled=False)
    sub.add_argument("--output", default="", help="vocabulary TSV path")
    sub.set_defaults(func=cmd_vocab_build)

    sub = vocab_subs.add_parser("coverage", help="coverage of a corpus by a vocabulary")
    _add_dataset_flags(sub, labeled=False)
    sub.add_argument("--vocab", required=True, help="pretraining vocabulary TSV")
    sub.add_argument("--output", default="", help="coverage CSV path")
    sub.set_defaults(func=cmd_vocab_coverage)

    sub = subs.add_parser("mask-sim", help="sampled MI under masking strategies")
    _add_dataset_flags(sub)
    _add_mask_flags(sub, "--strategies", "mask_sim.csv", several=True)
    sub.add_argument("--repeats", type=_positive_int, default=5,
                     help="sampling repeats, whose mean and spread each row reports")
    sub.set_defaults(func=cmd_mask_sim)

    sub = subs.add_parser("mi", help="exact MI of target labels vs the task label")
    _add_dataset_flags(sub)
    _add_choice_flags(sub, "--targets", TARGET_INPUTS, "atom_type,motif", "mi.csv", several=True)
    sub.set_defaults(func=cmd_mi)

    sub = subs.add_parser("jsd", help="low-frequency JSD curves")
    _add_dataset_flags(sub)
    sub.add_argument("--taus", type=_taus, default=None,
                     help="comma-separated thresholds (default grid)")
    _add_choice_flags(sub, "--targets", TARGET_INPUTS, "atom_type,motif", "jsd.csv", several=True)
    sub.set_defaults(func=cmd_jsd)

    sub = subs.add_parser("shuffle-control", help="MI against a label-shuffled control")
    _add_dataset_flags(sub)
    sub.add_argument("--repeats", type=_positive_int, default=5,
                     help="label shuffles averaged into the control row")
    _add_choice_flags(sub, "--target", TARGET_INPUTS, "motif", "shuffle.csv", several=False)
    sub.set_defaults(func=cmd_shuffle_control)

    sub = subs.add_parser("export-views", help="write masked views with targets as JSONL")
    _add_dataset_flags(sub, named=False, labeled=False)
    _add_mask_flags(sub, "--strategy", "", several=False)
    sub.add_argument("--draws-per-graph", type=_positive_int, default=1,
                     help="masked views written per molecule")
    _add_choice_flags(sub, "--target", TARGET_INPUTS, "atom_type", "views.jsonl", several=False)
    sub.set_defaults(func=cmd_export_views)

    sub = subs.add_parser("plot", help="render a report CSV as SVG")
    sub.add_argument("--report", required=True, help="report CSV path")
    sub.add_argument("--output", default="", help="SVG path (default: next to the CSV)")
    sub.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and --version exit through here
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
