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
from .choices import DEFAULT_TAUS, STRATEGIES, TARGET_KINDS
from .errors import DataError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _add_dataset_flags(sub: argparse.ArgumentParser, labeled: bool = True) -> None:
    sub.add_argument("--input", required=True, help="CSV corpus path")
    sub.add_argument("--smiles-col", default="smiles", help="SMILES column name")
    sub.add_argument("--dataset-name", default="", help="name used in report rows")
    if labeled:
        sub.add_argument("--label-col", default="", help="binary task column name")


def _add_mask_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--strategy", default="uniform", choices=STRATEGIES)
    sub.add_argument("--ratio", type=float, default=0.15, help="mask ratio gamma")
    sub.add_argument("--beta", type=float, default=None,
                     help="candidate bonus of the scored strategies "
                          "(default 0.25 for pagerank, 0.5 for external)")
    sub.add_argument("--epoch", type=int, default=None, help="annealing epoch i (default: final)")
    sub.add_argument("--max-epoch", type=int, default=100, help="annealing horizon E")
    sub.add_argument("--intra-frac", type=float, default=0.5,
                     help="fraction of atoms masked inside a selected motif")
    sub.add_argument("--scores", default="", help="external per-atom score CSV")


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
        name=args.dataset_name,
    )


def _ingest_for_analysis(args):
    from .workbench import ingest

    manifest = _manifest(args)
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


def _split_list(raw: str, allowed: Sequence[str], what: str) -> list[str]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise _UsageError(f"no {what} given")
    for item in items:
        if item not in allowed:
            raise _UsageError(f"unknown {what} {item!r}; choose from {', '.join(allowed)}")
        if items.count(item) > 1:
            raise _UsageError(f"{what} {item!r} given more than once")
    return items


def _target_kinds(args, raw: str) -> list[str]:
    """The target kinds in ``raw``, checked before the corpus is read."""
    kinds = _split_list(raw, TARGET_KINDS, "target kind")
    if "vq_code" in kinds and not (args.embeddings and args.codebook):
        raise _UsageError("target 'vq_code' needs --embeddings and --codebook")
    if "argmax_token" in kinds and not args.logits:
        raise _UsageError("target 'argmax_token' needs --logits")
    return kinds


def _external_scores(args, strategies: Sequence[str], records):
    """Scores from --scores when the 'external' strategy is asked for;
    --scores without it is a usage error."""
    if "external" not in strategies:
        if args.scores:
            raise _UsageError("--scores is read only by the 'external' strategy")
        return None
    if not args.scores:
        raise _UsageError("strategy 'external' needs --scores")
    from .scoring import load_external_scores

    return load_external_scores(args.scores, [rec.graph.n_atoms for rec in records])


def _target_resources(args, records, kinds: Sequence[str]) -> dict:
    """TargetResources fields as the flags ask for them.

    A motif kind gets the command's one motif pass over all parsed
    records, in this process; without --vocab, the same pass builds the
    vocabulary.
    """
    from .motif import vocab_from_signatures
    from .targets import graph_motifs, load_codebook, load_embeddings
    from .workbench import load_vocab_tsv

    vocab = load_vocab_tsv(args.vocab) if args.vocab else None
    embeddings = load_embeddings(args.embeddings) if args.embeddings else None
    codebook = load_codebook(args.codebook) if args.codebook else None
    logits = load_embeddings(args.logits) if args.logits else None
    motifs = None
    if "motif" in kinds:
        motifs = [graph_motifs(rec.graph) for rec in records]
        if vocab is None:
            vocab = vocab_from_signatures(m.signatures for m in motifs)
    return dict(
        vocab=vocab, motifs=motifs, embeddings=embeddings, codebook=codebook,
        logits=logits, vq_normalize=getattr(args, "vq_normalize", False),
    )


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
    from .targets import graph_motifs
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
    from .motif import build_vocab
    from .workbench import build_vocab_tsv

    manifest, records, _ = _ingest_for_analysis(args)
    vocab = build_vocab([rec.graph for rec in records])
    path = _out_path(args, "vocab.tsv")
    build_vocab_tsv(vocab, path)
    print(f"wrote {vocab.size} signatures to {path}")
    return 0


def cmd_vocab_coverage(args) -> int:
    from .report import write_report_csv
    from .workbench import load_vocab_tsv, run_coverage

    manifest, records, _ = _ingest_for_analysis(args)
    vocab = load_vocab_tsv(args.vocab)
    report = run_coverage(vocab, records, dataset_name=manifest.display_name, seed=args.seed)
    path = _out_path(args, "coverage.csv")
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def cmd_mask_sim(args) -> int:
    from .report import write_report_csv
    from .workbench import run_mask_sim

    strategies = _split_list(args.strategies, STRATEGIES, "strategy")
    config = _mask_config(args)
    manifest, records, _ = _ingest_for_analysis(args)
    if not manifest.label_column:
        raise _UsageError("mask-sim needs --label-col")
    external = _external_scores(args, strategies, records)
    report = run_mask_sim(
        records, strategies, config,
        dataset_name=manifest.display_name, repeats=args.repeats,
        seed=args.seed, workers=args.workers, external_scores=external,
    )
    path = _out_path(args, "mask_sim.csv")
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def cmd_mi(args) -> int:
    from .report import write_report_csv
    from .workbench import run_mi_analysis

    kinds = _target_kinds(args, args.targets)
    manifest, records, _ = _ingest_for_analysis(args)
    if not manifest.label_column:
        raise _UsageError("mi needs --label-col")
    report = run_mi_analysis(
        records, kinds, dataset_name=manifest.display_name,
        seed=args.seed, **_target_resources(args, records, kinds),
    )
    path = _out_path(args, "mi.csv")
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def cmd_jsd(args) -> int:
    from .report import write_report_csv
    from .workbench import run_jsd_analysis

    kinds = _target_kinds(args, args.targets)
    manifest, records, _ = _ingest_for_analysis(args)
    if not manifest.label_column:
        raise _UsageError("jsd needs --label-col")
    taus = args.taus or list(DEFAULT_TAUS)
    report = run_jsd_analysis(
        records, kinds, dataset_name=manifest.display_name, taus=taus,
        seed=args.seed, **_target_resources(args, records, kinds),
    )
    path = _out_path(args, "jsd.csv")
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def cmd_shuffle_control(args) -> int:
    from .report import write_report_csv
    from .workbench import run_shuffle_control

    kinds = _target_kinds(args, args.target)
    manifest, records, _ = _ingest_for_analysis(args)
    if not manifest.label_column:
        raise _UsageError("shuffle-control needs --label-col")
    report = run_shuffle_control(
        records, kinds[0], dataset_name=manifest.display_name,
        repeats=args.repeats, seed=args.seed, **_target_resources(args, records, kinds),
    )
    path = _out_path(args, "shuffle.csv")
    write_report_csv(report, path)
    print(f"wrote {path}")
    return 0


def cmd_export_views(args) -> int:
    from .masking import bind_strategy, export_views, strategy_scores
    from .targets import TargetResources

    [kind] = _target_kinds(args, args.target)
    manifest, records, _ = _ingest_for_analysis(args)
    config = _mask_config(args)
    external = _external_scores(args, [args.strategy], records)
    resources = TargetResources(**_target_resources(args, records, [kind]))
    graphs = [rec.graph for rec in records]
    scores = strategy_scores([args.strategy], graphs, external).get(args.strategy)
    bind = bind_strategy(args.strategy, config)
    bound = (
        bind(
            graph,
            None if scores is None else scores[g],
            None if resources.motifs is None else resources.motifs[g].partition,
        )
        for g, graph in enumerate(graphs)
    )

    def target_fn(graph, graph_index, plan):
        _, labels = resources.view_targets(kind, graph_index, graph, plan)
        return kind, list(labels)

    path = _out_path(args, "views.jsonl")
    lines = export_views(
        graphs, bound, target_fn, path,
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
    sub.add_argument("--smiles-col", default="smiles")
    sub.add_argument("--dataset-name", default="")
    sub.set_defaults(func=cmd_decompose, label_col="")

    vocab_parser = subs.add_parser("vocab", help="build or evaluate motif vocabularies")
    vocab_subs = vocab_parser.add_subparsers(dest="vocab_command", required=True)

    sub = vocab_subs.add_parser("build", help="count motif signatures into a TSV vocabulary")
    _add_dataset_flags(sub, labeled=False)
    sub.add_argument("--output", default="", help="vocabulary TSV path")
    sub.set_defaults(func=cmd_vocab_build, label_col="")

    sub = vocab_subs.add_parser("coverage", help="coverage of a corpus by a vocabulary")
    _add_dataset_flags(sub, labeled=False)
    sub.add_argument("--vocab", required=True, help="pretraining vocabulary TSV")
    sub.add_argument("--output", default="", help="coverage CSV path")
    sub.set_defaults(func=cmd_vocab_coverage, label_col="")

    sub = subs.add_parser("mask-sim", help="sampled MI under masking strategies")
    _add_dataset_flags(sub)
    _add_mask_flags(sub)
    sub.add_argument("--strategies", default="uniform", help="comma-separated strategy list")
    sub.add_argument("--repeats", type=_positive_int, default=5)
    sub.add_argument("--output", default="")
    sub.set_defaults(func=cmd_mask_sim)

    sub = subs.add_parser("mi", help="exact MI of target labels vs the task label")
    _add_dataset_flags(sub)
    sub.add_argument("--targets", default="atom_type,motif", help="comma-separated target kinds")
    sub.add_argument("--vocab", default="", help="motif vocabulary TSV (default: build from input)")
    sub.add_argument("--embeddings", default="", help="per-atom embedding CSV")
    sub.add_argument("--codebook", default="", help="codebook CSV")
    sub.add_argument("--logits", default="", help="per-atom logits CSV")
    sub.add_argument("--vq-normalize", action="store_true", help="L2-normalize before quantizing")
    sub.add_argument("--output", default="")
    sub.set_defaults(func=cmd_mi)

    sub = subs.add_parser("jsd", help="low-frequency JSD curves")
    _add_dataset_flags(sub)
    sub.add_argument("--targets", default="atom_type,motif")
    sub.add_argument("--taus", type=_taus, default=None,
                     help="comma-separated thresholds (default grid)")
    sub.add_argument("--vocab", default="")
    sub.add_argument("--embeddings", default="")
    sub.add_argument("--codebook", default="")
    sub.add_argument("--logits", default="")
    sub.add_argument("--vq-normalize", action="store_true")
    sub.add_argument("--output", default="")
    sub.set_defaults(func=cmd_jsd)

    sub = subs.add_parser("shuffle-control", help="MI against a label-shuffled control")
    _add_dataset_flags(sub)
    sub.add_argument("--target", default="motif", choices=TARGET_KINDS, help="one target kind")
    sub.add_argument("--repeats", type=_positive_int, default=5)
    sub.add_argument("--vocab", default="")
    sub.add_argument("--embeddings", default="")
    sub.add_argument("--codebook", default="")
    sub.add_argument("--logits", default="")
    sub.add_argument("--vq-normalize", action="store_true")
    sub.add_argument("--output", default="")
    sub.set_defaults(func=cmd_shuffle_control)

    sub = subs.add_parser("export-views", help="write masked views with targets as JSONL")
    _add_dataset_flags(sub)
    _add_mask_flags(sub)
    sub.add_argument("--target", default="atom_type", choices=TARGET_KINDS, help="view target")
    sub.add_argument("--draws-per-graph", type=_positive_int, default=1)
    sub.add_argument("--vocab", default="")
    sub.add_argument("--embeddings", default="")
    sub.add_argument("--codebook", default="")
    sub.add_argument("--logits", default="")
    sub.add_argument("--output", default="")
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
