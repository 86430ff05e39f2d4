"""Seeded synthetic corpus generator for the molmask benchmark.

Writes a labeled SMILES corpus plus the side files the CLI reads
(per-atom embeddings, a codebook, per-atom logits, per-atom external
scores) and a ground-truth sidecar.  Nothing here imports molmask: the
sidecar's outcomes and element counts come from how each row was built
and from a small independent SMILES atom tokenizer, so the benchmark can
check molmask's outputs against it.

Corpus shape (what the workloads depend on):

- Molecules are chains of ring systems joined by acyclic linkers, with
  small terminal substituents on ring atoms.  Ring systems and linkers
  are the motifs molmask's decomposition recovers.
- Ring systems follow a Zipf law over a fixed pool: benzene,
  cyclohexane, naphthalene and decalin head it (symmetric motifs that
  reach the signature fallback), followed by a long tail of
  heteroatom/carbonyl ring variants.  Linkers are random short chains,
  which gives the vocabulary its long tail of rare signatures.
- Sizes: a fixed share of rows (every 25th) is large, 55-95 heavy
  atoms; the rest aim at about 16 and overshoot by a fragment.  The
  mean lands near 24-25 atoms.
  Fixing which rows are large, and spreading the size targets evenly
  over their range (the seed only shuffles them), keeps the corpus'
  total work steady from seed to seed.
- Rare class-exclusive marker rings (Si/P in class 1, B/Se in class 0)
  give MI and JSD something to find.
- One malformed row in 60 (1.7%), cycling through the four typed parse
  errors, and a few rows with missing labels and single-atom molecules.

Usage: python3 perfbench/gen.py --out DIR --molecules N --seed S
"""

from __future__ import annotations

import argparse
import csv
import random
import re
from pathlib import Path
from statistics import NormalDist

import numpy as np

EMBED_DIM = 16
CODEBOOK_SIZE = 64
LOGIT_TOKENS = 32

# Element numbers for the tokens the generator emits.
_Z = {"B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "Si": 14, "P": 15, "S": 16,
      "Cl": 17, "Se": 34, "Br": 35, "I": 53, "Na": 11}

# Independent heavy-atom tokenizer: bracket atoms, two-letter halogens,
# then the organic and aromatic subsets.  Atoms come out in text order,
# which is the order molmask numbers them.
_ATOM_RE = re.compile(r"\[([A-Z][a-z]?|[a-z]{1,2})[^\]]*\]|Cl|Br|[BCNOPSFI]|[bcnops]")


def atom_elements(smiles: str) -> list[int]:
    """Atomic number of every heavy atom, in order of appearance."""
    out = []
    for match in _ATOM_RE.finditer(smiles):
        token = match.group(1) or match.group(0)
        out.append(_Z[token if token[0].isupper() else token.capitalize()])
    return out


def _ring(atoms: list[str], label: str) -> str:
    """SMILES of one ring from per-position atom tokens (first and last
    positions must be plain so fragments can attach there)."""
    parts = list(atoms)
    parts[0] = parts[0] + label
    parts[-1] = parts[-1] + label
    return "".join(parts)


def _ring_pool() -> list[str]:
    """Fixed, ordered pool of ring systems; rank sets the Zipf weight."""
    head = ["c1ccccc1", "C1CCCCC1", "c1ccc2ccccc2c1", "C1CCC2CCCCC2C1"]
    common = [
        "c1ccncc1", "c1ccoc1", "c1ccsc1", "c1cc[nH]c1", "C1CCCC1", "C1CCNCC1",
        "C1COCCN1", "C1CNCCN1", "c1ccc2[nH]ccc2c1", "c1ccc2ncccc2c1", "C1CC1",
        "c1cnccn1", "c1ncncn1", "C1CCOC1", "c1ccc2c(c1)CCCC2",
    ]
    tail: list[str] = []
    seen = set(head) | set(common)
    # Saturated 5-7 rings: up to two heteroatoms and one carbonyl on
    # interior positions.
    hetero = ["C", "N", "O", "S"]
    for size in (5, 6, 7):
        interior = range(1, size - 1)
        for i in interior:
            for j in interior:
                if j < i:
                    continue
                for a in hetero:
                    for b in hetero:
                        for carbonyl in [None, *interior]:
                            atoms = ["C"] * size
                            atoms[i] = a
                            if j != i:
                                atoms[j] = b
                            elif b != "C":
                                continue
                            if carbonyl is not None:
                                if atoms[carbonyl] != "C" or carbonyl in (i, j):
                                    continue
                                atoms[carbonyl] = "C(=O)"
                            smi = _ring(atoms, "1")
                            if smi not in seen:
                                seen.add(smi)
                                tail.append(smi)
    # Aromatic six-rings with one or two ring nitrogens.
    for i in range(1, 5):
        for j in range(i, 5):
            atoms = ["c"] * 6
            atoms[i] = "n"
            atoms[j] = "n"
            smi = _ring(atoms, "1")
            if smi not in seen:
                seen.add(smi)
                tail.append(smi)
    # Fixed shuffle so that similar variants do not share adjacent ranks.
    random.Random(12345).shuffle(tail)
    return head + common + tail


RING_POOL = _ring_pool()
# Marker rings appear only in one class and nowhere in the pool.
MARKERS = {
    1: ["C1CC[Si]CC1", "C1CCPC1", "C1C[Si]C[Si]C1", "c1ccpc1"],
    0: ["C1CCBCC1", "C1CC[Se]C1", "C1COBOC1", "C1CB1"],
}
SUBSTITUENTS = ["F", "Cl", "Br", "C", "CC", "OC", "C(F)(F)F", "N", "O", "C#N",
                "C(=O)O", "I", "S", "C(C)C"]
_CHAIN_ATOMS = ["C"] * 6 + ["N", "N", "O", "O", "S"]


def _ring_weights(n: int, exponent: float) -> np.ndarray:
    """Zipf weights by rank, except that the four head rings share the
    top weight so each is about equally frequent."""
    w = 1.0 / np.arange(1, n + 1) ** exponent
    w[:4] = w[0]
    return w / w.sum()


_RING_WEIGHTS = _ring_weights(len(RING_POOL), 1.05)


def _linker(rng: random.Random) -> str:
    """Random acyclic chain of 1-5 atoms, some with carbonyl or methyl
    branches; these make up most of the rare signatures."""
    out = []
    for _ in range(rng.randint(1, 5)):
        atom = rng.choice(_CHAIN_ATOMS)
        roll = rng.random()
        if atom == "C" and roll < 0.2:
            atom = "C(=O)"
        elif atom in ("C", "N") and roll < 0.3:
            atom += "(C)"
        out.append(atom)
    return "".join(out)


def _decorate(ring: str, rng: random.Random) -> str:
    """Put a terminal substituent on one interior plain ring atom."""
    spots = [m.end() for m in re.finditer(r"(?<![\[(])[cC](?![\d(\]=a-z])", ring)]
    spots = [s for s in spots if 1 < s < len(ring) - 2]
    if not spots or rng.random() < 0.4:
        return ring
    pos = rng.choice(spots)
    return f"{ring[:pos]}({rng.choice(SUBSTITUENTS)}){ring[pos:]}"


def molecule(rng: random.Random, nrng: np.random.Generator, label: int, target: int) -> str:
    """One connected molecule of at least ``target`` heavy atoms:
    [head] ring (linker ring)* [tail]."""
    parts: list[str] = []
    if rng.random() < 0.5:
        parts.append(_linker(rng))
    n_atoms = len(atom_elements("".join(parts)))
    marker_left = rng.random() < 0.12
    while n_atoms < target:
        if parts:
            parts.append(_linker(rng))
        if marker_left:
            ring = rng.choice(MARKERS[label])
            marker_left = False
        else:
            ring = RING_POOL[int(nrng.choice(len(RING_POOL), p=_RING_WEIGHTS))]
        parts.append(_decorate(ring, rng))
        n_atoms = len(atom_elements("".join(parts)))
    if rng.random() < 0.5:
        parts.append(_linker(rng))
    return "".join(parts)


# Each corruption leaves a valid prefix and triggers exactly one typed
# parse error, named as molmask's ingest tallies it.
_CORRUPTIONS = (
    ("UnknownToken", lambda s: s + "$C"),
    ("UnclosedRing", lambda s: s + "C9"),
    ("UnbalancedParen", lambda s: s + "(C"),
    ("MultiFragment", lambda s: s + ".CC"),
)
_SINGLETONS = ["C", "N", "O", "[Na+]", "Cl", "S"]


def _size_targets(molecules: int, rng: random.Random) -> list[int]:
    """Heavy-atom target per row: every 25th row large (55-95), the rest
    Normal(16, 6) clipped at 6.  Targets sit at evenly spaced quantiles
    and only their order depends on the seed."""
    is_large = [i % 25 == 12 for i in range(molecules)]
    n_large = sum(is_large)
    n_small = molecules - n_large
    large = [55 + int(41 * (k + 0.5) / n_large) for k in range(n_large)]
    normal = NormalDist(16.0, 6.0)
    small = [max(6, int(normal.inv_cdf((k + 0.5) / n_small))) for k in range(n_small)]
    rng.shuffle(large)
    rng.shuffle(small)
    return [large.pop() if big else small.pop() for big in is_large]


def build_rows(molecules: int, seed: int) -> list[tuple[str, str, str]]:
    """(smiles, label cell, outcome) per row; outcome is "ok" or the
    parse-error class name."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    targets = _size_targets(molecules, rng)
    rows = []
    for i in range(molecules):
        label = i % 2
        smiles = molecule(rng, nrng, label, targets[i])
        cell = str(label)
        outcome = "ok"
        # One malformed row per 60, cycling through the four kinds, so
        # that even a 240-row corpus has each; missing labels and
        # singletons every second and third cycle.
        cycle, slot = divmod(i, 60)
        if slot == 37:
            kind, corrupt = _CORRUPTIONS[cycle % len(_CORRUPTIONS)]
            smiles, outcome = corrupt(smiles), kind
        elif slot == 11 and cycle % 2 == 0:
            cell = ""
        elif slot == 53 and cycle % 3 == 0:
            smiles = rng.choice(_SINGLETONS)
        rows.append((smiles, cell, outcome))
    order = list(range(molecules))
    rng.shuffle(order)
    return [rows[k] for k in order]


def _write_matrix(path: Path, fmt: str, rows) -> int:
    text = "".join(fmt % tuple(row) for row in rows)
    path.write_text(text)
    return len(text)


SIDE_FILES = ("vectors", "scores")


def generate(out: Path, molecules: int, seed: int, side_files=SIDE_FILES) -> dict:
    """Write corpus.csv, truth.csv and the requested side files into
    ``out``; return a summary of what was written.

    "vectors" is embeddings.csv, codebook.csv and logits.csv; "scores"
    is scores.csv.  Side files are keyed to parsed-record positions."""
    out.mkdir(parents=True, exist_ok=True)
    rows = build_rows(molecules, seed)
    with open(out / "corpus.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["smiles", "activity"])
        for smiles, cell, _ in rows:
            writer.writerow([smiles, cell])

    parsed = []  # element lists of rows molmask keeps, in record order
    with open(out / "truth.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["row", "outcome", "label", "n_atoms", "elements"])
        for i, (smiles, cell, outcome) in enumerate(rows):
            elements = atom_elements(smiles) if outcome == "ok" else []
            if outcome == "ok":
                parsed.append(elements)
            counts: dict[int, int] = {}
            for z in elements:
                counts[z] = counts.get(z, 0) + 1
            writer.writerow([
                i, outcome, cell, len(elements),
                ";".join(f"{z}:{n}" for z, n in sorted(counts.items())),
            ])

    summary = {
        "rows": len(rows),
        "parsed": len(parsed),
        "atoms": sum(len(e) for e in parsed),
        "mean_atoms": sum(len(e) for e in parsed) / max(1, len(parsed)),
    }
    zs = np.concatenate([np.asarray(e, dtype=np.int64) for e in parsed])
    if "vectors" in side_files:
        summary.update(_write_vectors(out, parsed, zs, np.random.default_rng([seed, 1])))
    if "scores" in side_files:
        scores = np.random.default_rng([seed, 2]).random(len(zs)) + 0.01
        offsets = np.cumsum([0] + [len(e) for e in parsed])
        with open(out / "scores.csv", "w") as handle:
            for g in range(len(parsed)):
                handle.write(",".join(f"{v:.6f}" for v in scores[offsets[g]:offsets[g + 1]]))
                handle.write("\n")
    return summary


def _write_vectors(out: Path, parsed: list[list[int]], zs: np.ndarray, nrng) -> dict:
    summary = {}
    graph_ids = np.repeat(np.arange(len(parsed)), [len(e) for e in parsed])
    atom_ids = np.concatenate([np.arange(len(e)) for e in parsed])
    # Embeddings cluster by element so vq codes carry atom-type signal.
    centers = nrng.normal(size=(120, EMBED_DIM))
    emb = centers[zs] + 0.6 * nrng.normal(size=(len(zs), EMBED_DIM))
    summary["embeddings_bytes"] = _write_matrix(
        out / "embeddings.csv",
        "%d,%d," + ",".join(["%.5f"] * EMBED_DIM) + "\n",
        np.column_stack([graph_ids, atom_ids, emb]).tolist(),
    )
    _write_matrix(
        out / "codebook.csv",
        ",".join(["%.5f"] * EMBED_DIM) + "\n",
        nrng.normal(size=(CODEBOOK_SIZE, EMBED_DIM)).tolist(),
    )
    logits = nrng.normal(size=(len(zs), LOGIT_TOKENS))
    logits[np.arange(len(zs)), zs % LOGIT_TOKENS] += 1.5
    summary["logits_bytes"] = _write_matrix(
        out / "logits.csv",
        "%d,%d," + ",".join(["%.5f"] * LOGIT_TOKENS) + "\n",
        np.column_stack([graph_ids, atom_ids, logits]).tolist(),
    )
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--molecules", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(generate(Path(args.out), args.molecules, args.seed))


if __name__ == "__main__":
    main()
