"""Extract the prediction target for each masked atom.

Run from the repository root:

    python3 demos/04_prediction_targets.py
"""

import numpy as np

from molmask import (
    MaskConfig,
    bind_corpus,
    build_vocab,
    graph_motifs,
    parse_smiles,
    substream,
    target_column,
)

g = parse_smiles("CC(=O)Nc1ccc(O)cc1")
(bound,) = bind_corpus(["motifpred"], MaskConfig(ratio=0.4), [g])(0)
atoms = bound.plan(substream(seed=3, graph_index=0))
print(f"molecule: {g.source_smiles}")
print(f"masked atoms: {atoms}\n")


# target_column labels every unit of a corpus, here of one graph, into
# one column; what the kind reads besides the graph is passed by name,
# per-graph entries keyed by corpus position, here 0.  view_targets
# takes the mask's atom tuple and returns the labels of the units it
# hides.
def labels(kind, **inputs):
    return target_column(kind, [g], inputs).view_targets(0, atoms)


# Atom types are the plain reconstruction target: the element hidden at
# each masked position.
print(f"atom_type labels: {labels('atom_type')} (atomic numbers, 0 for unknown)")

# Motif targets name the chemical units the masked atoms sit in, one
# label per motif hidden whole or in part, via a vocabulary of canonical
# motif signatures.  Motifs outside the
# vocabulary collapse to one reserved UNK id.
vocab = build_vocab(graph_motifs(parse_smiles(s)).signatures
                    for s in ("c1ccccc1", "CC(=O)N", "CO"))
motif = labels("motif", vocab=vocab, motifs=[graph_motifs(g)])
print(f"motif labels:     {motif} (space {vocab.size + 1}, unk id {vocab.unk_id})")

# Vector-quantized targets snap per-atom embeddings to their nearest
# codebook row, which turns a learned continuous space into discrete
# codes.  Here the embeddings are synthetic.
rng = np.random.default_rng(7)
embeddings = rng.normal(size=(g.n_atoms, 4))
codebook = rng.normal(size=(5, 4))
vq = labels("vq_code", embeddings={0: embeddings}, codebook=codebook)
print(f"vq labels:        {vq} (space {codebook.shape[0]})")

# Argmax targets read a pretrained head's per-atom logits and keep the
# winning class, ties to the lower index.
logits = rng.normal(size=(g.n_atoms, 8))
arg = labels("argmax_token", logits={0: logits})
print(f"argmax labels:    {arg} (space {logits.shape[1]})")
