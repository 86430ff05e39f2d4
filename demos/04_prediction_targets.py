"""Extract the prediction target for each masked atom.

Run from the repository root:

    python3 demos/04_prediction_targets.py
"""

import numpy as np

from molmask import (
    MaskConfig,
    argmax_targets,
    atom_type_targets,
    bind_strategy,
    build_vocab,
    decompose,
    motif_targets,
    parse_smiles,
    substream,
    vq_targets,
)

g = parse_smiles("CC(=O)Nc1ccc(O)cc1")
plan = bind_strategy("motifpred", MaskConfig(ratio=0.4))(g).plan(substream(seed=3, graph_index=0))
print(f"molecule: {g.source_smiles}")
print(f"masked atoms: {plan.masked_atoms}\n")

# Atom types are the plain reconstruction target: the element hidden at
# each masked position.
atom = atom_type_targets(g, plan)
print(f"atom_type labels: {atom.labels} (space {atom.label_space})")

# Motif targets name the chemical unit each masked atom sits in, via a
# vocabulary of canonical motif signatures.  Motifs outside the
# vocabulary collapse to one reserved UNK id.
vocab = build_vocab([parse_smiles(s) for s in ("c1ccccc1", "CC(=O)N", "CO")])
motif = motif_targets(g, decompose(g), plan, vocab)
print(f"motif labels:     {motif.labels} (space {motif.label_space}, "
      f"unk id {vocab.unk_id})")

# Vector-quantized targets snap per-atom embeddings to their nearest
# codebook row, which turns a learned continuous space into discrete
# codes.  Here the embeddings are synthetic.
rng = np.random.default_rng(7)
embeddings = rng.normal(size=(g.n_atoms, 4))
codebook = rng.normal(size=(5, 4))
vq = vq_targets(g, plan, embeddings, codebook)
print(f"vq labels:        {vq.labels} (space {vq.label_space})")

# Argmax targets read a pretrained head's per-atom logits and keep the
# winning class, ties to the lower index.
logits = rng.normal(size=(g.n_atoms, 8))
arg = argmax_targets(g, plan, logits)
print(f"argmax labels:    {arg.labels} (space {arg.label_space})")
