"""Cut molecules into motifs, name them canonically, build a vocabulary.

Run from the repository root:

    python3 demos/02_motifs_and_vocabulary.py
"""

from molmask import build_vocab, coverage, graph_motifs, motif_adjacency, parse_smiles

# A motif is a connected fragment left after severing acyclic single
# bonds that either touch a ring atom or join two branching atoms.
# Rings always stay whole.  graph_motifs cuts a molecule into its motifs
# and signs each one; everything that counts motifs reads those
# signatures.
for smiles in ("C1CC1CCC1CC1", "Cc1ccccc1", "CC(=O)Nc1ccc(O)cc1"):
    g = parse_smiles(smiles)
    motifs = graph_motifs(g)
    partition = motifs.partition
    print(f"{smiles!r}")
    for i, (motif, sig) in enumerate(zip(partition.motifs, motifs.signatures)):
        print(f"  motif {i}: atoms {','.join(map(str, motif))}  signature {sig}")
    print(f"  cut bonds: {partition.cut_bonds or 'none'}")
    print(f"  motif adjacency: {motif_adjacency(g, partition)}")
    print()

# Signatures are relabeling-invariant: the same fragment gets the same
# name no matter how the molecule was written.  A ring is one motif.
(a,) = graph_motifs(parse_smiles("C1CCCCC1")).signatures
(b,) = graph_motifs(parse_smiles("C%10CCCCC%10")).signatures
print(f"cyclohexane spellings agree: {a == b} ({a})")

# A vocabulary assigns dense ids by frequency (ties broken by
# signature text), which makes motif target spaces reproducible.
corpus = [parse_smiles(s) for s in ("Cc1ccccc1", "CCc1ccccc1", "OCc1ccccc1", "CCO")]
vocab = build_vocab(graph_motifs(g).signatures for g in corpus)
print(f"\nvocabulary of {vocab.size} motifs:")
for sig, idx in sorted(vocab.ids.items(), key=lambda kv: kv[1]):
    print(f"  id {idx}: count {vocab.counts[sig]}  {sig}")

# Coverage asks how much of a downstream corpus the vocabulary already
# knows: per-graph known-motif fraction r(G) plus the distinct-signature
# overlap.
downstream = [parse_smiles(s) for s in ("c1ccccc1", "NCCc1ccccc1", "C1CCOC1")]
stats = coverage(vocab, [graph_motifs(g).signatures for g in downstream])
print(f"\ncoverage of a new corpus: overlap {stats.overlap_ratio:.3f}")
for g, r in zip(downstream, stats.per_graph_r):
    print(f"  r = {r:.2f}  {g.source_smiles}")
