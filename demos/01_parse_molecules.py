"""Parse SMILES into heavy-atom graphs and inspect them.

Run from the repository root:

    python3 demos/01_parse_molecules.py
"""

from molmask import MolmaskError, parse_smiles, write_smiles


def describe(smiles: str) -> None:
    g = parse_smiles(smiles)
    # A graph is columns: one tuple per atom property, one per bond property.
    ring_atoms = [i for i, in_ring in enumerate(g.atom_ring) if in_ring]
    aromatic = [i for i, arom in enumerate(g.aromatic) if arom]
    print(f"{smiles!r}")
    print(f"  atoms: {g.n_atoms}, bonds: {len(g.bond_u)}")
    print(f"  ring atoms: {ring_atoms or 'none'}")
    print(f"  aromatic atoms: {aromatic or 'none'}")
    print(f"  round trip: {write_smiles(g)!r}")


# Hydrogens are implicit; every graph node is a heavy atom.  Ring
# membership is recomputed from the graph structure, not trusted from
# the ring-closure digits.
for smiles in ("CCO", "c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "[NH4+]", "N[Pt](N)(Cl)Cl"):
    describe(smiles)
    print()

# Bond orders survive parsing, including on ring-closure bonds.
g = parse_smiles("C1CCCCC=1")
closure = list(zip(g.bond_u, g.bond_v)).index((0, 5))
print(f"ring-closure bond 0-5 order: {g.bond_order[closure]}")

# Malformed inputs raise typed errors that carry the offending string
# and position, so corpus ingestion can tally failures by class.
for bad in ("C1CC", "CC(C", "CC.CC", "C$C"):
    try:
        parse_smiles(bad)
    except MolmaskError as err:
        print(f"{bad!r:10} -> {type(err).__name__}: {err}")
