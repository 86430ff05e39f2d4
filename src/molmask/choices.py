"""The named choices the toolkit offers, masking strategies and target
kinds, with the inputs each of them reads, and the default JSD
threshold grid.

They live here, apart from the modules that implement them, so the
command line can build its parser and check its flags without
importing numpy or any analysis layer.
"""

# Each strategy or target kind and the inputs it reads, by the name of
# their command-line flag; True marks an input it cannot do without.
# Without --vocab, a motif vocabulary is counted from the corpus.
# targets._LABELLERS labels each kind.
STRATEGY_INPUTS = {"uniform": {}, "pagerank": {}, "external": {"scores": True}, "moama": {},
                   "motifpred": {}}
TARGET_INPUTS = {
    "atom_type": {},
    "motif": {"vocab": False},
    "argmax_token": {"logits": True},
    "vq_code": {"embeddings": True, "codebook": True, "vq_normalize": False},
}

# The candidate bonus of each scored strategy when none is given.
DEFAULT_BETA = {"pagerank": 0.25, "external": 0.5}

STRATEGIES = tuple(STRATEGY_INPUTS)
TARGET_KINDS = tuple(TARGET_INPUTS)

DEFAULT_TAUS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001)
