"""The named choices the toolkit offers: masking strategies, target
kinds and the default JSD threshold grid.

They live here, apart from the modules that implement them, so the
command line can build its parser without importing numpy or any
analysis layer.
"""

STRATEGIES = ("uniform", "pagerank", "external", "moama", "motifpred")

TARGET_KINDS = ("atom_type", "motif", "argmax_token", "vq_code")

DEFAULT_TAUS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001)
