"""Left-nested implication toolkit: prover, fragment retrieval, Arrow model.

What the numpy-free commands need lives here, since importing this module
loads nothing else: the settings' defaults, and :class:`ModelError`, which
:mod:`arrowlm.model` re-exports and the command line maps to exit 2.
"""

__version__ = "0.1.0"

# Every setting the command line exposes, and the library's default for it.
# Importing it loads nothing else, so ``arrowlm prove`` never loads numpy.
DEFAULTS = {
    "max_len": 256,
    "max_frag": 5,
    "d": 64,
    "r": 8,
    "epochs": 200,
    "seed": 42,
    "batch_size": 32,
    "lr": 3e-3,
    "warmup": 100,
    "weight_decay": 0.01,
    "clip_norm": 1.0,
    "top_k": 5,
    "max_new_tokens": 32,
    "temperature": 1.0,
}


class ModelError(Exception):
    """Base class for model errors: shapes, tokens, checkpoints, training and scores."""
