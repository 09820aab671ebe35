"""Remote-sensing vision-language record toolkit.

Five building blocks, one module each:

- :mod:`rsvl.markup` parses and serializes the special-token task markup and
  maps pixel boxes onto the normalized [0, 999] grid.
- :mod:`rsvl.builders` renders annotations into the eight instruction-record
  templates, validates captions, and plans image tiling.
- :mod:`rsvl.trajectory` decodes latent embeddings into state sequences and
  fits the decoder by gradient descent with hand-derived gradients.
- :mod:`rsvl.metrics` scores detections, relation triples, generated text and
  flight paths.
- :mod:`rsvl.fileio` reads and writes the JSONL/JSON file formats; the
  ``rsvl`` command in :mod:`rsvl.cli` drives everything from the shell.

``from rsvl import X`` works for every ``X`` in the ``__all__`` of
:mod:`~rsvl.errors`, :mod:`~rsvl.markup`, :mod:`~rsvl.builders`,
:mod:`~rsvl.metrics` and :mod:`~rsvl.trajectory`.  Names resolve on first
use, so numpy loads only with a decoder name.
"""

import importlib

__version__ = "0.1.0"

# searched in this order; trajectory last, because it alone imports numpy
_MODULES = ("errors", "markup", "builders", "metrics", "trajectory")
# ``from . import fileio`` asks for the name here before it imports the submodule, so a
# submodule name imports that module alone, never the search below
_SUBMODULES = frozenset(_MODULES + ("fileio", "cli"))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    for module_name in _MODULES:
        module = importlib.import_module(f".{module_name}", __name__)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
