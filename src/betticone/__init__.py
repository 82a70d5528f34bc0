"""Exact rational cone computations for shapes of minimal free resolutions.

The package realizes three families of cones as executable objects, all
over exact rational arithmetic:

* the simplicial cone of resolution shapes over a regular local ring of
  dimension n (`regular`), with a full shape classification;
* the total hypersurface cone for embedding dimension n (`hyper_total`),
  with the prefix-sum transform, the two triangulations, and the split
  into transform image plus finite part;
* the conjectured cone at fixed multiplicity d (`hyper_fixed`);

each builds a `cones.Cone`, the one description that membership,
certificates and `verification` all read.

`pure` provides the pure-resolution shape numerics feeding the limit
arguments, and `oracle` is an independent double-description engine that
re-derives every ray/facet presentation for cross-checking (`verification`
bundles those sweeps; the CLI exposes them as `betticone verify`).
"""

from .errors import (ConeInputError, InternalInconsistencyError,
                     MalformedInputError, NotInConeError)
from .sequences import (BettiVector, TailPeriodicSequence, as_fraction, embed,
                        rational_str, sequence_from_json, sequence_to_json)

__version__ = "0.1.0"

__all__ = [
    "BettiVector",
    "TailPeriodicSequence",
    "ConeInputError",
    "InternalInconsistencyError",
    "MalformedInputError",
    "NotInConeError",
    "as_fraction",
    "embed",
    "rational_str",
    "sequence_from_json",
    "sequence_to_json",
    "__version__",
]
