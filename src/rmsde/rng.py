"""Deterministic random streams keyed by (seed, stream, purpose).

Every stochastic object in this package (coupling matrices, initial
conditions, Brownian increments) draws from its own counter-based
stream.  Streams are derived from a single 64-bit master seed through
``numpy.random.SeedSequence`` spawn keys, so

* the same key triple always reproduces the same draws,
* distinct triples give statistically independent streams,
* results are independent of thread scheduling as long as each unit of
  work owns its stream.

The ``purpose`` slot keeps streams for different roles (coupling
matrix, initial condition, driving noise) from colliding even when
they share a stream id.  Paired ensemble arms deliberately reuse the
same coupling stream, each through a fresh generator, so two arms
with the same entry distribution produce bit-identical matrices and
the paired difference vanishes replica by replica.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "PURPOSE_COUPLING",
    "PURPOSE_INITIAL",
    "PURPOSE_NOISE",
]

# Role tags.  Values are part of the on-disk reproducibility contract:
# changing them changes every downstream sample.
PURPOSE_COUPLING = 0
PURPOSE_INITIAL = 1
PURPOSE_NOISE = 2

_U64 = 1 << 64


@dataclass(frozen=True)
class RngStream:
    """Key of one deterministic stream.

    Parameters
    ----------
    seed : int
        Master seed, 0 <= seed < 2**64.
    stream : int
        Stream id, typically a replica index.  Non-negative.
    purpose : int
        Role tag, one of the ``PURPOSE_*`` constants (any non-negative
        int is accepted).
    """

    seed: int
    stream: int = 0
    purpose: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < _U64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream < 0 or self.purpose < 0:
            raise ValueError("stream and purpose must be non-negative")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=int(self.seed),
                                    spawn_key=(int(self.stream), int(self.purpose)))
        return np.random.default_rng(ss)
