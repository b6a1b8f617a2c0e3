"""Golden digests that pin closed-loop outcomes, not just engine agreement.

The scalar == ensemble comparisons cannot see a change that moves both
engines together.  A digest committed from a known-good commit can: it is
the SHA-256 of ``repr`` of each result's determinism fingerprint (and, for
chaos trials, its black-box trace fingerprint), in order.  The committed
values were computed with Python 3.11 and NumPy 2.4.
"""

from __future__ import annotations

import hashlib


def campaign_digest(results) -> str:
    """Digest of chaos trial results: metrics plus trace, per trial."""
    digest = hashlib.sha256()
    for result in results:
        trace = None if result.trace is None else result.trace.fingerprint()
        digest.update(repr(result.metrics()).encode())
        digest.update(repr(trace).encode())
    return digest.hexdigest()


def scenario_digest(result) -> str:
    """Digest of one canned scenario's metrics fingerprint."""
    return hashlib.sha256(repr(result.metrics()).encode()).hexdigest()
