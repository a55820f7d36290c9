"""Engine fast-path toggle.

The autograd engine has two execution strategies that are differentially
tested to be *bit-identical* (same float ops in the same order, value-equal
gradients and weights):

* **fast** (default) — gradient buffers are stolen from provably-fresh
  temporaries instead of being re-accumulated into ``zeros_like`` scratch,
  constant operands skip their gradient computation entirely, reduction
  backwards hand out broadcast *views* instead of materialized copies,
  attention layers consume the precomputed additive masks carried on the
  batch, ``Linear``, ``LayerNorm`` and the attention core each record one
  fused tape node (:mod:`repro.nn.fused`), and Adam runs its update once
  over flat buffers of all parameters;
* **reference** — the original allocate-and-accumulate strategy over the
  composed ops, with Adam's per-parameter loop, kept as the oracle for
  the differential tests (``tests/test_fastpath_differential.py``).

Every process starts on the fast strategy; :func:`set_fast` selects the
reference one at runtime.  Both produce identical numbers.
"""

from __future__ import annotations

_FAST: bool = True


def enabled() -> bool:
    """Is the fast execution strategy active?"""
    return _FAST


def set_fast(on: bool) -> bool:
    """Select the strategy at runtime; returns the previous setting."""
    global _FAST
    prev = _FAST
    _FAST = bool(on)
    return prev
