"""From-scratch BDD package: kernel API, backends, domains, ordering.

This is the substrate that replaces JavaBDD/BuDDy in the reproduction of
Whaley & Lam (PLDI 2004).  The node-level surface is the narrow
:class:`repro.bdd.api.BddKernel` interface with pluggable backends
(``packed`` — the default, packed-int cache keys and iterative hot
loops; ``reference`` — the recursive original and semantics oracle);
construct kernels with
:func:`repro.bdd.api.create_kernel` or the ``--backend`` /
``REPRO_BDD_BACKEND`` plumbing documented in ``docs/kernel.md``.  See
:mod:`repro.bdd.domain` for finite domains (including the paper's
contiguous-range and add-constant primitives) and
:mod:`repro.bdd.ordering` for order specs.

``repro.bdd.BDD`` resolves lazily (PEP 562) to the kernel class selected
by ``REPRO_BDD_BACKEND``, so the whole test suite — and any legacy call
site — can be pointed at a different backend without code changes.
"""

from .api import (
    BDDError,
    BddKernel,
    FALSE,
    TRUE,
    available_backends,
    create_kernel,
    get_backend_class,
    register_backend,
    resolve_backend_name,
)
from .domain import Domain, bits_for, equality_relation, offset_relation
from .ordering import assign_levels, parse_order
from .reorder import rebuild_with_levels
from .serialize import load_bdd, save_bdd

__all__ = [
    "BDD",
    "BDDError",
    "BddKernel",
    "FALSE",
    "TRUE",
    "available_backends",
    "create_kernel",
    "get_backend_class",
    "register_backend",
    "resolve_backend_name",
    "Domain",
    "bits_for",
    "equality_relation",
    "offset_relation",
    "assign_levels",
    "load_bdd",
    "parse_order",
    "rebuild_with_levels",
    "save_bdd",
]


def __getattr__(name: str):
    # ``BDD`` is intentionally not bound at import time: it resolves to
    # the environment-selected backend class on each fresh lookup.
    if name == "BDD":
        return get_backend_class(None)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
