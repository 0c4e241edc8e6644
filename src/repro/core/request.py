"""The unified evaluation request (`EvaluationRequest`).

One typed value describes a reliability evaluation end to end — which
application, what protection (string shorthand or a typed
:class:`~repro.core.protection.ProtectionSpec`), the fault grid,
seeds, adaptive stopping, execution knobs and observability sinks —
and every entry point accepts it:
:meth:`repro.core.manager.ReliabilityManager.evaluate` and
``evaluate_adaptive``, :func:`repro.analysis.tradeoff.tradeoff_curve`,
:class:`repro.runtime.session.Session` (a session is an ordered tuple
of requests, one per cell; one request is a one-cell session), and
:func:`repro.search.engine.optimize`.  It is the only place an
evaluation field and its default are declared: an entry point's
keyword arguments are spellings of these fields, which
:func:`resolve_request` turns into one request.  It validates every
field it can check without building the application.

The request separates *identity* (what is measured — part of
:meth:`to_dict`/:meth:`digest`, shared with checkpoint manifests)
from *execution knobs* (``jobs``/``batch``) and
*sinks* (``metrics``/``progress``), which never influence results and
therefore never join the digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.protection import ProtectionSpec
from repro.core.schemes import SCHEME_NAMES
from repro.errors import SpecError, UnknownSchemeError
from repro.faults.batch import DEFAULT_BATCH
from repro.utils.canonical import canonical_digest


@dataclass(frozen=True)
class EvaluationRequest:
    """Everything one reliability evaluation needs, in one value."""

    app: str
    scheme: str = "correction"
    protect: int | str | ProtectionSpec = "hot"
    runs: int = 1000
    n_blocks: int = 1
    n_bits: int = 2
    selection: str = "access-weighted"
    seed: int = 20210621
    scale: str = "default"
    app_seed: int = 1234
    secded: bool = False
    #: CI-driven early stopping margin (``None`` = exhaustive).
    target_margin: float | None = None
    #: Runs per durable work unit when driven through a session.
    chunk_runs: int | None = None
    keep_runs: bool = False
    collect_records: bool = False
    collect_provenance: bool = False
    # -- execution knobs: never part of the request identity ----------
    jobs: int = 1
    batch: int = DEFAULT_BATCH
    # -- observability sinks: never part of the request identity ------
    metrics: Any = field(default=None, compare=False)
    progress: Any = field(default=None, compare=False)

    def __post_init__(self):
        """Validate every field that needs no application.  ``app``
        may name a user :class:`~repro.kernels.base.GpuApplication`
        subclass, so it is checked against the registry only where a
        name becomes an application (:class:`~repro.runtime.session.
        Session`, :func:`~repro.kernels.registry.create_app`); an
        object count's range is checked when it resolves."""
        if not self.app:
            raise SpecError("request app must be set")
        if self.scheme not in SCHEME_NAMES:
            raise UnknownSchemeError(self.scheme, SCHEME_NAMES)
        protect = self.protect
        if isinstance(protect, str) and "=" in protect:
            ProtectionSpec.parse(protect)  # raises when malformed
        elif isinstance(protect, bool) or not (
                isinstance(protect, (int, ProtectionSpec))
                or protect in ("none", "hot", "all")):
            raise SpecError(
                f"protection level {protect!r} must be none, hot, all, "
                "an object count or 'object=scheme,...'"
            )
        if self.scale not in ("default", "small"):
            raise SpecError(f"unknown scale {self.scale!r} "
                            "(default|small)")
        if self.runs <= 0:
            raise SpecError("request runs must be positive")
        if self.chunk_runs is not None and self.chunk_runs <= 0:
            raise SpecError("request chunk_runs must be positive")
        if self.jobs < 1:
            raise SpecError("request jobs must be >= 1")
        if self.batch < 1:
            raise SpecError("request batch must be >= 1")
        if self.target_margin is not None \
                and not 0.0 < self.target_margin < 1.0:
            raise SpecError("request target_margin must be in (0, 1)")

    @property
    def protection(self) -> ProtectionSpec | None:
        """The typed protection, when the request carries one.

        A :class:`ProtectionSpec` value or an explicit
        ``"obj=scheme,..."`` string resolves here; the contextual
        shorthands (``"none"``/``"hot"``/``"all"``/count) need app
        knowledge and resolve downstream, so this returns ``None``
        for them.
        """
        if isinstance(self.protect, ProtectionSpec):
            return self.protect
        if isinstance(self.protect, str) and "=" in self.protect:
            return ProtectionSpec.parse(self.protect)
        return None

    def to_dict(self) -> dict:
        """Canonical identity document (knobs and sinks excluded).

        Optional experiment dimensions (``target_margin``,
        ``chunk_runs``, ``secded``) join the document only when set,
        following the conditional-identity-key convention the
        checkpoint manifests use.
        """
        protection = self.protection
        doc = {
            "app": self.app,
            "scheme": ("spec" if protection is not None
                       else self.scheme),
            "protect": (protection.to_dict() if protection is not None
                        else self.protect),
            "runs": self.runs,
            "n_blocks": self.n_blocks,
            "n_bits": self.n_bits,
            "selection": self.selection,
            "seed": self.seed,
            "scale": self.scale,
            "app_seed": self.app_seed,
            "keep_runs": self.keep_runs,
            "collect_records": self.collect_records,
            "collect_provenance": self.collect_provenance,
        }
        if self.secded:
            doc["secded"] = True
        if self.target_margin is not None:
            doc["target_margin"] = self.target_margin
        if self.chunk_runs is not None:
            doc["chunk_runs"] = self.chunk_runs
        return doc

    def digest(self) -> str:
        """SHA-256 content address of the identity document."""
        return canonical_digest(self.to_dict())


def resolve_request(
    request: EvaluationRequest | None, fields: dict,
    fixed: Iterable[str] = (), **defaults,
) -> EvaluationRequest:
    """The one request an entry point evaluates.

    ``request`` as given, or one built from the keyword ``fields``
    over the entry point's own ``defaults``.  A request together with
    fields, or a field the entry point sets itself (a name in
    ``fixed``, whose value comes from ``defaults``), raises
    :class:`~repro.errors.SpecError`: a field is never dropped or
    overwritten in silence.
    """
    if request is not None:
        if fields:
            raise SpecError(
                "pass a request or its fields, not both (got "
                f"{', '.join(sorted(fields))})")
        return request
    refused = sorted(set(fixed) & fields.keys())
    if refused:
        raise SpecError(
            f"{', '.join(refused)} cannot be set here: this entry "
            "point fixes it")
    return EvaluationRequest(**{**defaults, **fields})
