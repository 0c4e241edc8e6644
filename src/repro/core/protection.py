"""Typed protection configuration (`ProtectionSpec`).

A :class:`ProtectionSpec` names exactly which data objects are
protected and which scheme protects each one — including *mixed*
configurations that duplicate some objects (detection) and triplicate
others (correction).  It is the canonical identity of a protection
configuration: the same type the design-space explorer's
``DesignPoint`` wraps, what ``Campaign(protection=...)`` accepts, and
what an ``EvaluationRequest`` may carry in place of the ``protect``
string/int shorthand (which remains valid everywhere as parse sugar).

Identity is canonical-JSON: :meth:`ProtectionSpec.to_dict` sorts the
assignments, so two specs protecting the same objects with the same
schemes share a byte-identical encoding and digest regardless of how
they were spelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SpecError
from repro.utils.canonical import canonical_digest

#: Schemes a single object may be protected with (``baseline`` is the
#: absence of an assignment, never an assignment itself).
PROTECTION_SCHEMES = ("detection", "correction")

#: Replica copies each per-object scheme adds.
EXTRA_COPIES = {"detection": 1, "correction": 2}


@dataclass(frozen=True)
class ProtectionSpec:
    """Which objects are protected, and with which scheme each.

    ``assignments`` is a sorted tuple of ``(object_name, scheme)``
    pairs; an empty tuple is the baseline (no protection).  The
    constructor normalizes ordering and rejects duplicate objects and
    unknown schemes, so equal configurations compare (and digest)
    equal however they were built.
    """

    assignments: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        """Normalize ordering and validate the assignment pairs."""
        pairs = tuple(
            (str(name), str(scheme)) for name, scheme in self.assignments
        )
        names = [name for name, _scheme in pairs]
        if len(set(names)) != len(names):
            dupes = sorted(
                {name for name in names if names.count(name) > 1}
            )
            raise SpecError(
                f"object(s) assigned more than once: {', '.join(dupes)}"
            )
        for name, scheme in pairs:
            if scheme not in PROTECTION_SCHEMES:
                raise SpecError(
                    f"unknown per-object scheme {scheme!r} for "
                    f"{name!r} (choose from "
                    f"{', '.join(PROTECTION_SCHEMES)})"
                )
        object.__setattr__(self, "assignments", tuple(sorted(pairs)))

    # -- constructors --------------------------------------------------
    @classmethod
    def baseline(cls) -> "ProtectionSpec":
        """The no-protection configuration."""
        return cls(())

    @classmethod
    def uniform(
        cls, scheme: str, names: Iterable[str]
    ) -> "ProtectionSpec":
        """Protect every object in ``names`` with one ``scheme``.

        An empty ``names`` (or the ``"baseline"`` scheme) is the
        baseline: the Fig 7/9 sweeps' leftmost "0 objects protected"
        point.
        """
        names = tuple(names)
        if scheme == "baseline" or not names:
            return cls.baseline()
        return cls(tuple((name, scheme) for name in names))

    @classmethod
    def parse(cls, text: str) -> "ProtectionSpec":
        """Parse the explicit string form.

        ``"none"`` is the baseline; otherwise a comma-separated list
        of ``object=scheme`` pairs, e.g.
        ``"mat_values=correction,vec_x=detection"``.  The contextual
        shorthands (``"hot"``, ``"all"``, an object count) need app
        knowledge and are resolved by
        :meth:`repro.core.manager.ReliabilityManager.protection_spec`.
        """
        text = text.strip()
        if text in ("", "none"):
            return cls.baseline()
        pairs = []
        for part in text.split(","):
            name, sep, scheme = part.partition("=")
            if not sep or not name.strip() or not scheme.strip():
                raise SpecError(
                    f"bad protection assignment {part!r} (expected "
                    "'object=scheme')"
                )
            pairs.append((name.strip(), scheme.strip()))
        return cls(tuple(pairs))

    @classmethod
    def from_dict(cls, data: Mapping) -> "ProtectionSpec":
        """Rebuild a spec from its :meth:`to_dict` image."""
        try:
            assignments = data["assignments"]
        except (KeyError, TypeError):
            raise SpecError(
                f"not a protection-spec image: {data!r}"
            ) from None
        return cls(tuple(sorted(
            (name, scheme) for name, scheme in assignments.items()
        )))

    # -- identity ------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON-ready image (sorted assignment map)."""
        return {"assignments": dict(self.assignments)}

    def digest(self) -> str:
        """Content digest of the canonical encoding."""
        return canonical_digest(self.to_dict())

    def to_string(self) -> str:
        """The explicit string form :meth:`parse` accepts."""
        if not self.assignments:
            return "none"
        return ",".join(
            f"{name}={scheme}" for name, scheme in self.assignments
        )

    # -- structure -----------------------------------------------------
    @property
    def objects(self) -> tuple[str, ...]:
        """Protected object names, sorted."""
        return tuple(name for name, _scheme in self.assignments)

    @property
    def schemes(self) -> dict[str, str]:
        """Object name -> scheme map."""
        return dict(self.assignments)

    @property
    def is_baseline(self) -> bool:
        """Whether nothing is protected."""
        return not self.assignments

    @property
    def is_mixed(self) -> bool:
        """Whether the spec mixes detection and correction objects."""
        schemes = {scheme for _name, scheme in self.assignments}
        return len(schemes) > 1

    @property
    def scheme_label(self) -> str:
        """Display/grouping label: the one scheme of a uniform spec
        (``"baseline"`` when nothing is protected), else ``"mixed"``."""
        schemes = {scheme for _name, scheme in self.assignments}
        if len(schemes) > 1:
            return "mixed"
        return next(iter(schemes), "baseline")

    def scheme_for(self, name: str) -> str:
        """The scheme protecting ``name`` (``"baseline"`` if none)."""
        return self.schemes.get(name, "baseline")

    def replica_bytes(self, memory) -> int:
        """Replica memory footprint on ``memory`` (block-granular).

        Pure address arithmetic over the allocation map — the spec
        need never be executed to know its memory cost, which is what
        makes the footprint a free objective for the design-space
        search.
        """
        from repro.arch.address_space import BLOCK_BYTES

        return sum(
            memory.object(name).n_blocks * BLOCK_BYTES
            * EXTRA_COPIES[scheme]
            for name, scheme in self.assignments
        )
