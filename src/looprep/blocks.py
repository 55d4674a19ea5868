"""Spectral characters and block partitioning.

The character of an l-weight records, at each spectral point, the image of
the per-node exponent vector in the finite group P/Q; multiplying by any
root-lattice generator leaves it unchanged.  Two l-weights lie in the same
block exactly when some element of H carries one character map onto the
other, that is, when their characters have the same canonical orbit key.
"""

from __future__ import annotations

from .errors import NotDominant
from .lweights import LWeight
from .record import Immutable


class SpectralCharacter(Immutable):
    """Finitely supported map from spectral points to nonzero P/Q classes."""

    __slots__ = ("ctx", "rs", "entries")

    def __init__(self, ctx, rs, entries):
        clean = {p: tuple(v) for p, v in entries.items() if any(v)}
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "entries", clean)

    def _rows(self):
        """(point images under G, class) for every entry."""
        images = self.ctx.point_images
        return [(images(p), v) for p, v in self.entries.items()]

    def class_key(self):
        """Canonical H-orbit key: over the H-translates, the least tuple of
        (point, class) pairs sorted by the canonical order of points; equal
        keys exactly mean H-equivalent."""
        rows = self._rows()
        return min(tuple(sorted((row[h], v) for row, v in rows)) for h in self.ctx.subgroup)

    def __eq__(self, other):
        return (
            isinstance(other, SpectralCharacter)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def to_json(self):
        return [
            {"point": list(p.to_json()), "class": list(v)}
            for p, v in sorted(self.entries.items())
        ]

    def __repr__(self):
        return "SpectralCharacter(%s)" % ", ".join(
            "%s -> %s" % (p.to_json(), list(v))
            for p, v in sorted(self.entries.items())
        )


def spectral_character(lweight: LWeight) -> SpectralCharacter:
    """Pointwise image of an l-weight in P/Q (non-dominant inputs allowed)."""
    entries = {}
    for point in lweight.points():
        entries[point] = lweight.rs.pq_class(lweight.point_weight(point))
    return SpectralCharacter(lweight.ctx, lweight.rs, entries)


def same_block(a: LWeight, b: LWeight) -> bool:
    """Whether some h in H carries one spectral character onto the other."""
    a._require_compatible(b)
    return spectral_character(a).class_key() == spectral_character(b).class_key()


def partition_blocks(lweights):
    """Group dominant l-weights into blocks.

    Members are grouped by the class key of their spectral character.
    Groups are returned with members sorted canonically and ordered by their
    least member key, so identical inputs always partition identically.
    """
    items = list(lweights)
    for lw in items:
        if not lw.is_dominant:
            raise NotDominant("block partition requires dominant l-weights")
    groups = {}
    for lw in items:
        items[0]._require_compatible(lw)
        groups.setdefault(spectral_character(lw).class_key(), []).append(lw)
    groups = [sorted(g, key=LWeight.sort_key) for g in groups.values()]
    groups.sort(key=lambda g: g[0].sort_key())
    return groups
