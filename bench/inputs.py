"""Seeded inputs: corpora, query sequences and their fingerprints.

Everything the program receives is made here; the program itself never
sees a seed, only ``Post`` and ``TkLUSQuery`` objects.  An op is
``(query, method)``.

The corpora the queries run on are a fixed data set (the generator's
default seed): query cost depends on a handful of very active users
(activity is Zipf over a *random* rank, so whether a rank-1 user exists
at all is a coin toss per corpus seed), and a latency that swings 40 %
with the corpus cannot carry a 10 % bound.  ``--seed`` draws where the
clients ask from: locations are a stratified sample of the corpus's
spatial distribution, so every seed sends each city its share.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterable, List, Sequence, Tuple

from repro import QueryWorkload, generate_corpus
from repro.core.model import Semantics

Op = Tuple[Any, str]  # (TkLUSQuery, "sum" | "max")

NARROW_RADII_KM = (1.0, 3.0, 5.0)
BROAD_RADII_KM = (20.0, 50.0)


CORPUS_SEED = 42  # generate_corpus's own default


def corpus(users: int, roots: int, scale: float, seed: int = CORPUS_SEED) -> Any:
    return generate_corpus(max(20, round(users * scale)),
                           max(100, round(roots * scale)), seed=seed)


def z_order(location: Tuple[float, float], bits: int = 20) -> int:
    """Morton code of a ``(lat, lon)`` point on a 2^bits grid."""
    y = int((location[0] + 90.0) / 180.0 * ((1 << bits) - 1))
    x = int((location[1] + 180.0) / 360.0 * ((1 << bits) - 1))
    code = 0
    for bit in range(bits):
        code |= ((x >> bit) & 1) << (2 * bit) | ((y >> bit) & 1) << (2 * bit + 1)
    return code


class QuerySampler:
    """Binds the ``QueryWorkload`` templates to seeded locations.

    The design is balanced so that every seed draws from the same cost
    distribution: the posts, in Z-order, are cut into as many equal
    slices as there are queries, query ``i`` takes a random location
    from slice ``i``, and templates and radii cycle along the slices —
    each template meets every region and every radius equally often,
    in an issue order that is fixed.  What the seed changes is which
    location inside each slice a query asks about.
    """

    def __init__(self, data: Any, seed: int) -> None:
        # The 90 templates are part of the data set, not of the draw: a
        # seed that happened to pick more hot anchors would be a
        # different workload, not another sample of this one.
        self.workload = QueryWorkload(data)
        self._rng = random.Random(seed)
        # Z-order keeps neighbours in the list neighbours on the map, so
        # a slice of it is a compact patch of one city.
        self._by_place = sorted((post.location for post in data.posts),
                                key=z_order)

    def _design(self, count: int) -> List[Tuple[int, Tuple[float, float]]]:
        """``(slice index, location)`` per query, in issue order."""
        width = len(self._by_place) / count
        rows = [(i, self._by_place[int((i + self._rng.random()) * width)])
                for i in range(count)]
        random.Random(count).shuffle(rows)   # the same order for every seed
        return rows

    def narrow(self, count: int) -> List[Op]:
        """Single-keyword, r <= 5 km, k = 5, OR, max-score (pruning on):
        few in-radius survivors, so per-candidate resolution and the
        fixed per-query cost carry the time."""
        singles = self.workload.specs(1)
        return [(self.workload.bind(singles[j % len(singles)],
                                    NARROW_RADII_KM[(j // len(singles)) % 3],
                                    k=5, location=location), "max")
                for j, location in self._design(count)]

    def broad(self, count: int, radii: Sequence[float] = BROAD_RADII_KM) -> List[Op]:
        """Two- and three-keyword, r >= 20 km, k = 20, every fifth AND,
        alternating sum and max: hundreds of in-radius candidates put
        the time in scoring and ranking; the sum half bypasses pruning."""
        multi = self.workload.specs(2) + self.workload.specs(3)
        ops = []
        for j, location in self._design(count):
            # Each lap over the templates shifts radius and method by
            # one, so a template meets every radius under both methods.
            lap = j // len(multi)
            query = self.workload.bind(
                multi[j % len(multi)], radii[(j + lap) % len(radii)], k=20,
                semantics=Semantics.AND if j % 5 == 4 else Semantics.OR,
                location=location)
            ops.append((query, ("sum", "max")[(j + lap // len(radii)) % 2]))
        return ops

    def mixed(self, count: int) -> List[Op]:
        """Two narrow-shaped queries to every broad-shaped one (r = 20 km),
        interleaved.  Not half and half: the median of an even mix falls
        in the gap between the two cost modes and jumps with the draw."""
        broad = self.broad(count // 3, radii=(20.0,))
        narrow = iter(self.narrow(count - len(broad)))
        pool: List[Op] = []
        for heavy in broad:
            pool.extend((next(narrow), next(narrow), heavy))
        return pool + list(narrow)


def fingerprint(posts: Iterable[Any], ops: Iterable[Op]) -> str:
    """sha256 over every generated post and query, so a change in
    ``repro.data`` that alters the inputs cannot pass unnoticed."""
    digest = hashlib.sha256()
    for post in posts:
        digest.update(repr((post.sid, post.uid, post.location, post.words,
                            post.ruid, post.rsid,
                            post.kind.value if post.kind else None)).encode())
    for query, method in ops:
        digest.update(repr((query.location, query.radius_km,
                            sorted(query.keywords), query.k,
                            query.semantics.value, method)).encode())
    return digest.hexdigest()
