"""Brute-force evaluation of the paper's Definitions 4-10 over a plain
list of posts — the benchmark's own reference for checking answers.

It shares no code with the program: no index, no metadata database, no
``repro.query`` or ``repro.core.scoring`` import.  A post is anything
with ``sid, uid, location, words, rsid``; a query anything with
``location, radius_km, keywords, k, semantics`` (``semantics.name`` is
``"AND"`` or ``"OR"``).

* Def 4  popularity ``phi(p) = sum_{i>=2} |T_i| / i`` over the reply
  tree of ``p`` down to ``depth`` levels, ``epsilon`` for a lone root;
* Def 5  distance score ``(r - d) / r`` inside the radius, else 0;
* Def 6  relevance ``rho(p, q) = |q.W ∩ p.W| / N * phi(p)`` (bag count);
* Def 7/8  user relevance: sum / max over the user's matching in-radius posts;
* Def 9  user distance score: mean of Def 5 over *all* the user's posts;
* Def 10 ``score = alpha * rho(u, q) + (1 - alpha) * delta(u, q)``.

Ranking is by ``(-score, uid)``, cut at ``k``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

EARTH_RADIUS_KM = 6371.0088
RELATIVE_TOLERANCE = 1e-9

Ranking = List[Tuple[int, float]]


def haversine_km(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    phi1, phi2 = math.radians(a[0]), math.radians(b[0])
    dphi = math.radians(b[0] - a[0])
    dlam = math.radians(b[1] - a[1])
    h = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, max(0.0, h))))


class Oracle:
    """Scores every user for a query by scanning every post."""

    def __init__(self, posts: Iterable[Any], *, alpha: float = 0.5,
                 normalizer: float = 40.0, epsilon: float = 0.1,
                 depth: int = 6) -> None:
        self.alpha = alpha
        self.normalizer = normalizer
        self.epsilon = epsilon
        self.depth = depth
        self._posts: List[Any] = []
        self._bags: List[Dict[str, int]] = []
        self._children: Dict[int, List[int]] = {}
        self._locations_of: Dict[int, List[Tuple[float, float]]] = {}
        for post in posts:
            self.add(post)

    def __len__(self) -> int:
        return len(self._posts)

    def add(self, post: Any) -> None:
        bag: Dict[str, int] = {}
        for word in post.words:
            bag[word] = bag.get(word, 0) + 1
        self._posts.append(post)
        self._bags.append(bag)
        if post.rsid is not None:
            self._children.setdefault(post.rsid, []).append(post.sid)
        self._locations_of.setdefault(post.uid, []).append(post.location)

    def popularity(self, sid: int) -> float:
        """Definition 4, depth-bounded like Algorithm 1."""
        total = 0.0
        frontier = [sid]
        for level in range(2, self.depth + 1):
            frontier = [child for parent in frontier
                        for child in self._children.get(parent, ())]
            if not frontier:
                break
            total += len(frontier) / level
        return total if total > 0.0 else self.epsilon

    def _distance_score(self, location: Tuple[float, float], query: Any) -> float:
        distance = haversine_km(query.location, location)
        if distance > query.radius_km:
            return 0.0
        return (query.radius_km - distance) / query.radius_km

    def scores(self, query: Any, method: str) -> Dict[int, float]:
        """``uid -> score`` for every user with a matching in-radius post."""
        if method not in ("sum", "max"):
            raise ValueError(f"unknown ranking method {method!r}")
        keywords = sorted(query.keywords)
        want_all = query.semantics.name == "AND"
        relevance: Dict[int, float] = {}
        for post, bag in zip(self._posts, self._bags):
            counts = [bag.get(keyword, 0) for keyword in keywords]
            present = sum(1 for count in counts if count)
            if present == 0 or (want_all and present < len(keywords)):
                continue
            if haversine_km(query.location, post.location) > query.radius_km:
                continue
            rho = sum(counts) / self.normalizer * self.popularity(post.sid)
            if method == "sum":
                relevance[post.uid] = relevance.get(post.uid, 0.0) + rho
            else:
                relevance[post.uid] = max(relevance.get(post.uid, 0.0), rho)
        scored: Dict[int, float] = {}
        for uid, rho in relevance.items():
            locations = self._locations_of[uid]
            delta = sum(self._distance_score(location, query)
                        for location in locations) / len(locations)
            scored[uid] = self.alpha * rho + (1.0 - self.alpha) * delta
        return scored

    def top_k(self, query: Any, method: str) -> Ranking:
        return _ranked(self.scores(query, method), query.k)

    def mismatch(self, query: Any, method: str, users: Sequence[Tuple[int, float]]) -> str:
        """Why ``users`` is not the right answer ('' when it is).

        The uid ranking must equal the oracle's and each score agree
        within 1e-9 relative.  Users whose oracle scores tie within that
        tolerance may appear in either order: a returned uid is accepted
        at a position when its own oracle score matches the score the
        oracle ranks there.
        """
        scored = self.scores(query, method)
        expected = _ranked(scored, query.k)
        if len(users) != len(expected):
            return f"{len(users)} users returned, oracle has {len(expected)}"
        if len({uid for uid, _score in users}) != len(users):
            return "a user is returned twice"
        for position, ((uid, score), (want_uid, want)) in enumerate(zip(users, expected)):
            if not _close(score, want):
                return (f"position {position}: score {score!r} for user {uid}, "
                        f"oracle has {want!r} for user {want_uid}")
            if uid != want_uid and not _close(scored.get(uid, math.inf), want):
                return (f"position {position}: user {uid} returned, "
                        f"oracle ranks user {want_uid} there")
        return ""


def _ranked(scored: Dict[int, float], k: int) -> Ranking:
    return sorted(scored.items(), key=lambda item: (-item[1], item[0]))[:k]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b), 1e-300)
