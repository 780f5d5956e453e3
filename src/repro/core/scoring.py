"""Scoring tweets and users (Section III, Definitions 4-10).

All functions take a :class:`ScoringConfig` carrying the paper's tuning
parameters: the keyword/distance mixing weight ``alpha`` (0.5 in the
experiments, "so that the two factors are considered as having the same
impact"), the keyword-relevance normaliser ``N`` ("empirically set around
40"), and the singleton-thread smoothing ``epsilon`` (0.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from ..geo.distance import DEFAULT_METRIC, Metric

Coordinate = Tuple[float, float]


@dataclass(frozen=True)
class ScoringConfig:
    """Paper parameters for scoring (Section VI-B1 defaults)."""

    alpha: float = 0.5
    keyword_normalizer: float = 40.0
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1]: {self.alpha}")
        if self.keyword_normalizer <= 0:
            raise ValueError(f"N must be positive: {self.keyword_normalizer}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative: {self.epsilon}")


DEFAULT_CONFIG = ScoringConfig()


def thread_popularity(level_sizes: Sequence[int],
                      epsilon: float = DEFAULT_CONFIG.epsilon) -> float:
    """Definition 4 from raw level sizes (level_sizes[0] is the root level).

    >>> thread_popularity([1, 3, 4, 2])  # the paper's Figure 2 example
    3.3333333333333335
    """
    if len(level_sizes) <= 1:
        return epsilon
    return sum(size / index for index, size in enumerate(level_sizes[1:], start=2))


def distance_score(post_location: Coordinate, query_location: Coordinate,
                   radius_km: float, metric: Metric = DEFAULT_METRIC) -> float:
    """Definition 5: ``(r - ||q.l, p.l||) / r`` within radius, else 0.

    Range [0, 1]; 1 at the query point, 0 on/outside the circle edge.
    """
    distance = metric(query_location, post_location)
    if distance > radius_km:
        return 0.0
    return (radius_km - distance) / radius_km


def keyword_match_count(post_bag: Dict[str, int],
                        query_keywords: FrozenSet[str]) -> int:
    """``|q.W ∩ p.W|`` under the paper's bag model: q.W is a set, p.W a
    multiset, so a query keyword occurring twice in the post counts twice
    (Definition 6's "spicy restaurant" example)."""
    return sum(post_bag.get(keyword, 0) for keyword in query_keywords)


def keyword_relevance(post_bag: Dict[str, int], query_keywords: FrozenSet[str],
                      popularity: float,
                      config: ScoringConfig = DEFAULT_CONFIG) -> float:
    """Definition 6: ``rho(p, q) = (|q.W ∩ p.W| / N) * phi(p)``.

    May exceed 1 — the paper allows this deliberately.
    """
    matches = keyword_match_count(post_bag, query_keywords)
    return (matches / config.keyword_normalizer) * popularity


def sum_score(relevances: Iterable[float]) -> float:
    """Definition 7: user keyword relevance as the sum over the user's
    (relevant) tweets."""
    return sum(relevances)


def max_score(relevances: Iterable[float]) -> float:
    """Definition 8: user keyword relevance as the maximum over the
    user's tweets (0.0 for a user with no relevant tweets)."""
    return max(relevances, default=0.0)


def user_distance_score(post_locations: Sequence[Coordinate],
                        query_location: Coordinate, radius_km: float,
                        metric: Metric = DEFAULT_METRIC) -> float:
    """Definition 9: the average of the user's per-post distance scores.

    The average runs over ``P_u`` — all the user's posts passed in, with
    posts outside the radius contributing 0.
    """
    if not post_locations:
        return 0.0
    total = sum(distance_score(location, query_location, radius_km, metric)
                for location in post_locations)
    return total / len(post_locations)


def user_score(keyword_part: float, distance_part: float,
               config: ScoringConfig = DEFAULT_CONFIG) -> float:
    """Definition 10: ``score(u, q) = alpha * rho(u, q) + (1 - alpha) *
    delta(u, q)``."""
    return config.alpha * keyword_part + (1.0 - config.alpha) * distance_part


def upper_bound_popularity(max_fanout: int, depth: int) -> float:
    """Definition 11: the global upper bound on any thread's popularity.

    ``phi_m = sum_{i=2..n} t_m^(i-1) / i`` for a thread of depth ``n``
    whose every tweet has the maximum observed fanout ``t_m``: level ``i``
    can hold at most ``t_m^(i-1)`` tweets.  (The paper's Definition 11
    writes ``|t_m|`` per level; interpreting it as the per-node fanout
    compounds across levels, which is the sound bound — with the paper's
    literal per-level reading the bound would be incorrect for deep
    threads.  For depth 2 both readings coincide.)
    """
    if max_fanout <= 0:
        return 0.0
    total = 0.0
    width = 1
    for level in range(2, depth + 1):
        width *= max_fanout
        total += width / level
    return total


def upper_bound_popularity_literal(max_fanout: int, depth: int) -> float:
    """Definition 11 read literally: ``phi_m = sum_{i=2..n} t_m / i`` with
    ``t_m`` tweets at *every* level.

    Much tighter than :func:`upper_bound_popularity` but only a heuristic
    bound — a thread can exceed it whenever fanout compounds over more
    than one level.  Provided for the ablation benchmark comparing the
    two readings; the sound compounding bound is the library default.
    """
    if max_fanout <= 0:
        return 0.0
    return sum(max_fanout / level for level in range(2, depth + 1))


def upper_bound_user_score(popularity_bound: float, max_matches: int,
                           config: ScoringConfig = DEFAULT_CONFIG) -> float:
    """The pruning bound of Algorithm 5, line 18: combine the popularity
    upper bound (via Definition 6 with ``max_matches`` keyword hits) with
    the maximum possible distance score of 1."""
    keyword_bound = (max_matches / config.keyword_normalizer) * popularity_bound
    return config.alpha * keyword_bound + (1.0 - config.alpha) * 1.0
