"""The shared execution state threaded through the physical operators.

One :class:`QueryContext` lives for the duration of one query execution.
Operators read what upstream operators produced and write what downstream
operators consume; the context also carries the immutable query, the
backends (postings source, metadata resolver, thread builder, bounds),
the mutable accounting objects (:class:`~repro.query.results.QueryStats`
and the per-query :class:`~repro.obs.profile.QueryProfile`), and the
active observability span scope.

The metadata backend is abstracted to three callables so index-backed,
dataset-backed (brute force) and federated plans share the same
operators:

* ``resolve(tid) -> (uid, lat, lon) | None`` — candidate metadata;
* ``user_locations(uid) -> [(lat, lon), ...]`` — the posts of a user
  (Definition 9's ``P_u``);
* ``max_sid() -> int`` — the newest timestamp (recency reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from ...core.model import TkLUSQuery
from ...core.scoring import ScoringConfig
from ...geo.distance import (
    DEFAULT_METRIC,
    Coordinate,
    Metric,
    haversine_km,
    haversine_km_from,
)
from ..results import QueryResult, QueryStats
from ..semantics import Candidate
from ..topk import TopKUserQueue
from .source import GroupedPostings, PostingsSource

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ...core.thread import ThreadBuilder
    from ...obs.profile import QueryProfile
    from ..bounds import BoundsManager

#: ``tid -> (uid, lat, lon)`` metadata lookup; ``None`` for ghosts.
CandidateResolver = Callable[[int], Optional[Tuple[int, float, float]]]
#: batch form: ``sid -> (uid, lat, lon)`` for a whole candidate list.
BatchCandidateResolver = Callable[
    [List[int]], Dict[int, Tuple[int, float, float]]]
#: ``uid -> [(lat, lon), ...]`` — every post location of the user.
UserLocationsProvider = Callable[[int], List[Tuple[float, float]]]
#: batch form: ``uid -> (lats, lons)`` coordinate columns of ``P_u``.
UserLocationColumnsProvider = Callable[
    [int], Tuple[List[float], List[float]]]
#: An in-radius candidate paired with its resolved ``(uid, lat, lon)``.
InRadiusCandidate = Tuple[Candidate, int, float, float]


@dataclass
class QueryContext:
    """Everything one query execution shares across its operators."""

    query: TkLUSQuery
    config: ScoringConfig = field(default_factory=ScoringConfig)
    metric: Metric = DEFAULT_METRIC
    stats: QueryStats = field(default_factory=QueryStats)
    profile: Optional["QueryProfile"] = None

    # -- backends ---------------------------------------------------------
    source: Optional[PostingsSource] = None
    dataset: Any = None                      # full-scan (baseline) plans
    threads: Any = None                      # popularity(sid) provider
    bounds: Optional["BoundsManager"] = None
    resolve: Optional[CandidateResolver] = None
    user_locations: Optional[UserLocationsProvider] = None
    #: optional batch backends consumed by the columnar operators; when
    #: absent they fall back to the per-element callables above.
    resolve_batch: Optional[BatchCandidateResolver] = None
    user_location_columns: Optional[UserLocationColumnsProvider] = None
    #: per-query distance closure with the query point's trigonometry
    #: hoisted (``__post_init__`` derives it from ``metric``); bitwise-
    #: identical to ``metric(query.location, point)``.
    distance_to: Optional[Callable[[Coordinate], float]] = None
    max_sid: Callable[[], int] = lambda: 0
    #: serialises metadata/thread accesses when operators run on worker
    #: threads (scatter-gather); ``None`` means no locking.
    lock: Any = None
    #: count thread constructions into ``stats.threads_built``; turned
    #: off inside scatter-gather workers where the builder is shared.
    track_thread_builds: bool = True
    #: active obs span scope (the enclosing ``query.search`` span).
    span: Any = None
    #: cooperative cancellation: any object with a ``check()`` raising to
    #: abort (the serve layer passes a ``repro.serve.CancelToken``); the
    #: executor calls it at every operator boundary.  ``None`` = never
    #: cancelled — the pipeline does not import the serve package.
    cancel: Any = None

    # -- operator-to-operator state (in pipeline order) -------------------
    terms: List[str] = field(default_factory=list)
    cells: List[str] = field(default_factory=list)
    per_cell: Optional[GroupedPostings] = None
    recency_reference: int = 0
    candidates: List[Candidate] = field(default_factory=list)
    in_radius: List[InRadiusCandidate] = field(default_factory=list)
    candidate_uids: Set[int] = field(default_factory=set)
    keyword_parts: Optional[Dict[int, float]] = None
    queue: Optional[TopKUserQueue] = None
    pruner: Any = None                       # installed by BoundsPruneOp
    scored: List[Tuple[int, float]] = field(default_factory=list)
    users: List[Tuple[int, float]] = field(default_factory=list)

    # -- distributed / federated state ------------------------------------
    cells_by_server: Dict[str, List[str]] = field(default_factory=dict)
    platform_results: Dict[str, QueryResult] = field(default_factory=dict)
    federated_users: List[Any] = field(default_factory=list)
    #: path-specific knobs that are per-query but not part of the query
    #: model (e.g. the federation's ``per_platform_k``).
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.terms:
            self.terms = sorted(self.query.keywords)
        if self.distance_to is None:
            location = self.query.location
            if self.metric is haversine_km:
                self.distance_to = haversine_km_from(location)
            else:
                metric = self.metric
                self.distance_to = lambda point: metric(location, point)

    # -- constructors -----------------------------------------------------

    @classmethod
    def for_database(cls, query: TkLUSQuery, *, config: ScoringConfig,
                     metric: Metric, source: Optional[PostingsSource],
                     database: Any, threads: Any,
                     bounds: Optional["BoundsManager"] = None,
                     profile: Optional["QueryProfile"] = None,
                     stats: Optional[QueryStats] = None,
                     lock: Any = None,
                     cancel: Any = None) -> "QueryContext":
        """A context whose metadata callables read the storage engine
        (heap file + B+-trees) — the Figure 3 deployment shape."""

        def resolve(tid: int) -> Optional[Tuple[int, float, float]]:
            record = database.get(tid)
            if record is None:
                return None
            return record.uid, record.lat, record.lon

        def user_locations(uid: int) -> List[Tuple[float, float]]:
            return [(record.lat, record.lon)
                    for record in database.posts_of_user(uid)]

        # Batch backends for the columnar operators, present only when
        # the database grows them (duck-typed so test doubles keep working).
        resolve_batch: Optional[BatchCandidateResolver] = \
            getattr(database, "resolve_many", None)
        user_location_columns: Optional[UserLocationColumnsProvider] = \
            getattr(database, "user_location_columns", None)

        return cls(query=query, config=config, metric=metric,
                   stats=stats if stats is not None else QueryStats(),
                   profile=profile, source=source, threads=threads,
                   bounds=bounds, resolve=resolve,
                   user_locations=user_locations,
                   resolve_batch=resolve_batch,
                   user_location_columns=user_location_columns,
                   max_sid=lambda: database.max_sid, lock=lock,
                   cancel=cancel)

    @classmethod
    def for_dataset(cls, query: TkLUSQuery, *, config: ScoringConfig,
                    metric: Metric, dataset: Any, threads: Any,
                    user_locations: Dict[int, List[Tuple[float, float]]],
                    stats: Optional[QueryStats] = None) -> "QueryContext":
        """A context over an in-memory dataset (the brute-force oracle)."""
        posts = dataset.posts

        def resolve(tid: int) -> Optional[Tuple[int, float, float]]:
            post = posts.get(tid)
            if post is None:
                return None
            return post.uid, post.location[0], post.location[1]

        return cls(query=query, config=config, metric=metric,
                   stats=stats if stats is not None else QueryStats(),
                   dataset=dataset, threads=threads, resolve=resolve,
                   user_locations=user_locations.__getitem__,
                   max_sid=lambda: max(posts) if posts else 0)

    def child(self, cells: List[str]) -> "QueryContext":
        """A per-worker context for one scatter-gather server: shares the
        backends and lock, owns fresh accounting and working state."""
        return QueryContext(
            query=self.query, config=self.config, metric=self.metric,
            stats=QueryStats(), profile=None, source=self.source,
            dataset=self.dataset, threads=self.threads, bounds=self.bounds,
            resolve=self.resolve, user_locations=self.user_locations,
            resolve_batch=self.resolve_batch,
            user_location_columns=self.user_location_columns,
            distance_to=self.distance_to,
            max_sid=self.max_sid, lock=self.lock,
            track_thread_builds=False, cancel=self.cancel,
            terms=list(self.terms), cells=cells)
