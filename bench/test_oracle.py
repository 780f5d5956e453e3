"""The oracle on the paper's own examples.  Run with
``python -m pytest bench -q`` (tier-1 collects ``tests/`` only)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from oracle import Oracle

OR = SimpleNamespace(name="OR")
AND = SimpleNamespace(name="AND")


def post(sid, uid, lat, lon, words, rsid=None):
    return SimpleNamespace(sid=sid, uid=uid, location=(lat, lon),
                           words=tuple(words), rsid=rsid)


def query(keywords, k=1, radius_km=10.0, semantics=OR,
          location=(43.6839128037, -79.37356590)):
    return SimpleNamespace(location=location, radius_km=radius_km,
                           keywords=frozenset(keywords), k=k,
                           semantics=semantics)


def figure_1_posts():
    """Figure 1 / Table I: seven "hotel" tweets around Toronto by u1-u6
    (A and G are u1's), with E's reply cascade — "u5's tweet E has
    considerably more replies and forwards than other tweets"."""
    posts = [
        post(1, 1, 43.6856, -79.3764, ["toronto", "marriott", "hotel"]),   # A
        post(2, 2, 43.7270, -79.4521, ["toronto", "clarion", "hotel"]),    # B
        post(3, 3, 43.6710, -79.3896, ["four", "season", "hotel"]),        # C
        post(4, 4, 43.6713, -79.3899, ["veal", "gnocchi", "hotel"]),       # D
        post(5, 5, 43.6716, -79.3893, ["massag", "spa", "hotel"]),         # E
        post(6, 6, 43.6709, -79.3901, ["fashion", "style", "hotel"]),      # F
        post(7, 1, 43.6697, -79.3903, ["marriott", "hotel", "stay"]),      # G
    ]
    sid, uid = 8, 100
    level2 = []
    for _ in range(4):                       # four direct replies to E
        posts.append(post(sid, uid, 43.6722, -79.3885, ["spa"], rsid=5))
        level2.append(sid)
        sid, uid = sid + 1, uid + 1
    level3 = []
    for _ in range(3):                       # three follow-ups on the first
        posts.append(post(sid, uid, 43.6722, -79.3885, ["agre"], rsid=level2[0]))
        level3.append(sid)
        sid, uid = sid + 1, uid + 1
    posts.append(post(sid, uid, 43.6722, -79.3885, ["total"], rsid=level3[0]))
    posts.append(post(sid + 1, uid + 1, 43.6850, -79.3760, ["nice"], rsid=1))
    return posts


def test_figure_1_sum_favours_u1_and_max_favours_u5():
    oracle = Oracle(figure_1_posts())
    assert oracle.top_k(query(["hotel"]), "sum")[0][0] == 1
    assert oracle.top_k(query(["hotel"]), "max")[0][0] == 5
    full = [uid for uid, _ in oracle.top_k(query(["hotel"], k=6), "sum")]
    assert full == [1, 5, 4, 3, 6, 2]


def test_popularity_is_definition_4():
    oracle = Oracle(figure_1_posts())
    assert oracle.popularity(5) == 4 / 2 + 3 / 3 + 1 / 4
    assert oracle.popularity(1) == 1 / 2
    assert oracle.popularity(2) == oracle.epsilon      # a lone root
    assert Oracle(figure_1_posts(), depth=2).popularity(5) == 4 / 2


def test_and_needs_every_keyword_and_counts_the_bag():
    posts = [post(1, 1, 43.68, -79.37, ["spici", "restaur", "spici"]),
             post(2, 2, 43.68, -79.37, ["restaur"])]
    oracle = Oracle(posts)
    both = query(["spici", "restaur"], k=5, semantics=AND)
    assert [uid for uid, _ in oracle.top_k(both, "sum")] == [1]
    either = query(["spici", "restaur"], k=5)
    scores = oracle.scores(either, "sum")
    # three keyword occurrences against one: Definition 6's bag count
    delta = oracle._distance_score((43.68, -79.37), either)
    assert scores[1] - 0.5 * delta == pytest.approx(3 * (scores[2] - 0.5 * delta))


def test_mismatch_names_what_is_wrong():
    oracle = Oracle(figure_1_posts())
    q = query(["hotel"], k=3)
    right = oracle.top_k(q, "max")
    assert oracle.mismatch(q, "max", right) == ""
    assert "users returned" in oracle.mismatch(q, "max", right[:2])
    swapped = [right[1], right[0], right[2]]
    assert "position 0" in oracle.mismatch(q, "max", swapped)
    nudged = [(right[0][0], right[0][1] * (1 + 1e-6))] + right[1:]
    assert "score" in oracle.mismatch(q, "max", nudged)
    within = [(right[0][0], right[0][1] * (1 + 1e-12))] + right[1:]
    assert oracle.mismatch(q, "max", within) == ""


def test_tied_users_may_come_in_either_order():
    posts = [post(1, 1, 43.68, -79.37, ["hotel"]),
             post(2, 2, 43.68, -79.37, ["hotel"])]
    oracle = Oracle(posts)
    q = query(["hotel"], k=2, location=(43.68, -79.37))
    (first, score), (second, _) = oracle.top_k(q, "sum")
    assert oracle.mismatch(q, "sum", [(second, score), (first, score)]) == ""
