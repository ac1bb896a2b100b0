import itertools
import random

import pytest

from elitist_lo_lab.bounds import (
    LevelGameSolver,
    PhiSolver,
    canonical_families,
)


def test_game_single_insignificant_bit():
    assert LevelGameSolver().value(1, 0, [()]) == pytest.approx(1.0)


def test_game_known_configuration_full_scan():
    # singleton family: uniform search over the m non-members, (m+1)/2
    for n_pos, k in [(2, 1), (4, 1), (5, 2), (6, 3), (4, 0)]:
        m = n_pos - k
        v = LevelGameSolver().value(n_pos, k, [tuple(range(k))])
        assert v == pytest.approx((m + 1) / 2, abs=1e-12)


def test_game_two_candidates_one_each():
    assert LevelGameSolver().value(2, 1, [(0,), (1,)]) == 1.5


def _relabeled(fam, rng, n_pos):
    perm = list(range(n_pos))
    rng.shuffle(perm)
    return [tuple(sorted(perm[p] for p in s)) for s in fam]


def test_game_value_invariant_under_relabeling():
    # the memo is keyed by raw states, so a relabeled family is solved on its
    # own states, and the values must agree bit for bit
    rng = random.Random(4)
    solver = LevelGameSolver()
    for _ in range(30):
        n_pos = rng.randrange(3, 7)
        k = rng.randrange(1, n_pos)
        all_sets = list(itertools.combinations(range(n_pos), k))
        fam = rng.sample(all_sets, rng.randrange(1, min(len(all_sets), 6) + 1))
        fam2 = _relabeled(fam, rng, n_pos)
        assert solver.value(n_pos, k, fam) == solver.value(n_pos, k, fam2)
    # at the position guard, each with a fresh solver so no memo entry is shared
    fam = rng.sample(list(itertools.combinations(range(7), 3)), 6)
    fam2 = _relabeled(fam, rng, 7)
    assert sorted(fam2) != sorted(fam)
    assert LevelGameSolver().value(7, 3, fam) == LevelGameSolver().value(7, 3, fam2)


def test_game_guards():
    with pytest.raises(ValueError):
        LevelGameSolver().value(8, 2, [(0, 1)])          # too many positions
    with pytest.raises(ValueError):
        LevelGameSolver().value(4, 2, [])                # empty family
    with pytest.raises(ValueError):
        LevelGameSolver().value(4, 2, [(0,)])            # wrong set size
    with pytest.raises(ValueError):
        LevelGameSolver().value(4, 4, [(0, 1, 2, 3)])    # m = 0
    with pytest.raises(ValueError):
        LevelGameSolver().value(4, 2, [(0, 1), (1, 0)])  # duplicate sets
    with pytest.raises(ValueError):
        LevelGameSolver().value(4, 2, [(0, 5)])          # position out of range


def test_game_matches_phi_at_extremes():
    # full family: no information; the DP at C = binom(k+m, m) is the same game
    solver = LevelGameSolver()
    phi = PhiSolver()
    for n_pos, k in [(3, 1), (4, 2), (5, 2), (5, 3)]:
        m = n_pos - k
        fam = list(itertools.combinations(range(n_pos), k))
        assert solver.value(n_pos, k, fam) == pytest.approx(
            float(phi.value(k, m, len(fam))), abs=1e-9
        )
        assert solver.value(n_pos, k, [fam[0]]) == pytest.approx(
            float(phi.value(k, m, 1)), abs=1e-12
        )


def test_game_dominates_phi_on_sampled_families():
    rng = random.Random(11)
    solver = LevelGameSolver()
    phi = PhiSolver()
    for _ in range(120):
        n_pos = rng.randrange(2, 7)
        k = rng.randrange(1, n_pos)
        all_sets = list(itertools.combinations(range(n_pos), k))
        size = rng.randrange(1, len(all_sets) + 1)
        fam = rng.sample(all_sets, size)
        game = solver.value(n_pos, k, fam)
        relax = float(phi.value(k, n_pos - k, size))
        assert game >= relax - 1e-9


def _brute_game_value(n_pos: int, secrets: frozenset, tested: frozenset,
                      memo: dict) -> float:
    """Independent oracle: direct recursion over the explicit posterior of
    (significant-set, next-bit) secrets, no state reduction of any kind."""
    key = (secrets, tested)
    if key in memo:
        return memo[key]
    total = len(secrets)
    best = float("inf")
    for q in range(n_pos):
        if q in tested:
            continue
        drop = frozenset(s for s in secrets if q in s[0])
        leave = frozenset(s for s in secrets if s[1] == q)
        stay = frozenset(s for s in secrets if q not in s[0] and s[1] != q)
        if len(drop) == total:
            continue  # querying a position known to be significant
        cost = 1.0
        if drop:
            cost += len(drop) / total * _brute_game_value(
                n_pos, drop, tested | {q}, memo)
        if stay:
            cost += len(stay) / total * _brute_game_value(
                n_pos, stay, tested | {q}, memo)
        best = min(best, cost)
    memo[key] = best
    return best


def test_game_matches_independent_brute_force():
    # enumerate every family for three and four positions and compare the
    # reduced, memoized solver against the direct posterior recursion
    solver = LevelGameSolver()
    for n_pos in (3, 4):
        for k in range(0, n_pos):
            all_sets = list(itertools.combinations(range(n_pos), k))
            for r in range(1, len(all_sets) + 1):
                for fam in itertools.combinations(all_sets, r):
                    secrets = frozenset(
                        (frozenset(P), b)
                        for P in fam
                        for b in range(n_pos)
                        if b not in P
                    )
                    brute = _brute_game_value(n_pos, secrets, frozenset(), {})
                    fast = solver.value(n_pos, k, fam)
                    assert fast == pytest.approx(brute, abs=1e-12), (n_pos, k, fam)


def test_canonical_families_small_counts():
    # families of 1-subsets of {0,1} up to relabeling: {a} and {a,b}
    assert len(canonical_families(2, 1)) == 2
    # k=0: the single empty set gives exactly one family
    assert canonical_families(3, 0) == [((),)]
    # 1-subsets of a 3-set: families are determined by their size
    assert len(canonical_families(3, 1)) == 3


def test_canonical_families_cover_all_orbits():
    # brute force over all relabelings: every family's orbit minimum is a
    # listed representative, and every representative is one
    for n_pos, k in [(4, 2), (5, 2), (5, 3)]:
        sets = list(itertools.combinations(range(n_pos), k))
        index = {s: i for i, s in enumerate(sets)}
        reps = {sum(1 << index[s] for s in fam) for fam in canonical_families(n_pos, k)}
        images = [[index[tuple(sorted(perm[p] for p in s))] for s in sets]
                  for perm in itertools.permutations(range(n_pos))]
        minima = set()
        for fam_mask in range(1, 1 << len(sets)):
            members = [i for i in range(len(sets)) if (fam_mask >> i) & 1]
            minima.add(min(sum(1 << img[i] for i in members) for img in images))
        assert minima == reps, (n_pos, k)


def test_canonical_families_match_hypergraph_counts():
    # nonempty families of k-subsets of [n] up to relabeling are the k-uniform
    # hypergraphs on n vertices minus the empty one (OEIS A000088, A000665);
    # complementing every member maps k-families to (n-k)-families
    counts = {(total, k): len(canonical_families(total, k))
              for total in range(2, 7) for k in range(total)}
    for total in range(2, 7):
        assert counts[total, 0] == 1
        assert counts[total, 1] == counts[total, total - 1] == total
    assert counts[4, 2] == 10                      # 11 graphs on 4 vertices
    assert counts[5, 2] == counts[5, 3] == 33      # 34 graphs on 5 vertices
    assert counts[6, 2] == counts[6, 4] == 155     # 156 graphs on 6 vertices
    assert counts[6, 3] == 2135                    # 2136 3-uniform hypergraphs
    assert sum(counts.values()) == 2564            # the dominance sweep
