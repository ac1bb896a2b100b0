import hashlib
import itertools
import math
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
    # each case as a sorted tuple, an unsorted one and a list, so that no
    # shortcut for well-formed members lets one through; a member indexing a
    # table by position would wrap at -1 and find a bit for 5 below 2^7
    size = "every family member must have exactly k positions"
    cases = [
        (8, 2, [(0, 1)], "exceeds the game guard"),          # too many positions
        (4, 2, [], "must be non-empty"),                     # empty family
        (4, 2, [(0,)], size),                                # wrong set size
        (4, 2, [(0, 1), (0, 1, 2)], size),
        (4, 2, [(1, 1)], size),                              # position repeated in a member
        (4, 4, [(0, 1, 2, 3)], r"m >= 1"),                   # m = 0
        (4, 2, [(0, 1), (1, 0)], "must not repeat"),         # duplicate sets
        (4, 2, [(0, 2), (1, 3), (0, 2)], "must not repeat"),
        (4, 2, [(0, 5)], "position 5 out of range"),         # position >= n'
        (4, 2, [(0, 4)], "position 4 out of range"),
        (4, 2, [(-1, 0)], "position -1 out of range"),       # negative position
        (4, 2, [(0, 1), (-1, 2)], "position -1 out of range"),
    ]
    for n_pos, k, fam, message in cases:
        for form in (fam, [P[::-1] for P in fam], [list(P) for P in fam]):
            with pytest.raises(ValueError, match=message):
                LevelGameSolver().value(n_pos, k, form)
    # a float position equal to an int is still no position: 1 << 0.0 raises
    with pytest.raises(TypeError):
        LevelGameSolver().value(4, 2, [(0.0, 1.0)])


def test_game_members_in_any_form_give_one_state():
    # lists, unsorted tuples, a shuffled family and a generator all meet the
    # sorted tuples' memo state: one value, and not one state more
    fam = [(0, 1), (0, 2), (1, 3), (2, 3)]
    solver = LevelGameSolver()
    value = solver.value(4, 2, fam)
    states = solver.memo_states
    assert (4, (0b0011, 0b0101, 0b1010, 0b1100)) in solver._memo
    forms = [
        lambda: [list(P) for P in fam],
        lambda: [P[::-1] for P in fam],
        lambda: fam[::-1],
        lambda: [list(P[::-1]) for P in fam[2:] + fam[:2]],
        lambda: (P for P in fam),
    ]
    for form in forms:
        assert solver.value(4, 2, form()) == value
        assert solver.memo_states == states
        fresh = LevelGameSolver()
        assert fresh.value(4, 2, form()) == value
        assert fresh._memo.keys() == solver._memo.keys()


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


# sha256 of repr(canonical_families(total, k)), taken before the ordered,
# chunked orbit filter; the (6, 3) case crosses chunk boundaries
FAMILY_DIGESTS = {
    (1, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (1, 1): "4ac279b94d8c735ee76858c2b50da00526af1f31a8c2e829581bbbeae1fea620",
    (2, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (2, 1): "f0a5078088b8550a029a249bb384c73b221dd8aee00973348cc1831bb505051f",
    (2, 2): "f5e5441ac66855177e23ba6802804d05ca4f3a9487456a8a77d2f1369f176ae5",
    (3, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (3, 1): "f6957dc55e80c999041b951832c2d936a7aedca25671cea24409e0c94bb46aef",
    (3, 2): "7efb924b2f0c350d0b59f6a3ad02f1d882e8879a89b84ca226beb84d4aa3f545",
    (3, 3): "637b73f7960358d303965c1dd410efea2cd6b7173c50bf8965ce82d34fad6640",
    (4, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (4, 1): "051fea4ec191fbce5ed0e1c7da20f7003588787a0dc0087fbe43398525389d19",
    (4, 2): "0c461b85415bf88f95479f24e777644f61e21a0c2673a71dd411d00491e1a9f3",
    (4, 3): "85b8c44b90f704bb45176c6893b19bf962859f88c1b4aeb95adc877688a90211",
    (4, 4): "dc6c22e9ba8a7180c1c0b1a5e6753c1172ee808f33596ab6a68b3e8efb5b20aa",
    (5, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (5, 1): "0e02f92e5bb475d1c9c34526ab201bef3fe8eb9a9e48f2bb674e270e19324ebf",
    (5, 2): "5a30ad8c40d93856d6c2736d2ee22c54018752827912345520a3c6585410d20f",
    (5, 3): "978970d4c32ce4d63c167c2e734d8417d5c70f320053c3fe78635301bec2e68f",
    (5, 4): "81d69401ff072057b25dcb856c2a43f3e9685256cb2df1a86ce5c7108cc291a1",
    (5, 5): "11264c9ce155d6995c5bfdaf01c952d3f910e51c779f7fd6f07c7fd18513a0bc",
    (6, 0): "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    (6, 1): "8246a6db8f695dd64a16d86da353d8ac08cd157a3851a1e513f189a6ea42c18f",
    (6, 2): "15fd53255933884f64498be1a2beb05ff6324a97e2ffdc470355afa0dd7bf54b",
    (6, 3): "b749fc685bbd92e83be4741d28f1e90310a880fb570eaa16002059cc221a9deb",
    (6, 4): "88bb4bf71ac43965fd3de484a22df673f5f87aae222964233694fed9fa9bf5e4",
    (6, 5): "cfe327311ea92810b36a3e91b4827aa546daa4f1ac7b1a16884e86d10b71396f",
    (6, 6): "59011bdc6ff669762a6ce64d64e8ecff1ca24a1e4f7d478e50e8c689cd5d3d87",
}


@pytest.mark.parametrize("total, k", sorted(FAMILY_DIGESTS))
def test_canonical_families_pinned_in_order(total, k):
    fams = canonical_families(total, k)
    digest = hashlib.sha256(repr(fams).encode()).hexdigest()
    assert digest == FAMILY_DIGESTS[total, k]


# sha256 of the game values' float.hex() over the dominance sweep, one solver
# for every canonical family with 2 <= total <= 6 in sweep order, taken before
# the solver dropped its per-child sort and its call per memo hit
GAME_SWEEP_DIGEST = "d0d0ef2cda1de14703cd431ac123df95707b95200b869e78647aff99a6368b6a"


def test_game_values_pinned_over_the_sweep():
    solver = LevelGameSolver()
    digest = hashlib.sha256()
    for total in range(2, 7):
        for k in range(total):
            for fam in canonical_families(total, k):
                digest.update(solver.value(total, k, fam).hex().encode())
    assert digest.hexdigest() == GAME_SWEEP_DIGEST
    assert solver.memo_states == 4104


def _without(P: int, q: int) -> int:
    """P with position q removed and the positions above it moved down."""
    return sum(1 << (p - (p > q)) for p in range(P.bit_length()) if P >> p & 1 and p != q)


def test_game_memo_states_meet_the_dominance_premises():
    # the premises of the dominance lemma in LevelGameSolver's docstring,
    # on every state the k + m <= 6 sweep solves
    solver = LevelGameSolver()
    for total in range(2, 7):
        for k in range(total):
            for fam in canonical_families(total, k):
                solver.value(total, k, fam)
    memo = solver._memo
    branches = 0
    for u, masks in memo:
        C, k = len(masks), masks[0].bit_count()
        m = u - k
        assert m >= 1 and len(set(masks)) == C
        assert all(P.bit_count() == k and not P >> u for P in masks)
        for q in range(u):
            drops = tuple(_without(P, q) for P in masks if P >> q & 1)
            keeps = tuple(_without(P, q) for P in masks if not P >> q & 1)
            nd = len(drops)
            if nd == C:
                continue  # the game skips q
            branches += 1
            assert len(set(drops)) == nd and len(set(keeps)) == C - nd
            assert all(P.bit_count() == k - 1 and not P >> (u - 1) for P in drops)
            assert all(P.bit_count() == k and not P >> (u - 1) for P in keeps)
            c = C - nd
            assert max(0, C - math.comb(u - 1, m)) <= c <= min(C, math.comb(u - 1, m - 1))
            # the children the induction needs were solved, so the walk covers them
            assert nd == 0 or (u - 1, tuple(sorted(drops))) in memo
            assert m == 1 or (u - 1, tuple(sorted(keeps))) in memo
    assert (len(memo), branches) == (4104, 22403)
