import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from _optimized import run_optimized
from traceforms.cli import ingest
from traceforms.errors import HypothesisError, SingularFormError
from traceforms.linalg import det_int, mat_mul, transpose
from traceforms.numberfield import field_from_record, trace_gram
from traceforms.padic import (
    check_spot,
    factorize,
    hilbert_symbol,
    least_nonresidue,
    legendre_symbol,
    square_class,
    val_unit,
)
from traceforms.quadform import (
    DiagonalForm,
    GramMatrix,
    canonical_two_adic_symbol,
    diagonal_local_symbol_odd,
    diagonalize_local,
    genus_equal,
    genus_symbol,
    hasse_witt,
    _MeetInTheMiddle,
    _meet_in_the_middle,
    _witness_search,
    isometry_witness_search,
    local_symbol_odd,
    model_equivalent,
    model_form,
    rational_diagonal,
    reduce_gram,
    signature,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")


def hasse_witt_gram(gram, p):
    """Hasse-Witt invariant of a Gram matrix through its rational diagonal:
    the reference that local diagonalization must preserve."""
    return hasse_witt(DiagonalForm(tuple(rational_diagonal(gram))), p)


def qp_equivalent(f1, f2, p):
    """Equivalence over Q_p (p = -1 meaning R): dim, det class, Hasse."""
    check_spot(p)
    if f1.dim != f2.dim:
        return False
    d1 = Fraction(1)
    for e in f1.entries:
        d1 *= e
    d2 = Fraction(1)
    for e in f2.entries:
        d2 *= e
    if p == -1:
        neg1 = sum(1 for e in f1.entries if e < 0)
        neg2 = sum(1 for e in f2.entries if e < 0)
        return neg1 == neg2
    v1, u1 = val_unit(d1, p)
    v2, u2 = val_unit(d2, p)
    if (v1 - v2) % 2 != 0 or square_class(u1, p) != square_class(u2, p):
        return False
    return hasse_witt(f1, p) == hasse_witt(f2, p)


def diag_gram(*entries):
    n = len(entries)
    return GramMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_gram(rng, n, span=6):
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-span, span)
        if det_int(m) != 0:
            return GramMatrix(m)


def random_unimodular(rng, n, steps=8):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                u[i][col] += c * u[j][col]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def transformed(gram, u):
    return GramMatrix(mat_mul(transpose(u), mat_mul([list(r) for r in gram.entries], u)))


def representation_counts(gram, k):
    m = 2**k
    n = gram.n
    counts = [0] * m
    a = gram.entries
    for v in itertools.product(range(m), repeat=n):
        q = sum(a[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) % m
        counts[q] += 1
    return counts


def test_gram_validation():
    with pytest.raises(SingularFormError):
        GramMatrix([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(SingularFormError):
        GramMatrix([[1, 1], [1, 1]]).det  # singular


def test_signature_examples():
    assert signature(diag_gram(1, 1, 1, 1)) == (4, 0)
    assert signature(GramMatrix([[3, 0, 2], [0, 2, 3], [2, 3, 2]])) == (2, 1)
    assert signature(diag_gram(3, 9, -9)) == (2, 1)
    assert signature(GramMatrix([[0, 1], [1, 0]])) == (1, 1)


def test_diagonalize_local_examples():
    assert diagonalize_local(diag_gram(1, 1, 1), 5).entries == (1, 1, 1)
    form = diagonalize_local(GramMatrix([[3, 0, 2], [0, 2, 3], [2, 3, 2]]), 23)
    vals = [val_unit(e, 23)[0] for e in form.entries]
    assert sorted(vals) == [0, 0, 1]
    # hyperbolic plane at 3: <1, -1> up to squares
    form2 = diagonalize_local(GramMatrix([[0, 1], [1, 0]]), 3)
    assert diagonal_local_symbol_odd(form2, 3) == ((0, 2, legendre_symbol(-1, 3)),)


def test_diagonalize_local_preserves_det_and_hasse():
    rng = random.Random(23)
    for _ in range(120):
        p = rng.choice([3, 5, 7, 11, 23])
        n = rng.randint(1, 4)
        g = random_gram(rng, n)
        form = diagonalize_local(g, p)
        prod = 1
        for e in form.entries:
            prod *= e
        ratio = Fraction(prod, g.det)
        v, u = val_unit(ratio, p)
        assert v % 2 == 0
        assert legendre_symbol(u.numerator * u.denominator, p) == 1
        assert hasse_witt(form, p) == hasse_witt_gram(g, p)


def test_canonical_two_adic_examples():
    # (scale, dim, sign, type, oddity); with dim and oddity, the sign fixes
    # the block det mod 8.  One odd block of det 1 mod 8:
    assert canonical_two_adic_symbol(diag_gram(1, 1, 1)) == [(0, 3, 1, 1, 3)]

    # <3> + 2*hyperbolic: an odd block of det 3 mod 8, then an even
    # scale-1 block of det -1 = 7 mod 8
    g = GramMatrix([[3, 0, 0], [0, 0, 2], [0, 2, 0]])
    assert canonical_two_adic_symbol(g) == [(0, 1, -1, 1, 3), (1, 2, 1, 0, 0)]

    # <2,3> vs <1,6>: distinct canonical symbols
    assert canonical_two_adic_symbol(diag_gram(2, 3)) != canonical_two_adic_symbol(
        diag_gram(1, 6)
    )
    # and they also differ at p = 3
    assert local_symbol_odd(diag_gram(2, 3), 3) != local_symbol_odd(diag_gram(1, 6), 3)


def test_local_symbol_odd_reads_the_local_diagonal():
    rng = random.Random(53)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 11, 23])
        g = random_gram(rng, rng.randint(1, 4))
        assert local_symbol_odd(g, p) == diagonal_local_symbol_odd(
            diagonalize_local(g, p), p
        ), (g, p)


def test_local_symbols_of_the_corpus_are_pinned():
    items = []
    for rec in ingest(DATA):
        g = trace_gram(field_from_record(rec))
        odd = [[p, str(local_symbol_odd(g, p))]
               for p in sorted(factorize(g.det)) if p != 2]
        items.append([rec.label, str(canonical_two_adic_symbol(g)), odd])
    assert len(items) == 61 and sum(len(odd) for *_, odd in items) == 70
    text = json.dumps(items, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest().startswith("16a08440b91f50f1")


def test_two_adic_known_equivalences():
    # <1,2> ~ <3,6> over Z_2 (explicit U = [[1,-2],[1,1]], det 3)
    assert canonical_two_adic_symbol(diag_gram(1, 2)) == canonical_two_adic_symbol(
        diag_gram(3, 6)
    )
    # <1,1> and <5,5> share the symbol; <3,3> does not
    assert canonical_two_adic_symbol(diag_gram(1, 1)) == canonical_two_adic_symbol(
        diag_gram(5, 5)
    )
    assert canonical_two_adic_symbol(diag_gram(1, 1)) != canonical_two_adic_symbol(
        diag_gram(3, 3)
    )
    # <1,7> ~ <3,5>: same dim, sign, oddity 0
    assert canonical_two_adic_symbol(diag_gram(1, 7)) == canonical_two_adic_symbol(
        diag_gram(3, 5)
    )


def test_two_adic_invariant_under_unimodular_change():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(1, 4)
        g = random_gram(rng, n)
        u = random_unimodular(rng, n)
        g2 = transformed(g, u)
        assert canonical_two_adic_symbol(g) == canonical_two_adic_symbol(g2)
        for p in (3, 5):
            assert local_symbol_odd(g, p) == local_symbol_odd(g2, p)


def test_two_adic_symbol_equality_implies_equal_representation_counts():
    rng = random.Random(31)
    forms = [random_gram(rng, 2, span=8) for _ in range(40)]
    forms += [random_gram(rng, 3, span=5) for _ in range(25)]
    k = 4
    for g1, g2 in itertools.combinations(forms, 2):
        if g1.n != g2.n:
            continue
        if canonical_two_adic_symbol(g1) == canonical_two_adic_symbol(g2):
            assert representation_counts(g1, k) == representation_counts(g2, k), (
                g1,
                g2,
            )


def test_hasse_witt_examples():
    assert hasse_witt(DiagonalForm((1, 1, 1, 1)), 5) == 1
    for p in (3, 5, 7, 13):
        assert hasse_witt(DiagonalForm((p, p)), p) == legendre_symbol(-1, p)


def test_hasse_witt_model_closed_formula():
    # Pairwise-convention Hasse-Witt of <1..1,a> + p<1..1,b>, expanded
    # symbolically: (a,p)^(n-f) * (p,p)^C(n-f,2) * (p,b)^(n-f-1).
    rng = random.Random(37)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randint(2, 6)
        f = rng.randint(1, n - 1)
        alpha = rng.choice([-1, 1]) * rng.randint(1, 40)
        beta = rng.choice([-1, 1]) * rng.randint(1, 40)
        if alpha % p == 0 or beta % p == 0:
            continue
        form = model_form(f, n, alpha, beta, p)
        m = n - f
        expected = (
            hilbert_symbol(alpha, p, p) ** m
            * hilbert_symbol(p, p, p) ** (m * (m - 1) // 2)
            * hilbert_symbol(p, beta, p) ** (m - 1)
        )
        assert hasse_witt(form, p) == expected


def test_hasse_witt_model_comparison_identity():
    # What the equivalence criterion actually consumes: for two parameter
    # pairs with matching alpha*beta square class, the Hasse-Witt invariants
    # agree exactly when the (alpha, p)_p symbols do.
    rng = random.Random(38)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randint(2, 6)
        f = rng.randint(1, n - 1)
        u = least_nonresidue(p)
        a1, b1, a2 = (rng.choice([1, u]) for _ in range(3))
        b2 = a1 * b1 * a2
        h1 = hasse_witt(model_form(f, n, a1, b1, p), p)
        h2 = hasse_witt(model_form(f, n, a2, b2, p), p)
        assert (h1 == h2) == (
            hilbert_symbol(a1, p, p) == hilbert_symbol(a2, p, p)
        )


def test_model_form_examples():
    assert model_form(3, 3, 2, None, 5).entries == (1, 1, 2)
    assert model_form(1, 3, 1, -1, 3).entries == (1, 3, -3)
    u7 = least_nonresidue(7)
    assert u7 == 3
    assert model_form(2, 4, u7, u7, 7).entries == (1, 3, 7, 21)


def test_model_equivalent_examples():
    assert model_equivalent((2, 4, 1, 1), (2, 4, 1, 1), 5) is True
    # alpha*beta = 1 vs 6; both are squares at 5, hypothesis holds
    assert model_equivalent((2, 4, 1, 1), (2, 4, 2, 3), 5) is False
    assert model_equivalent((2, 4, 4, 1), (2, 4, 1, 4), 5) is True
    with pytest.raises(HypothesisError):
        model_equivalent((2, 4, 1, 1), (2, 4, 2, 1), 5)


def test_model_equivalent_matches_local_genus():
    # Lemma-style cross-check: equivalence of the materialized forms at p
    # (compared through local symbols and Q_p invariants) matches the
    # Hilbert-symbol criterion.
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice([3, 5, 7])
        n = rng.randint(2, 5)
        f = rng.randint(1, n)
        u = least_nonresidue(p)
        a1, b1 = rng.choice([1, u]), rng.choice([1, u])
        # enforce the det hypothesis: alpha2*beta2 = alpha1*beta1 mod squares
        a2 = rng.choice([1, u])
        if f < n:
            b2 = a1 * b1 * a2  # makes products match mod squares
            m1, m2 = (f, n, a1, b1), (f, n, a2, b2)
        else:
            if a2 != a1:
                continue
            m1, m2 = (f, n, a1, 1), (f, n, a2, 1)
        verdict = model_equivalent(m1, m2, p)
        f1 = model_form(*m1, p)
        f2 = model_form(*m2, p)
        assert (diagonal_local_symbol_odd(f1, p) == diagonal_local_symbol_odd(f2, p)) == verdict
        assert qp_equivalent(f1, f2, p) == verdict
        # materialized integer Gram matrices carry the same local symbols
        assert local_symbol_odd(f1.gram(), p) == diagonal_local_symbol_odd(f1, p)


def test_genus_symbol_and_equality():
    rng = random.Random(43)
    g = GramMatrix([[3, 0, 2], [0, 2, 3], [2, 3, 2]])
    u = random_unimodular(rng, 3)
    assert genus_equal(g, transformed(g, u))
    assert not genus_equal(diag_gram(2, 3), diag_gram(1, 6))
    assert not genus_equal(diag_gram(1, 1, 1), diag_gram(1, 1, 2))
    assert genus_equal(g, g)
    sym = genus_symbol(g)
    assert sym.det == -23 and sym.signature == (2, 1)


def test_genus_equal_is_equivalence_and_invariant():
    rng = random.Random(47)
    grams = [random_gram(rng, 3, span=4) for _ in range(12)]
    for g in grams:
        assert genus_equal(g, g)
    for g1, g2 in itertools.combinations(grams, 2):
        assert genus_equal(g1, g2) == genus_equal(g2, g1)
        u = random_unimodular(rng, 3)
        assert genus_equal(g1, transformed(g2, u)) == genus_equal(g1, g2)


def test_witness_search_examples():
    g1 = GramMatrix([[2, 1], [1, 2]])
    g2 = GramMatrix([[2, 3], [3, 6]])
    u = isometry_witness_search(g1, g2, 1)
    assert u is not None
    assert transformed(g1, u).entries == g2.entries
    assert abs(det_int(u)) == 1
    u2 = isometry_witness_search(g1, g1, 2)
    assert u2 is not None
    assert transformed(g1, u2).entries == g1.entries
    # different determinant: no witness at any bound
    assert isometry_witness_search(g1, GramMatrix([[2, 0], [0, 4]]), 3) is None


def test_witness_search_random_transforms():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 3)
        g = random_gram(rng, n, span=3)
        u = random_unimodular(rng, n, steps=4)
        g2 = transformed(g, u)
        found = isometry_witness_search(g, g2, 6)
        if found is not None:
            assert transformed(g, found).entries == g2.entries


# disc -1228: x^3 + 4x + 6 and x^3 + 6x + 182
PAIR_1228 = (GramMatrix([[3, 0, -8], [0, -8, -18], [-8, -18, 32]]),
             GramMatrix([[-53, -146, -6], [-146, -212, -134], [-6, -134, 72]]))
# disc -8972: x^3 - 16x + 44 and x^3 + 20x + 12
PAIR_8972 = (GramMatrix([[3, 0, 16], [0, 32, -66], [16, -66, 128]]),
             GramMatrix([[3, 0, -20], [0, -40, -18], [-20, -18, 200]]))


def test_meet_in_the_middle_witnesses_are_pinned():
    # the box search misses both pairs, so these come from the
    # meet-in-the-middle fallback (budgets 4000 and 16000)
    assert isometry_witness_search(*PAIR_1228, 2) == [
        [1035, 1910, 742], [224, 416, 159], [630, 1167, 449]
    ]
    assert isometry_witness_search(*PAIR_8972, 2) is None
    assert isometry_witness_search(*PAIR_8972, 8) == [
        [3971, 16544, -8138],
        [109646, 456794, -224749],
        [44441, 185145, -91093],
    ]


class TupleWalk:
    """The walk as it was before its states were packed into ints: each
    state a tuple, each heap entry a (score, state) pair.  The reference
    that `_MeetInTheMiddle` must match pop for pop."""

    def __init__(self, g1: GramMatrix, g2: GramMatrix):
        n = g1.n
        tri = [(r, c) for r in range(n) for c in range(r, n)]
        pos = {}
        for k, (r, c) in enumerate(tri):
            pos[r, c] = pos[c, r] = k
        self.n = n
        self.moves = [
            (i, j, t)
            for i in range(n)
            for j in range(n)
            if i != j
            for t in (-1, 1)
        ]
        self.steps = steps = [
            (k, t, [(pos[i, c], pos[j, c]) for c in range(n) if c != i],
             pos[i, i], pos[i, j], pos[j, j])
            for k, (i, j, t) in enumerate(self.moves)
        ]
        # the moves to try from a state reached by move m, indexed by m;
        # the last entry (index -1, a start) keeps them all
        self.children = [
            [s for s in steps if s[0] != m ^ 1] for m in range(len(steps))
        ] + [steps]
        startA = tuple(g1.entries[r][c] for r, c in tri)
        startB = tuple(g2.entries[r][c] for r, c in tri)
        self.seen = ({startA: -1}, {startB: -1})
        self.heaps = (
            [(sum(x * x for row in g1.entries for x in row), startA)],
            [(sum(x * x for row in g2.entries for x in row), startB)],
        )
        self.collision = startA if startA in self.seen[1] else None
        self.pops = 0

    def step(self, state, k):
        _, t, row, ii, ij, jj = self.steps[k]
        new = list(state)
        for d, s in row:
            new[d] += t * state[s]
        new[ii] += 2 * t * state[ij] + state[jj]
        return tuple(new)

    def walk_back(self, seen, state):
        """Indices of the moves from the start to `state`, last first."""
        path = []
        while (k := seen[state]) >= 0:
            path.append(k)
            state = self.step(state, k ^ 1)
        return path

    def advance(self, budget: int):
        """Continue to `budget` pops per side; the witness or None."""
        from heapq import heappop, heappush

        seenA, seenB = self.seen
        heapA, heapB = self.heaps
        sides = ((seenA, heapA, seenB), (seenB, heapB, seenA))
        children = self.children
        collision, pops = self.collision, self.pops
        while collision is None and pops < budget and (heapA or heapB):
            pops += 1
            for seen, heap, other in sides:
                if collision is not None or not heap:
                    continue
                score, state = heappop(heap)
                # step(state, k) inlined, updating the score by the change
                # in the entries it touches
                for k, t, row, ii, ij, jj in children[seen[state]]:
                    new = list(state)
                    gain = 0
                    for d, s in row:
                        old = state[d]
                        x = old + t * state[s]
                        new[d] = x
                        gain += x * x - old * old
                    old = state[ii]
                    x = old + 2 * t * state[ij] + state[jj]
                    new[ii] = x
                    key = tuple(new)
                    if key in seen:
                        continue
                    seen[key] = k
                    heappush(heap, (score + 2 * gain + x * x - old * old, key))
                    if key in other:
                        collision = key
                        break
        self.collision, self.pops = collision, pops
        if collision is None:
            return None
        n = self.n
        u = [[int(r == c) for c in range(n)] for r in range(n)]
        path = self.walk_back(seenA, collision)[::-1]
        path += [k ^ 1 for k in self.walk_back(seenB, collision)]
        for k in path:
            i, j, t = self.moves[k]
            for row in u:
                row[i] += t * row[j]
        return u


# (entries, column moves col_i += t col_j) for forms of dimension 2 and 4
MOVED_FORMS = [
    ([[2, 1], [1, -3]], [(0, 1, 2), (1, 0, -1), (0, 1, 1)]),
    ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, -2]],
     [(0, 1, 1), (2, 3, -1), (3, 0, 2), (1, 2, 1)]),
    ([[4, 1, 0, 1], [1, -2, 1, 0], [0, 1, 6, 1], [1, 0, 1, 2]],
     [(0, 3, 2), (3, 1, -1), (2, 0, 1)]),
]


def moved_form(entries, moves):
    n = len(entries)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, t in moves:
        for row in u:
            row[i] += t * row[j]
    g = GramMatrix(entries)
    return g, transformed(g, u)


@pytest.mark.parametrize("entries, moves", MOVED_FORMS)
def test_meet_in_the_middle_outside_dimension_three(entries, moves):
    g, h = moved_form(entries, moves)
    assert h.entries != g.entries
    for budget in (10, 1000):
        w = _meet_in_the_middle(g, h, budget)
        assert w is not None
        assert transformed(g, w).entries == h.entries
        assert abs(det_int(w)) == 1


@pytest.mark.parametrize("entries, moves", MOVED_FORMS)
def test_resumed_walk_matches_a_fresh_walk(entries, moves):
    # the first budgets fail, the later ones hit
    g, h = moved_form(entries, moves)
    walk = _MeetInTheMiddle(g, h)
    for budget in [*range(10), 1000]:
        assert walk.advance(budget) == _meet_in_the_middle(g, h, budget)


def test_resumed_walk_matches_a_fresh_walk_on_a_pinned_pair():
    # the first collision of this walk comes at pop 6227
    red1, _ = reduce_gram(PAIR_8972[0])
    red2, _ = reduce_gram(PAIR_8972[1])
    walk = _MeetInTheMiddle(red1, red2)
    assert walk.advance(4000) is None
    assert walk.advance(2000) is None
    assert walk.advance(6226) is None
    found = walk.advance(16000)
    assert found is not None
    assert found == _meet_in_the_middle(red1, red2, 16000)
    assert _meet_in_the_middle(red1, red2, 6226) is None


@pytest.mark.parametrize("pair", [PAIR_1228, PAIR_8972])
def test_bound_schedule_matches_restarting_at_each_bound(pair):
    restarted = None
    for bound in range(1, 9):
        restarted = isometry_witness_search(*pair, bound)
        if restarted is not None:
            break
    assert restarted is not None
    assert _witness_search(*pair, range(1, 9)) == restarted


@pytest.mark.parametrize("slack", [0, _MeetInTheMiddle.WIDTH_SLACK])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_packed_walk_matches_the_tuple_walk(monkeypatch, n, slack):
    # isometric pairs collide, random pairs mostly run out of budget;
    # slack 0 starts at the least width and forces re-encoding
    monkeypatch.setattr(_MeetInTheMiddle, "WIDTH_SLACK", slack)
    rng = random.Random(600 + n)
    for case in range(8):
        g = random_gram(rng, n, span=4)
        if case % 2:
            h = random_gram(rng, n, span=4)
        else:
            h = transformed(g, random_unimodular(rng, n, steps=6))
        walk, ref = _MeetInTheMiddle(g, h), TupleWalk(g, h)
        for budget in (0, 1, 2, 5, 17, 60, 200):
            assert walk.advance(budget) == ref.advance(budget), (g, h, budget)
            assert walk.pops == ref.pops


@pytest.mark.parametrize("pair", [PAIR_1228, PAIR_8972])
def test_packed_walk_widens_without_changing_the_walk(monkeypatch, pair):
    monkeypatch.setattr(_MeetInTheMiddle, "WIDTH_SLACK", 0)
    red1, _ = reduce_gram(pair[0])
    red2, _ = reduce_gram(pair[1])
    walk, ref = _MeetInTheMiddle(red1, red2), TupleWalk(red1, red2)
    start = walk.width
    for budget in (10, 2000, 4000, 6226, 16000):
        assert walk.advance(budget) == ref.advance(budget)
        assert walk.pops == ref.pops
    assert walk.collision is not None
    assert walk.width > start
    test_meet_in_the_middle_witnesses_are_pinned()


def test_witness_search_screens_out_different_signatures(monkeypatch):
    import traceforms.quadform as qf

    # trace forms of x^4 + 2 and x^4 - 4x^2 + 2: equal determinant,
    # signatures (2, 2) and (4, 0)
    g1 = GramMatrix([[4, 0, 0, 0], [0, 0, 0, -8], [0, 0, -8, 0], [0, -8, 0, 0]])
    g2 = GramMatrix([[4, 0, 8, 0], [0, 8, 0, 24], [8, 0, 24, 0], [0, 24, 0, 80]])
    assert g1.det == g2.det
    assert signature(g1) != signature(g2)

    def fail(*args):
        raise AssertionError("searched a pair the screen rules out")

    monkeypatch.setattr(qf, "_witness_search_raw", fail)
    monkeypatch.setattr(qf, "_MeetInTheMiddle", fail)
    monkeypatch.setattr(qf, "reduce_gram", fail)
    assert _witness_search(g1, g2, range(1, 9)) is None
    assert isometry_witness_search(g1, g2, 8) is None


def test_witness_verification_survives_python_O():
    # the exact re-verification must not be an assert that -O strips
    proc = run_optimized("""
import traceforms.quadform as qf
from traceforms.errors import ConsistencyError
qf._witness_search_raw = lambda g1, g2, bound: [[1, 0], [0, 1]]
g1 = qf.GramMatrix([[1, 0], [0, 6]])
g2 = qf.GramMatrix([[2, 0], [0, 3]])
try:
    print(qf.isometry_witness_search(g1, g2, 2))
except ConsistencyError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
