import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from _optimized import run_optimized
from traceforms.cli import ingest
from traceforms.errors import (
    FormRangeError,
    HypothesisError,
    LimitError,
    SingularFormError,
)
from traceforms.linalg import det_int, mat_mul, transpose, unimodular_inverse
from traceforms.numberfield import field_from_record, trace_gram
from traceforms.padic import (
    check_odd_prime,
    check_spot,
    factorize,
    hilbert_symbol,
    least_nonresidue,
    legendre_symbol,
    square_class,
    val_unit,
)
from traceforms.quadform import (
    GramMatrix,
    canonical_two_adic_symbol,
    diagonal_local_symbol_odd,
    genus_equal,
    genus_symbol,
    _MeetInTheMiddle,
    _jordan_split,
    _round_div,
    isometry_witness_search,
    local_symbol_odd,
    reduce_gram,
    signature,
)
from traceforms.raminv import model_form

DATA = os.path.join(os.path.dirname(__file__), "data", "corpus.jsonl")


# References: Hasse-Witt invariants, a canonical local diagonal form and
# the model comparison lemma, checked against the package's local symbols.


def hasse_witt(form, p):
    """Hasse-Witt invariant prod_{i<j} (a_i, a_j)_p of a diagonal form."""
    check_spot(p)
    out = 1
    for i in range(len(form)):
        for j in range(i + 1, len(form)):
            out *= hilbert_symbol(form[i], form[j], p)
    return out


def hasse_witt_gram(gram, p):
    """Hasse-Witt invariant of a Gram matrix through its rational diagonal:
    the reference that local diagonalization must preserve."""
    return hasse_witt(tuple(reference_rational_diagonal(gram)), p)


def diagonalize_local(gram, p):
    """Canonical diagonal form Z_p-equivalent to the Gram matrix, p odd:
    per Jordan scale s of `local_symbol_odd`, in increasing order,
    p^s * <1, ..., 1, d> with d = 1 when eps = +1 and d = u_p otherwise."""
    entries = []
    for scale, dim, eps in local_symbol_odd(gram, p):
        d = 1 if eps == 1 else least_nonresidue(p)
        entries += [p**scale] * (dim - 1) + [p**scale * d]
    return tuple(entries)


def model_equivalent(m1, m2, p):
    """Equivalence of two model forms (f, n, alpha, beta) at a common odd p.

    Requires equal shape and the det hypothesis alpha1*beta1 = alpha2*beta2
    mod squares; then equivalence reduces to equality of (alpha_i, p)_p.
    """
    check_odd_prime(p)
    f1, n1, a1, b1 = m1
    f2, n2, a2, b2 = m2
    if f1 != f2 or n1 != n2:
        raise HypothesisError("model forms must share f and n")
    if f1 < n1:
        prod1, prod2 = Fraction(a1) * Fraction(b1), Fraction(a2) * Fraction(b2)
    else:
        prod1, prod2 = Fraction(a1), Fraction(a2)
    if square_class(prod1, p) != square_class(prod2, p):
        raise HypothesisError(
            "determinant hypothesis fails: alpha*beta classes differ at p"
        )
    return hilbert_symbol(a1, p, p) == hilbert_symbol(a2, p, p)


def qp_equivalent(f1, f2, p):
    """Equivalence over Q_p (p = -1 meaning R): dim, det class, Hasse."""
    check_spot(p)
    if len(f1) != len(f2):
        return False
    d1 = Fraction(1)
    for e in f1:
        d1 *= e
    d2 = Fraction(1)
    for e in f2:
        d2 *= e
    if p == -1:
        neg1 = sum(1 for e in f1 if e < 0)
        neg2 = sum(1 for e in f2 if e < 0)
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
    for p in (None, 2, 3):
        with pytest.raises(SingularFormError):
            _jordan_split(GramMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 2]]), p)


def test_signature_examples():
    assert signature(diag_gram(1, 1, 1, 1)) == (4, 0)
    assert signature(GramMatrix([[3, 0, 2], [0, 2, 3], [2, 3, 2]])) == (2, 1)
    assert signature(diag_gram(3, 9, -9)) == (2, 1)
    assert signature(GramMatrix([[0, 1], [1, 0]])) == (1, 1)


def test_diagonalize_local_examples():
    assert diagonalize_local(diag_gram(1, 1, 1), 5) == (1, 1, 1)
    form = diagonalize_local(GramMatrix([[3, 0, 2], [0, 2, 3], [2, 3, 2]]), 23)
    vals = [val_unit(e, 23)[0] for e in form]
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
        for e in form:
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


def eliminate_against(a, active, i):
    """Clear row and column i of the symmetric matrix a against a[i][i]."""
    for k in active:
        if k != i and a[k][i] != 0:
            factor = a[k][i] / a[i][i]
            for c in active:
                a[k][c] -= factor * a[i][c]


def add_row_and_column(a, active, k, l):
    """Row k += row l, then column k += column l."""
    for c in active:
        a[k][c] += a[l][c]
    for r in active:
        a[r][k] += a[r][l]


def reference_rational_diagonal(gram):
    """Diagonal over Q with the first nonzero diagonal pivot, moving the
    first nonzero off-diagonal entry onto the diagonal when there is none."""
    a = [[Fraction(x) for x in row] for row in gram.entries]
    active, out = list(range(gram.n)), []
    while active:
        i = next((k for k in active if a[k][k] != 0), None)
        if i is None:
            k, l = next((k, l) for k in active for l in active
                        if k < l and a[k][l] != 0)
            add_row_and_column(a, active, k, l)
            i = k
        eliminate_against(a, active, i)
        out.append(a[i][i])
        active.remove(i)
    return out


def reference_local_diagonal(gram, p):
    """Diagonal over Z_p, p odd, pivoting on an entry of least valuation and
    moving an off-diagonal one onto the diagonal by a row and column add."""
    a = [[Fraction(x) for x in row] for row in gram.entries]
    active, out = list(range(gram.n)), []
    while active:
        vals = {(k, l): val_unit(a[k][l], p)[0]
                for k in active for l in active if a[k][l] != 0}
        best = min(vals.values())
        i = next((k for k in active if vals.get((k, k)) == best), None)
        if i is None:
            k, l = min(pos for pos, v in vals.items() if v == best and pos[0] != pos[1])
            add_row_and_column(a, active, k, l)
            i = k
        eliminate_against(a, active, i)
        out.append(a[i][i])
        active.remove(i)
    return out


def gram_with_diagonal(rng, n, diagonal):
    """A random nonsingular Gram matrix whose diagonal comes from `diagonal`."""
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = diagonal()
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        if det_int(m) != 0:
            return GramMatrix(m)


def test_jordan_split_matches_the_row_add_eliminations():
    # diagonals divisible by p, or all zero, make the split take 2x2 blocks
    rng = random.Random(61)
    blocks = {None: 0, 3: 0, 5: 0, 7: 0}
    for _ in range(60):
        for p in (3, 5, 7):
            n = rng.randint(2, 5)
            for g in (gram_with_diagonal(rng, n, lambda: p * rng.randint(-3, 3)),
                      gram_with_diagonal(rng, n, lambda: 0)):
                diag = reference_rational_diagonal(g)
                pos = sum(1 for d in diag if d > 0)
                assert signature(g) == (pos, n - pos), g
                want = diagonal_local_symbol_odd(tuple(reference_local_diagonal(g, p)), p)
                assert local_symbol_odd(g, p) == want, (g, p)
                assert diagonal_local_symbol_odd(diagonalize_local(g, p), p) == want
                for q in (None, p):
                    blocks[q] += any(isinstance(c, tuple) for _, c in _jordan_split(g, q))
    assert min(blocks.values()) > 100, blocks


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
    assert hasse_witt((1, 1, 1, 1), 5) == 1
    for p in (3, 5, 7, 13):
        assert hasse_witt((p, p), p) == legendre_symbol(-1, p)


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
    assert model_form(3, 3, 2, None, 5) == (1, 1, 2)
    assert model_form(1, 3, 1, -1, 3) == (1, 3, -3)
    u7 = least_nonresidue(7)
    assert u7 == 3
    assert model_form(2, 4, u7, u7, 7) == (1, 3, 7, 21)


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
        assert local_symbol_odd(diag_gram(*f1), p) == diagonal_local_symbol_odd(f1, p)


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


def test_witness_bound_is_checked_before_the_search():
    # the walk stores at most 2000 * bound pops times 2n(n - 1) children per
    # side, capped at 2,016,000: bound <= 16 at n = 6 (and <= 84 at n = 3);
    # the cap applies even to a pair whose walk would collide at once
    g = GramMatrix([[int(r == c) * (r + 1) for c in range(6)] for r in range(6)])
    assert isometry_witness_search(g, g, 16) is not None
    with pytest.raises(LimitError):
        isometry_witness_search(g, g, 17)
    g3 = diag_gram(1, 2, 3)
    assert isometry_witness_search(g3, g3, 84) is not None
    with pytest.raises(LimitError):
        isometry_witness_search(g3, g3, 85)
    for bound in (0, -2):
        with pytest.raises(FormRangeError):
            isometry_witness_search(g, g, bound)


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
    # walk collisions at pops 45 and 263
    pins = [
        (PAIR_1228, [[2125, 3140, 1992], [317, 467, 298], [1034, 1525, 971]]),
        (PAIR_8972, [[3971, 16544, -8138], [109646, 456794, -224749],
                     [44441, 185145, -91093]]),
    ]
    for (g1, g2), u in pins:
        assert transformed(g1, u).entries == g2.entries
        assert abs(det_int(u)) == 1
        assert isometry_witness_search(g1, g2, 1) == u
        assert isometry_witness_search(g1, g2, 8) == u


def signed_permutations(n):
    """Every (perm, signs, S) with S e_r = signs[r] * e_perm[r], permutations
    in lexicographic order, then signs with +1 before -1."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            s = [[0] * n for _ in range(n)]
            for r in range(n):
                s[perm[r]][r] = signs[r]
            yield perm, signs, s


class TupleWalk:
    """The walk over classes modulo signed permutations with each state a
    tuple and each heap entry a (score, state) pair, canonicalised by trying
    every signed permutation S and computing S^T A S.  The reference that
    `_MeetInTheMiddle` must match pop for pop."""

    def __init__(self, g1: GramMatrix, g2: GramMatrix):
        n = g1.n
        self.n = n
        self.tri = [(r, r) for r in range(n)]
        self.tri += [(r, c) for r in range(n) for c in range(r + 1, n)]
        self.signed = list(signed_permutations(n))
        self.moves = [
            (i, j, t)
            for i in range(n)
            for j in range(n)
            if i != j
            for t in (-1, 1)
        ]
        startA, sA = self.canonical(g1.entries)
        startB, sB = self.canonical(g2.entries)
        self.seen = ({startA: (None, sA)}, {startB: (None, sB)})
        self.heaps = ([(self.score(startA), startA)], [(self.score(startB), startB)])
        self.collision = startA if startA in self.seen[1] else None
        self.pops = 0

    def matrix(self, state):
        a = [[0] * self.n for _ in range(self.n)]
        for x, (r, c) in zip(state, self.tri):
            a[r][c] = a[c][r] = x
        return a

    def score(self, state):
        return sum(x * x for row in self.matrix(state) for x in row)

    def canonical(self, a):
        """The least S^T A S as a tuple (diagonal, then the upper triangle
        row by row), and the first S that gives it."""
        best = None
        for perm, signs, s in self.signed:
            # (S^T A S)_rc = signs[r] * signs[c] * a_perm[r]perm[c]
            state = tuple(signs[r] * signs[c] * a[perm[r]][perm[c]] for r, c in self.tri)
            if best is None or state < best:
                best, best_s = state, s
        return best, best_s

    def move_matrix(self, k):
        i, j, t = self.moves[k]
        m = [[int(r == c) for c in range(self.n)] for r in range(self.n)]
        m[j][i] = t
        return m

    def advance(self, budget: int):
        """Continue to `budget` pops per side; the witness or None."""
        from heapq import heappop, heappush

        seenA, seenB = self.seen
        heapA, heapB = self.heaps
        sides = ((seenA, heapA, seenB), (seenB, heapB, seenA))
        collision, pops = self.collision, self.pops
        while collision is None and pops < budget and (heapA or heapB):
            pops += 1
            for seen, heap, other in sides:
                if collision is not None or not heap:
                    continue
                _, state = heappop(heap)
                a = self.matrix(state)
                for k in range(len(self.moves)):
                    m = self.move_matrix(k)
                    child, s = self.canonical(mat_mul(transpose(m), mat_mul(a, m)))
                    if child in seen:
                        continue
                    seen[child] = (k, s)
                    heappush(heap, (self.score(child), child))
                    if child in other:
                        collision = child
                        break
        self.collision, self.pops = collision, pops
        if collision is None:
            return None
        return mat_mul(self.path_matrix(seenA, collision),
                       unimodular_inverse(self.path_matrix(seenB, collision)))

    def path_matrix(self, seen, state):
        """U with U^T (start) U = state: the start's S, then each move and
        its S, read by undoing them from `state` back to the start."""
        factors = []
        while True:
            k, s = seen[state]
            factors.append(s)
            if k is None:
                break
            factors.append(self.move_matrix(k))
            # undo S, then the move
            a = mat_mul(s, mat_mul(self.matrix(state), transpose(s)))
            m = unimodular_inverse(self.move_matrix(k))
            state = tuple(tuple(r) for r in mat_mul(transpose(m), mat_mul(a, m)))
            state = tuple(state[r][c] for r, c in self.tri)
        u = [[int(r == c) for c in range(self.n)] for r in range(self.n)]
        for f in reversed(factors):
            u = mat_mul(u, f)
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
        w = _MeetInTheMiddle(g, h).advance(budget)
        assert w is not None
        assert transformed(g, w).entries == h.entries
        assert abs(det_int(w)) == 1


@pytest.mark.parametrize("entries, moves", MOVED_FORMS)
def test_resumed_walk_matches_a_fresh_walk(entries, moves):
    # the first budgets fail, the later ones hit
    g, h = moved_form(entries, moves)
    walk = _MeetInTheMiddle(g, h)
    for budget in [*range(10), 1000]:
        assert walk.advance(budget) == _MeetInTheMiddle(g, h).advance(budget)


def test_resumed_walk_matches_a_fresh_walk_on_a_pinned_pair():
    # the first collision of this walk comes at pop 263
    red1, _ = reduce_gram(PAIR_8972[0])
    red2, _ = reduce_gram(PAIR_8972[1])
    walk = _MeetInTheMiddle(red1, red2)
    assert walk.advance(200) is None
    assert walk.advance(100) is None
    assert walk.advance(262) is None
    found = walk.advance(16000)
    assert found is not None and walk.pops == 263
    assert found == _MeetInTheMiddle(red1, red2).advance(16000)
    assert _MeetInTheMiddle(red1, red2).advance(262) is None


@pytest.mark.parametrize("pair", [PAIR_1228, PAIR_8972])
def test_first_bound_with_a_witness_matches_the_largest_bound(pair):
    # the walk is resumable, so a search at 8 returns the witness that
    # searching at 1, 2, ... returns first
    first = None
    for bound in range(1, 9):
        first = isometry_witness_search(*pair, bound)
        if first is not None:
            break
    assert first is not None
    assert isometry_witness_search(*pair, 8) == first


@pytest.mark.parametrize("slack", [0, _MeetInTheMiddle.WIDTH_SLACK])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_packed_walk_matches_the_tuple_walk(monkeypatch, n, slack):
    # isometric pairs collide, random pairs mostly run out of budget;
    # slack 0 starts at the least width and forces re-encoding.  The
    # reference tries all 384 signed permutations per state at n = 4, so
    # it walks fewer pairs there, and less far.
    monkeypatch.setattr(_MeetInTheMiddle, "WIDTH_SLACK", slack)
    rng = random.Random(600 + n)
    budgets = (0, 1, 2, 5, 17, 60) if n < 4 else (0, 1, 2, 5, 12)
    for case in range(8 if n < 4 else 4):
        g = random_gram(rng, n, span=4)
        if case % 2:
            h = random_gram(rng, n, span=4)
        else:
            h = transformed(g, random_unimodular(rng, n, steps=6))
        walk, ref = _MeetInTheMiddle(g, h), TupleWalk(g, h)
        for budget in budgets:
            assert walk.advance(budget) == ref.advance(budget), (g, h, budget)
            assert walk.pops == ref.pops


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_form_is_a_class_invariant(n):
    rng = random.Random(700 + n)
    signed = list(signed_permutations(n))
    for _ in range(40):
        # small entries give tied diagonals and zero off-diagonal entries
        a = random_gram(rng, n, span=rng.choice([1, 2, 9]))
        walk = _MeetInTheMiddle(a, a)
        state = [a.entries[r][c] for r, c in walk.tri]
        canon, (perm, signs) = walk.canonical(state)
        ref, _ = TupleWalk(a, a).canonical(a.entries)
        assert canon == ref
        # the returned signed permutation maps A to the canonical state
        s = next(s for p, g, s in signed if (p, g) == (perm, signs))
        b = transformed(a, s)
        assert tuple(b.entries[r][c] for r, c in walk.tri) == canon
        for _, _, s in rng.sample(signed, 8):
            b = transformed(a, s)
            assert walk.canonical([b.entries[r][c] for r, c in walk.tri])[0] == canon


@pytest.mark.parametrize("pair", [PAIR_1228, PAIR_8972])
def test_packed_walk_widens_without_changing_the_walk(monkeypatch, pair):
    monkeypatch.setattr(_MeetInTheMiddle, "WIDTH_SLACK", 0)
    red1, _ = reduce_gram(pair[0])
    red2, _ = reduce_gram(pair[1])
    walk, ref = _MeetInTheMiddle(red1, red2), TupleWalk(red1, red2)
    start = walk.width
    for budget in (10, 44, 200, 262, 16000):
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

    monkeypatch.setattr(qf, "_MeetInTheMiddle", fail)
    monkeypatch.setattr(qf, "reduce_gram", fail)
    assert isometry_witness_search(g1, g2, 8) is None


def test_witness_search_screens_out_different_genera(monkeypatch):
    import traceforms.quadform as qf

    # trace forms of the quartic fields with coefficients (5, -4, 3, -1, 1)
    # and (4, -3, 3, 0, 1), constant term first: disc 15529, signature
    # (2, 2) for both, different genus
    g1 = GramMatrix([[4, 1, -5, 4], [1, -5, 4, 3], [-5, 4, 3, -34], [4, 3, -34, -2]])
    g2 = GramMatrix([[4, 0, -6, 9], [0, -6, 9, 2], [-6, 9, 2, -45], [9, 2, -45, 45]])
    assert g1.det == g2.det == 15529
    assert signature(g1) == signature(g2) == (2, 2)
    assert not genus_equal(g1, g2)

    def fail(*args):
        raise AssertionError("searched a pair the screen rules out")

    monkeypatch.setattr(qf, "_MeetInTheMiddle", fail)
    monkeypatch.setattr(qf, "reduce_gram", fail)
    assert isometry_witness_search(g1, g2, 8) is None


def old_reduce_gram(gram):
    """reduce_gram as it was, with Fraction rounding and whole-matrix
    scores: the reference for the integer version."""
    n = gram.n
    a = [list(r) for r in gram.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    current = sum(x * x for row in a for x in row)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                candidates = {-1, 1, -2, 2}
                if a[j][j] != 0:
                    candidates.add(-round(Fraction(a[i][j], a[j][j])))
                for t in sorted(candidates):
                    if t == 0:
                        continue
                    b = [row[:] for row in a]
                    for c in range(n):
                        b[i][c] += t * b[j][c]
                    for r in range(n):
                        b[r][i] += t * b[r][j]
                    score = sum(x * x for row in b for x in row)
                    if score < current:
                        a = b
                        current = score
                        for c in range(n):
                            u[i][c] += t * u[j][c]
                        improved = True
                        break
    return GramMatrix(a), [list(col) for col in zip(*u)]


def test_reduce_gram_matches_the_fraction_version():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 5)
        g = random_gram(rng, n, span=rng.choice([3, 40]))
        if rng.random() < 0.5:
            g = transformed(g, random_unimodular(rng, n, steps=12))
        reduced, u = reduce_gram(g)
        assert (reduced, u) == old_reduce_gram(g)
        assert transformed(g, u) == reduced
    # the integer rounding takes halves to even, as round(Fraction) does
    for a in range(-12, 13):
        for b in [*range(-6, 0), *range(1, 7)]:
            assert _round_div(a, b) == round(Fraction(a, b)), (a, b)


def test_witness_verification_survives_python_O():
    # the exact re-verification must not be an assert that -O strips
    proc = run_optimized("""
import traceforms.quadform as qf
from traceforms.errors import ConsistencyError
# a walk that claims the identity carries the reduced forms to each other
qf._MeetInTheMiddle.advance = lambda self, budget: [[1, 0], [0, 1]]
g1 = qf.GramMatrix([[2, 1], [1, 2]])
g2 = qf.GramMatrix([[2, 3], [3, 6]])
try:
    print(qf.isometry_witness_search(g1, g2, 2))
except ConsistencyError:
    raise SystemExit(0)
raise SystemExit(1)
""")
    assert proc.returncode == 0, proc.stdout + proc.stderr
