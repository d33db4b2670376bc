"""Integral and local quadratic form machinery.

This module is the independent oracle of the package: genus symbols are
computed directly from Gram matrices, so that the number-theoretic criteria
elsewhere can be cross-validated against it.  One Jordan splitting into 1x1
and 2x2 components serves every prime: over Q it gives the signature, at
odd p it is read through one diagonal, and at 2 it gives the canonical
2-adic symbol.

Conventions fixed project-wide:
  * The 2-adic symbol per scale is (scale, dim, sign, type, oddity) with
    sign +1 iff the block determinant is +-1 mod 8, type I when the block
    represents an odd number (has an odd diagonal entry), oddity the trace
    of an odd diagonalization mod 8.  Symbols are normalized by oddity
    fusion within compartments and sign walking along trains, so equality
    of normalized symbols is equivalence over Z_2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConsistencyError,
    FormRangeError,
    HypothesisError,
    LimitError,
    SingularFormError,
)
from .linalg import det_int, mat_mul, unimodular_inverse
from .padic import check_odd_prime, factorize, jacobi_symbol, square_class, val_unit


class GramMatrix:
    """Symmetric nondegenerate integer matrix."""

    __slots__ = ("entries", "n", "_det")

    def __init__(self, entries):
        rows = [tuple(int(x) for x in row) for row in entries]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise SingularFormError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise SingularFormError("Gram matrix must be symmetric")
        self.entries = tuple(rows)
        self.n = n
        self._det = None

    @property
    def det(self) -> int:
        if self._det is None:
            self._det = det_int(self.entries)
            if self._det == 0:
                raise SingularFormError("Gram matrix is singular")
        return self._det

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"GramMatrix({[list(r) for r in self.entries]})"


def _jordan_split(gram: GramMatrix, p: int | None = None):
    """Jordan splitting over Z_p, or over Q when p is None.

    Returns (scale, component) pairs in elimination order; a component is
    a Fraction (a 1x1 block) or the entries (e00, e01, e11) of a 2x2 block,
    not divided by p^scale.  Each step scans the active entries for the
    least p-adic valuation, every nonzero entry counting as valuation 0
    when p is None.  A diagonal entry of that valuation splits off as a 1x1
    component; otherwise the 2x2 block on the first off-diagonal pair
    (k < l) of that valuation does.  The block's diagonal entries then have
    larger valuation than e01, so its determinant has valuation twice the
    scale, and every congruence step has p-integral coefficients: the split
    is exact over Z_p.
    """
    gram.det  # raises on singular input
    a = [[Fraction(x) for x in row] for row in gram.entries]
    active = list(range(gram.n))
    comps = []
    while active:
        vals = {(k, l): 0 if p is None else val_unit(a[k][l], p)[0]
                for k in active for l in active if a[k][l] != 0}
        best = min(vals.values())
        i = next((k for k in active if vals.get((k, k)) == best), None)
        if i is not None:
            pivot = a[i][i]
            for k in active:
                if k != i and a[k][i] != 0:
                    factor = a[k][i] / pivot
                    for c in active:
                        a[k][c] -= factor * a[i][c]
            active.remove(i)
            comps.append((best, pivot))
            continue
        i, j = next((k, l) for k in active for l in active
                    if k < l and vals.get((k, l)) == best)
        m00, m01, m11 = a[i][i], a[i][j], a[j][j]
        det = m00 * m11 - m01 * m01
        for k in active:
            ci, cj = a[k][i], a[k][j]
            if k in (i, j) or (ci == 0 and cj == 0):
                continue
            # coefficients of rows i, j cancelling row k's (i, j) entries
            x = (ci * m11 - cj * m01) / det
            y = (cj * m00 - ci * m01) / det
            for c in active:
                a[k][c] -= x * a[i][c] + y * a[j][c]
        active.remove(i)
        active.remove(j)
        comps.append((best, (m00, m01, m11)))
    return comps


def _diagonal(comps) -> list[Fraction]:
    """Diagonal entries of a Jordan splitting over Q or at odd p.

    A 2x2 block (e00, e01, e11) reads as <t, det/t> with t = e00 + 2 e01 +
    e11, its value at the sum of its basis vectors.  There t is nonzero and
    of the block's scale: over Q the block has e00 = e11 = 0, and at odd p
    both have larger valuation than 2 e01.
    """
    out = []
    for _, comp in comps:
        if isinstance(comp, tuple):
            e00, e01, e11 = comp
            t = e00 + 2 * e01 + e11
            out += (t, (e00 * e11 - e01 * e01) / t)
        else:
            out.append(comp)
    return out


def signature(gram: GramMatrix) -> tuple[int, int]:
    """Exact (positive, negative) inertia counts, from the diagonal of the
    splitting over Q."""
    diag = _diagonal(_jordan_split(gram))
    pos = sum(1 for d in diag if d > 0)
    return pos, len(diag) - pos


def _scale_symbol(entries, p: int):
    """Per-scale (scale, dim, eps) of diagonal entries at odd p, where eps
    is the Legendre symbol of the product of the scale's units."""
    dims: dict[int, int] = {}
    residues: dict[int, int] = {}
    for e in entries:
        v, u = val_unit(e, p)
        dims[v] = dims.get(v, 0) + 1
        # num/den and num*den differ by the square den^2
        residues[v] = residues.get(v, 1) * u.numerator * u.denominator % p
    return tuple((v, dims[v], jacobi_symbol(residues[v], p)) for v in sorted(dims))


# ---------------------------------------------------------------------------
# 2-adic machinery


def _absorb_even_block(u: Fraction, block):
    """<u> + even 2x2 over Z_2 -> three odd units (u odd).

    Constructive: couple the odd entry into the block, then pivot in an
    order that is guaranteed to keep odd pivots available.
    """
    e00, e01, e11 = block
    t = e00 + u  # odd
    m11 = u * e00 / t
    m13 = -u * e01 / t  # odd
    m33 = e11 - e01 * e01 / t  # odd
    third = m11 - m13 * m13 / m33  # odd
    return [t, m33, third]


def _two_adic_symbol(gram: GramMatrix):
    """Raw 2-adic symbol: sorted list of [scale, dim, sign, type, oddity]."""
    by_scale: dict[int, dict] = {}
    for scale, comp in _jordan_split(gram, 2):
        slot = by_scale.setdefault(scale, {"odd": [], "even": []})
        two_k = 2**scale
        if isinstance(comp, tuple):
            slot["even"].append(tuple(e / two_k for e in comp))
        else:
            slot["odd"].append(comp / two_k)
    symbol = []
    for scale in sorted(by_scale):
        odd = by_scale[scale]["odd"]
        even = by_scale[scale]["even"]
        while odd and even:
            u = odd.pop()
            odd.extend(_absorb_even_block(u, even.pop()))
        if even:
            dim = 2 * len(even)
            det = Fraction(1)
            for e00, e01, e11 in even:
                det *= e00 * e11 - e01 * e01
            sign = 1 if square_class(det, 2) in (1, 7) else -1
            symbol.append([scale, dim, sign, 0, 0])
        else:
            det = Fraction(1)
            oddity = 0
            for u in odd:
                det *= u
                oddity += square_class(u, 2)
            sign = 1 if square_class(det, 2) in (1, 7) else -1
            symbol.append([scale, len(odd), sign, 1, oddity % 8])
    return symbol


def _compartments(symbol):
    comps = []
    cur = []
    for idx, q in enumerate(symbol):
        if q[3] == 1:
            if cur and symbol[cur[-1]][0] + 1 == q[0]:
                cur.append(idx)
            else:
                if cur:
                    comps.append(cur)
                cur = [idx]
        else:
            if cur:
                comps.append(cur)
            cur = []
    if cur:
        comps.append(cur)
    return comps


def _trains(symbol):
    trains = []
    cur = [0]
    for idx in range(1, len(symbol)):
        prev, q = symbol[idx - 1], symbol[idx]
        gap = q[0] - prev[0]
        linked = (gap == 1 and (prev[3] == 1 or q[3] == 1)) or (
            gap == 2 and prev[3] == 1 and q[3] == 1
        )
        if linked:
            cur.append(idx)
        else:
            trains.append(cur)
            cur = [idx]
    trains.append(cur)
    return trains


def canonical_two_adic_symbol(gram: GramMatrix):
    """Canonical 2-adic symbol: equality decides Z_2-equivalence.

    A list of (scale, dim, sign, type, oddity) tuples, one per Jordan
    scale, with type 1 for an odd block and 0 for an even one.  Oddity
    fusion concentrates each compartment's oddity on its leader;
    sign walking moves minus signs to the front of each train, adding 4 to
    the oddity of every compartment touching either end of each step.
    """
    symbol = _two_adic_symbol(gram)
    comps = _compartments(symbol)
    for comp in comps:
        total = sum(symbol[i][4] for i in comp) % 8
        for i in comp:
            symbol[i][4] = 0
        symbol[comp[0]][4] = total
    for train in _trains(symbol):
        for pos in range(len(train) - 1, 0, -1):
            idx = train[pos]
            if symbol[idx][2] == -1:
                symbol[idx][2] = 1
                prev = train[pos - 1]
                symbol[prev][2] = -symbol[prev][2]
                for comp in comps:
                    if idx in comp or prev in comp:
                        symbol[comp[0]][4] = (symbol[comp[0]][4] + 4) % 8
    return [tuple(q) for q in symbol]


# ---------------------------------------------------------------------------
# genus symbols


@dataclass(frozen=True)
class GenusSymbol:
    """Signature plus canonical local data at every prime dividing 2*det."""

    dim: int
    det: int
    signature: tuple[int, int]
    locals: tuple  # sorted tuple of (p, local symbol tuple)

    def as_dict(self):
        return {
            "dim": self.dim,
            "det": self.det,
            "signature": list(self.signature),
            "locals": {
                str(p): [list(entry) for entry in sym] for p, sym in self.locals
            },
        }


def local_symbol_odd(gram: GramMatrix, p: int):
    """(scale, dim, eps) per Jordan scale at odd p; eps is the det Legendre sign."""
    check_odd_prime(p)
    return _scale_symbol(_diagonal(_jordan_split(gram, p)), p)


def diagonal_local_symbol_odd(entries, p: int):
    """Per-scale (scale, dim, eps) of the diagonal form <entries> at odd p;
    the entries are any nonzero rationals."""
    check_odd_prime(p)
    return _scale_symbol(entries, p)


def genus_symbol(gram: GramMatrix) -> GenusSymbol:
    """Complete genus invariant: equal symbols iff equivalent over R and
    every Z_p."""
    return _genus_symbol(gram, signature(gram))


def _genus_symbol(gram: GramMatrix, sig: tuple[int, int]) -> GenusSymbol:
    d = gram.det
    locs = [(2, tuple(canonical_two_adic_symbol(gram)))]
    for p in factorize(d):
        if p != 2:
            locs.append((p, local_symbol_odd(gram, p)))
    locs.sort()
    return GenusSymbol(dim=gram.n, det=d, signature=sig, locals=tuple(locs))


def genus_equal(g1: GramMatrix, g2: GramMatrix) -> bool:
    if g1.n != g2.n or g1.det != g2.det:
        return False
    sig1, sig2 = signature(g1), signature(g2)
    if sig1 != sig2:
        return False
    return _genus_symbol(g1, sig1) == _genus_symbol(g2, sig2)


# ---------------------------------------------------------------------------
# isometry witnesses


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b != 0, halves to even, in integers."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def reduce_gram(gram: GramMatrix):
    """Greedy size reduction by integer congruences.

    Returns (reduced GramMatrix, U) with U^T * gram * U = reduced and
    det(U) = +-1.  Works for indefinite forms; it only ever accepts moves
    that shrink the sum of squared entries, so it terminates.  The move
    row i += t * row j, column i += t * column j changes only row and
    column i, so each trial is scored from the change to those entries.
    """
    n = gram.n
    a = [list(r) for r in gram.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                candidates = {-1, 1, -2, 2}
                if a[j][j] != 0:
                    candidates.add(-_round_div(a[i][j], a[j][j]))
                ai, aj = a[i], a[j]
                for t in sorted(candidates):
                    if t == 0:
                        continue
                    # off-diagonal entries of row i count twice in the sum
                    gain = 2 * sum((ai[c] + t * aj[c]) ** 2 - ai[c] ** 2
                                   for c in range(n) if c != i)
                    ii = ai[i] + 2 * t * ai[j] + t * t * aj[j]
                    if gain + ii * ii - ai[i] * ai[i] < 0:
                        for c in range(n):
                            if c != i:
                                ai[c] += t * aj[c]
                                a[c][i] = ai[c]
                        ai[i] = ii
                        for c in range(n):
                            u[i][c] += t * u[j][c]
                        improved = True
                        break
    # rows of u hold the change of basis; columns are what congruence needs
    return GramMatrix(a), [list(col) for col in zip(*u)]


def _congruent(u, g: GramMatrix, h: GramMatrix) -> bool:
    """Exact test of U^T G U == H."""
    n, a = g.n, g.entries
    return all(
        sum(u[k][i] * a[k][l] * u[l][j] for k in range(n) for l in range(n))
        == h.entries[i][j]
        for i in range(n)
        for j in range(n)
    )


class _MeetInTheMiddle:
    """Resumable witness walk via a common small congruence image of two forms.

    A walk state is a whole class {S^T A S} of Gram matrices modulo the
    signed permutation matrices S (2^n n! of them; -I acts trivially),
    stored as its canonical representative (see `canonical`).  Both forms
    walk cheapest-first through the classes reached by the elementary
    congruence moves (i, j, t), i != j and t in (-1, 1), listed in that
    order: row i += t * row j, then column i += t * column j, each child
    canonicalised.  The walks strictly alternate sides and stop at the
    first class reached from both, which composes to a witness.
    `advance(budget)` expands classes until `budget` pops per side in total
    and returns the witness or None.  The walk keeps its heaps and `seen`
    maps between calls, so advancing to budget b1 and then b2 pops exactly
    the states that one walk to b2 pops and returns the same result.

    This loop dominates the hard-pair search cost, so each state is one
    int.  A state's entries x_0..x_{m-1} (m = n(n+1)/2) are its diagonal,
    then its off-diagonal upper triangle row by row, and its score is the
    full matrix's sum of squares, the same for every member of the class;
    its key is score * 2^(mW) + sum (x_i + 2^(W-1)) * 2^(W(m-1-i)).  While
    score < 2^(2W-2) every |x_i| < 2^(W-1), so int order on keys is the
    order on (score, x): heaps of keys pop states cheapest first with a
    fixed tie order.  W is picked from the start scores; when a child's
    score reaches 2^(2W-2), W doubles and every key in both heaps and both
    `seen` maps is re-encoded, a monotone map, so the heaps stay heaps and
    the walk is unchanged.

    A move changes only row and column i: a_ic += t a_jc for c != i and
    a_ii += 2t a_ij + a_jj, so a child's score is its parent's plus the
    changes to those 2n - 1 entries, and the moves (i, j, -1) and (i, j, 1)
    share the sums over row i that give them.  `seen` maps a key to one
    small int naming the move that first reached it (or the start) and the
    signed permutation S that took the moved matrix to the canonical one;
    the ints come from per-S tables, so states share them.  The child that
    undoes the move into a class canonicalises to that class, already seen.
    At the collision both sides are walked back to their starts, undoing S
    and then the move at each step: U_X = S_0 M_1 S_1 ... M_l S_l carries
    side X's start to the collision state, and U_A * U_B^-1 is the witness.
    """

    # bits of W above the least width that fits the start scores
    WIDTH_SLACK = 4

    def __init__(self, g1: GramMatrix, g2: GramMatrix):
        n = g1.n
        tri = [(r, r) for r in range(n)]
        tri += [(r, c) for r in range(n) for c in range(r + 1, n)]
        self.pos = pos = {}
        for k, (r, c) in enumerate(tri):
            pos[r, c] = pos[c, r] = k
        self.n, self.m, self.tri = n, len(tri), tri
        # the full matrix counts each off-diagonal entry twice
        self.mult = [1 if r == c else 2 for r, c in tri]
        self.moves = [
            (i, j, t)
            for i in range(n)
            for j in range(n)
            if i != j
            for t in (-1, 1)
        ]
        self.steps = [
            (t, [(pos[i, c], pos[j, c]) for c in range(n) if c != i],
             pos[i, i], pos[i, j], pos[j, j])
            for i, j, t in self.moves
        ]
        # moves (i, j, -1) and (i, j, 1) are k and k + 1 for even k and
        # share their sums over row i
        self.pairs = [(k, *self.steps[k][1:]) for k in range(0, len(self.moves), 2)]
        # canonical() reads a permuted state through gathers[perm] and
        # negates the entries flips[signs]; codes and signed list the signed
        # permutations met so far
        self.gathers, self.flips = {}, {}
        self.codes, self.signed = {}, []
        startA, spA = self.canonical([g1.entries[r][c] for r, c in tri])
        startB, spB = self.canonical([g2.entries[r][c] for r, c in tri])
        top = max(self.score(startA), self.score(startB))
        self.weights, self.shifts = [0] * self.m, [0] * self.m
        self.set_width((top.bit_length() + 3) // 2 + self.WIDTH_SLACK)
        keyA, keyB = self.encode(startA), self.encode(startB)
        start = len(self.moves)
        self.seen = ({keyA: self.code(spA)[start]}, {keyB: self.code(spB)[start]})
        self.heaps = ([keyA], [keyB])
        self.collision = keyA if keyA in self.seen[1] else None
        self.pops = 0

    def canonical(self, state):
        """The least (diagonal, off-diagonal) state of the class of `state`,
        and the signed permutation (perm, signs) that gives it.

        The least diagonal is the sorted one, so only the permutations that
        sort it are tried: one when the diagonal entries are distinct.  For
        each, signs are chosen greedily in key order, each off-diagonal
        entry whose sign is still free made <= 0: with S e_r = signs[r] *
        e_perm[r] the entry (r, c) is signs[r] * signs[c] * a_perm[r]perm[c].
        Signs of the least index of each component of the graph of nonzero
        entries are +1, and among permutations giving the same state the
        lexicographically least is kept, so the result is a function of the
        state.
        """
        n = self.n
        diag = state[:n]
        perm = tuple(sorted(range(n), key=diag.__getitem__))
        if len(set(diag)) == n:
            perms = (perm,)
        else:
            runs = [list(g) for _, g in itertools.groupby(perm, diag.__getitem__)]
            perms = [sum(p, ()) for p in
                     itertools.product(*(itertools.permutations(r) for r in runs))]
        gathers, flips = self.gathers, self.flips
        best = None
        for p in perms:
            gather = gathers.get(p)
            if gather is None:
                gather = gathers[p] = [self.pos[p[r], p[c]] for r, c in self.tri]
            x = [state[q] for q in gather]
            row0 = x[n:2 * n - 1]
            if all(row0):
                signs = (1, *[-1 if a > 0 else 1 for a in row0])
            else:
                signs = self._greedy_signs(x)
            # the off-diagonal entries the signs negate
            flip = flips.get(signs)
            if flip is None:
                flip = flips[signs] = [k for k, (r, c) in enumerate(self.tri)
                                       if signs[r] != signs[c]]
            for k in flip:
                x[k] = -x[k]
            if best is None or x < best:
                best, sp = x, (p, signs)
        return tuple(best), sp

    def _greedy_signs(self, x):
        """Signs for `canonical` by a parity union-find over the indices."""
        n = self.n
        signs, comp = [1] * n, list(range(n))
        for k in range(n, self.m):
            r, c = self.tri[k]
            a, cr, cc = x[k], comp[r], comp[c]
            if a == 0 or cr == cc:
                continue
            # merge into the component of the lesser least index, flipping
            # the other so that this entry becomes negative
            lo, hi = (cr, cc) if cr < cc else (cc, cr)
            flip = signs[r] * signs[c] * a > 0
            for v in range(n):
                if comp[v] == hi:
                    comp[v] = lo
                    if flip:
                        signs[v] = -signs[v]
        return tuple(signs)

    def code(self, sp):
        """The `seen` values for the signed permutation sp, one per move
        and a last one for a start."""
        row = self.codes.get(sp)
        if row is None:
            base = len(self.signed) * (len(self.moves) + 1)
            self.signed.append(sp)
            row = self.codes[sp] = [base + k for k in range(len(self.moves) + 1)]
        return row

    def score(self, state) -> int:
        return sum(w * x * x for w, x in zip(self.mult, state))

    def set_width(self, width: int):
        """Use W = width; `weights` and `shifts` are updated in place."""
        self.width, m = width, self.m
        self.half = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.cap = 1 << (2 * width - 2)
        self.score_shift = m * width
        for i in range(m):
            self.shifts[i] = width * (m - 1 - i)
            self.weights[i] = 1 << self.shifts[i]
        # the encoded digit sum of the all-zero state
        self.offset = self.half * sum(self.weights)

    def encode(self, state) -> int:
        key = (self.score(state) << self.score_shift) + self.offset
        return key + sum(x * w for x, w in zip(state, self.weights))

    def decode(self, key):
        mask, half = self.mask, self.half
        return [((key >> shift) & mask) - half for shift in self.shifts]

    def widen(self):
        """Double W and re-encode every key, keeping every container."""
        old = [([self.decode(k) for k in heap], [(self.decode(k), v) for k, v in seen.items()])
               for heap, seen in zip(self.heaps, self.seen)]
        self.set_width(2 * self.width)
        for heap, seen, (hstates, sstates) in zip(self.heaps, self.seen, old):
            heap[:] = [self.encode(x) for x in hstates]
            seen.clear()
            seen.update((self.encode(x), v) for x, v in sstates)

    def walk_back(self, seen, key):
        """The start's signed permutation and the (move, signed permutation)
        steps from the start to `key`, last first."""
        path, start, pos = [], len(self.moves), self.pos
        while True:
            index, k = divmod(seen[key], start + 1)
            perm, signs = sp = self.signed[index]
            if k == start:
                return sp, path
            path.append((k, sp))
            # undo S: a_perm[r]perm[c] = signs[r] * signs[c] * x_rc
            state = self.decode(key)
            raw = [0] * self.m
            for x, (r, c) in zip(state, self.tri):
                raw[pos[perm[r], perm[c]]] = signs[r] * signs[c] * x
            # then undo the move
            t, row, ii, ij, jj = self.steps[k ^ 1]
            new = list(raw)
            for d, s in row:
                new[d] += t * raw[s]
            new[ii] += 2 * t * raw[ij] + raw[jj]
            key = self.encode(new)

    def advance(self, budget: int):
        """Continue to `budget` pops per side; the witness or None."""
        from heapq import heappop, heappush
        from operator import mul

        seenA, seenB = self.seen
        heapA, heapB = self.heaps
        sides = ((seenA, heapA, seenB), (seenB, heapB, seenA))
        pairs, weight, shifts = self.pairs, self.weights, self.shifts
        canonical, code = self.canonical, self.code
        half, mask, offset = self.half, self.mask, self.offset
        cap, score_shift = self.cap, self.score_shift
        collision, pops = self.collision, self.pops
        while collision is None and pops < budget and (heapA or heapB):
            pops += 1
            for seen, heap, other in sides:
                if collision is not None or not heap:
                    continue
                key = heappop(heap)
                score = key >> score_shift
                x = [((key >> shift) & mask) - half for shift in shifts]
                for k, row, ii, ij, jj in pairs:
                    # the child has x_d + t x_s on row i and x_ii + dx on the
                    # diagonal, so its score gains 2(2t sum x_d x_s +
                    # sum x_s^2) + dx (2 x_ii + dx), with t = +-1
                    cross = square = 0
                    for d, s in row:
                        xs = x[s]
                        cross += x[d] * xs
                        square += xs * xs
                    cross, square = 4 * cross, 2 * square
                    xij, xjj, xii = 2 * x[ij], x[jj], 2 * x[ii]
                    for t in (-1, 1):
                        dx = t * xij + xjj
                        child_score = score + t * cross + square + dx * (xii + dx)
                        y = x[:]
                        for d, s in row:
                            y[d] += t * x[s]
                        y[ii] += dx
                        state, sp = canonical(y)
                        if child_score >= cap:
                            # weights change in place
                            while child_score >= self.cap:
                                self.widen()
                            half, mask, offset = self.half, self.mask, self.offset
                            cap, score_shift = self.cap, self.score_shift
                        child = (child_score << score_shift) + offset + sum(map(mul, state, weight))
                        if child in seen:
                            continue
                        seen[child] = code(sp)[k + (t > 0)]
                        heappush(heap, child)
                        if child in other:
                            collision = child
                            break
                    if collision is not None:
                        break
        self.collision, self.pops = collision, pops
        if collision is None:
            return None
        n = self.n
        u = [[int(r == c) for c in range(n)] for r in range(n)]

        def move(k):
            i, j, t = self.moves[k]
            for row in u:
                row[i] += t * row[j]

        def times(sp):
            # column r of u S is signs[r] times column perm[r] of u
            perm, signs = sp
            u[:] = [[s * row[p] for p, s in zip(perm, signs)] for row in u]

        def inverse(sp):
            # S^-1 = S^T sends e_perm[r] to signs[r] * e_r
            perm, signs = sp
            inv_perm, inv_signs = [0] * n, [0] * n
            for r, (p, s) in enumerate(zip(perm, signs)):
                inv_perm[p], inv_signs[p] = r, s
            return inv_perm, inv_signs

        startA, pathA = self.walk_back(seenA, collision)
        startB, pathB = self.walk_back(seenB, collision)
        times(startA)
        for k, sp in reversed(pathA):
            move(k)
            times(sp)
        for k, sp in pathB:
            times(inverse(sp))
            move(k ^ 1)
        times(inverse(startB))
        return u


# the walk states one side may store: 2000 * 84 pops times 12 children, the
# largest budget at n = 3
WALK_STATES_CAP = 2_016_000


def isometry_witness_search(g1: GramMatrix, g2: GramMatrix, bound: int):
    """Search for U with U^T G1 U = G2 and det(U) = +-1, or return None.

    Forms of different genus are not isometric, so `genus_equal`
    (dimension, determinant and signature first) screens them out before
    any reduction or search.  Otherwise both forms are size-reduced and one
    meet-in-the-middle walk over classes modulo signed permutations runs
    with a budget of 2000 * bound pops per side.  The walk is resumable, so
    this equals the first witness found by searching at each bound 1, 2,
    ..., bound in turn.  Every returned witness is mapped back to the
    original bases and re-verified exactly; None never certifies
    non-isometry.  A bound whose walk could store more than
    `WALK_STATES_CAP` states per side raises LimitError before any search.
    """
    if g1.n != g2.n:
        raise HypothesisError("witness search needs equal dimensions")
    if bound < 1:
        raise FormRangeError("bound must be positive")
    # each pop stores at most 2n(n-1) children per side
    if 2000 * bound * 2 * g1.n * (g1.n - 1) > WALK_STATES_CAP:
        raise LimitError("witness search space too large")
    if not genus_equal(g1, g2):
        return None
    red1, u1 = reduce_gram(g1)
    red2, u2 = reduce_gram(g2)
    inner = _MeetInTheMiddle(red1, red2).advance(2000 * bound)
    if inner is None:
        return None
    u = mat_mul(mat_mul(u1, inner), unimodular_inverse(u2))
    if not _congruent(u, g1, g2) or abs(det_int(u)) != 1:
        raise ConsistencyError("witness search returned a non-isometry")
    return u


def pairwise_witnesses(grams, bound: int):
    """Witnesses for every pair in a family of forms expected isometric.

    Returns {(i, j): U or None} for i < j.  Found witnesses are composed
    transitively (and inverted) before any direct search runs, so a
    spanning tree of direct hits covers the whole family; every returned
    matrix is re-verified exactly.  A direct search is one
    `isometry_witness_search` at `bound`: the genus screen, then the walk
    over classes modulo signed permutations to 2000 * bound pops per side.
    """
    from collections import deque

    k = len(grams)
    known: dict = {}

    def compose(i, j):
        prev = {i: None}
        queue = deque([i])
        while queue and j not in prev:
            x = queue.popleft()
            for (a, b), u in known.items():
                for src, dst in ((a, b), (b, a)):
                    if src == x and dst not in prev:
                        prev[dst] = (x, (a, b))
                        queue.append(dst)
        if j not in prev:
            return None
        path = []
        node = j
        while prev[node] is not None:
            x, edge = prev[node]
            path.append((x, node, edge))
            node = x
        path.reverse()
        n = grams[i].n
        u = [[int(r == c) for c in range(n)] for r in range(n)]
        for x, y, edge in path:
            w = known[edge]
            if (x, y) != edge:
                w = unimodular_inverse(w)
            u = mat_mul(u, w)
        if _congruent(u, grams[i], grams[j]) and abs(det_int(u)) == 1:
            return u
        return None

    out = {}
    for i in range(k):
        for j in range(i + 1, k):
            u = compose(i, j)
            if u is None:
                u = isometry_witness_search(grams[i], grams[j], bound)
            if u is not None:
                known[(i, j)] = u
            out[(i, j)] = u
    return out
