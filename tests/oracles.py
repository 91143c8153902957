"""Independent reference computations for the test suite.

Nothing here imports from the package but VarId (tests/test_source.py
enforces it): solutions are recomputed by grade-school column arithmetic
over candidate factor bits, factor pairs by trial division, polynomials
by the arithmetic below on plain {frozenset of variables: coefficient}
dicts, evolutions by scipy's matrix exponential (dense expm, or
expm_multiply on a sparse H) and low levels by scipy's sparse eigsh, so
agreement with the library is a genuine cross-check.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh, expm_multiply

from adiafact import VarId


def odd_semiprimes(limit: int) -> list[int]:
    """All products of exactly two odd primes (with multiplicity) below limit."""
    primes = []
    for k in range(2, limit):
        if all(k % p for p in primes):
            primes.append(k)
    out = set()
    for i, p in enumerate(primes):
        if p == 2:
            continue
        for q in primes[i:]:
            if p * q >= limit:
                break
            out.add(p * q)
    return sorted(out)


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """Every ordered pair (p, q) of factors above 1 with p * q == n, by trial division."""
    pairs = []
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            pairs += [(p, n // p), (n // p, p)]
    return pairs


def odd_primes(lo: int, hi: int) -> list[int]:
    return [k for k in range(lo | 1, hi, 2) if k > 2 and all(k % d for d in range(3, int(k**0.5) + 1, 2))]


def candidate_factors(width: int) -> list[int]:
    """All width-bit odd integers with the top bit set."""
    base = 1 | (1 << (width - 1))
    interiors = width - 2
    return [base | (bits << 1) for bits in range(1 << interiors)]


def column_solutions(target: int, w_p: int, w_q: int) -> list[dict]:
    """Solve the multiplication table by direct column arithmetic.

    Every pair of candidate factors is pushed through grade-school column
    addition; the carry emitted by column c is decomposed into bits that
    must fit the budget floor(log2(max lhs)) truncated at the last
    column.  Accepted assignments (interior bits plus all carry bits) are
    exactly the solutions of the layout's equation system, which the
    tests exploit as ground truth.
    """
    last_col = w_p + w_q - 1
    # independent budget computation: max lhs per column, walking left to right
    n_incoming = [0] * (last_col + 1)
    budgets = []
    for c in range(last_col + 1):
        lo = max(0, c - w_q + 1)
        hi = min(w_p - 1, c)
        n_products = max(0, hi - lo + 1)
        max_lhs = n_products + n_incoming[c]
        k = max_lhs.bit_length() - 1 if max_lhs >= 1 else 0
        k = min(k, last_col - c)
        budgets.append(k)
        for m in range(1, k + 1):
            n_incoming[c + m] += 1

    solutions = []
    for p in candidate_factors(w_p):
        for q in candidate_factors(w_q):
            carries_into = [0] * (last_col + 2)
            carry_bits: dict[VarId, int] = {}
            ok = True
            for c in range(last_col + 1):
                total = carries_into[c]
                for i in range(max(0, c - w_q + 1), min(w_p - 1, c) + 1):
                    total += ((p >> i) & 1) * ((q >> (c - i)) & 1)
                n_c = (target >> c) & 1
                if (total - n_c) % 2 or total < n_c:
                    ok = False
                    break
                value = (total - n_c) // 2
                if value >= (1 << budgets[c]):
                    ok = False
                    break
                for m in range(1, budgets[c] + 1):
                    bit = (value >> (m - 1)) & 1
                    carry_bits[VarId.carry(c, c + m)] = bit
                    carries_into[c + m] += bit
            if not ok:
                continue
            assignment = dict(carry_bits)
            for i in range(1, w_p - 1):
                assignment[VarId.p(i)] = (p >> i) & 1
            for i in range(1, w_q - 1):
                assignment[VarId.q(i)] = (q >> i) & 1
            solutions.append(assignment)
    return solutions


def simplified_solutions(system) -> set:
    """Full solution set of a simplified system, as sorted (var, bit) tuples.

    Free variables are enumerated exhaustively (vectorized); a solution
    must zero every residual and respect every forbidden pair, and is
    completed with the system's fixed values so it ranges over the same
    variables as the unsimplified layout.
    """
    free = system.variables
    k = len(free)
    index = np.arange(1 << k)
    bits = {v: (index >> (k - 1 - i)) & 1 for i, v in enumerate(free)}
    keep = np.ones(1 << k, dtype=bool)
    for eq in system.equations:
        acc = np.zeros(1 << k, dtype=np.int64)
        for mono, coeff in eq.residual.items():
            term = np.ones(1 << k, dtype=np.int64)
            for var in mono:
                term = term * bits[var]
            acc += coeff * term
        keep &= acc == 0
    for pair in system.forbidden_pairs:
        x, y = sorted(pair)
        keep &= (bits[x] & bits[y]) == 0
    out = set()
    for i in np.flatnonzero(keep):
        solution = dict(system.fixed)
        for v in free:
            solution[v] = int(bits[v][i])
        out.add(tuple(sorted(solution.items())))
    return out


def poly_terms(poly) -> dict:
    """A polynomial as {frozenset of variables: nonzero coefficient}.

    poly is anything whose items() yields (variables, coefficient) pairs:
    a library polynomial, read through items() only, or one of these dicts.
    """
    out: dict = {}
    for variables, coeff in poly.items():
        key = frozenset(variables)
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def poly_add(*polys) -> dict:
    """The sum of the polynomials."""
    out: dict = {}
    for poly in polys:
        for key, coeff in poly_terms(poly).items():
            out[key] = out.get(key, 0) + coeff
    return poly_terms(out)


def poly_multiply(*polys) -> dict:
    """The product of the polynomials; x*x = x, so a product of monomials is their union."""
    out = {frozenset(): 1}
    for poly in polys:
        terms, step = poly_terms(poly), {}
        for key, coeff in out.items():
            for other, c in terms.items():
                step[key | other] = step.get(key | other, 0) + coeff * c
        out = poly_terms(step)
    return out


def poly_evaluate(poly, assignment):
    """The polynomial's value where each variable takes its 0/1 value from assignment."""
    return sum(coeff for key, coeff in poly_terms(poly).items()
               if all(assignment[var] for var in key))


def basis_index(assignment, variables) -> int:
    """The basis index of a 0/1 assignment, variables[0] the most significant bit."""
    index = 0
    for var in variables:
        index = 2 * index + assignment[var]
    return index


def poly_substitute(poly, fixed) -> dict:
    """The polynomial with the variables of fixed set to their 0/1 values."""
    out: dict = {}
    for key, coeff in poly_terms(poly).items():
        if all(fixed.get(var, 1) for var in key):
            rest = frozenset(var for var in key if var not in fixed)
            out[rest] = out.get(rest, 0) + coeff
    return poly_terms(out)


def poly_bounds(poly) -> tuple:
    """(lo, hi) with each monomial taken as an independent 0/1 term, so it holds every value."""
    terms = poly_terms(poly)
    constant = terms.get(frozenset(), 0)
    lo = constant + sum(c for key, c in terms.items() if key and c < 0)
    hi = constant + sum(c for key, c in terms.items() if key and c > 0)
    return lo, hi


def dense_mixer(n: int, g: float) -> np.ndarray:
    """g * sum_i X_i on n qubits, entry by entry: g where two states differ in one bit."""
    dim = 1 << n
    mixer = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            if bin(i ^ j).count("1") == 1:
                mixer[i, j] = g
    return mixer


def _mixer_ground_state(dim: int) -> np.ndarray:
    """The ground state of +g sum_i X_i: amplitude (-1)^popcount(b) / sqrt(dim) on state b."""
    signs = [(-1.0) ** bin(b).count("1") for b in range(dim)]
    return np.array(signs, dtype=complex) / np.sqrt(dim)


def _sparse_hamiltonian(diag: np.ndarray, g: float, s: float):
    """(1 - s) g sum_i X_i + s diag(E) as a scipy.sparse matrix."""
    dim = len(diag)
    index = np.arange(dim)
    flips = [scipy.sparse.csr_matrix((np.ones(dim), (index, index ^ (1 << i))), shape=(dim, dim))
             for i in range(dim.bit_length() - 1)]
    return (1 - s) * g * sum(flips) + scipy.sparse.diags(s * np.asarray(diag, dtype=float))


def sparse_levels(diag: np.ndarray, g: float, s: float, k: int) -> np.ndarray:
    """The k lowest eigenvalues of (1 - s) g sum_i X_i + s diag(E), by scipy's eigsh on a sparse H."""
    v0 = np.random.default_rng(0).standard_normal(len(diag))
    return np.sort(eigsh(_sparse_hamiltonian(diag, g, s), k=k, which="SA", tol=1e-12, v0=v0)[0])


def sparse_schedule(diag: np.ndarray, g: float, T: float, M: int) -> np.ndarray:
    """expm_schedule's evolution with the sparse H(s_m) of sparse_levels, by scipy's expm_multiply."""
    state = _mixer_ground_state(len(diag))
    for m in range(1, M + 1):
        state = expm_multiply(-1j * (T / M) * _sparse_hamiltonian(diag, g, m / M), state)
    return state


def flip_sum(v: np.ndarray) -> np.ndarray:
    """sum_i X_i applied to v, index by index: out[b] = sum_i v[b ^ (1 << i)]."""
    dim = len(v)
    index = np.arange(dim)
    out = np.zeros_like(v)
    for i in range(dim.bit_length() - 1):
        out += v[index ^ (1 << i)]
    return out


def expm_schedule(diag: np.ndarray, g: float, T: float, M: int) -> np.ndarray:
    """Reference evolution with scipy.linalg.expm, literal s_m = m/M rule."""
    dim = len(diag)
    mixer = dense_mixer(dim.bit_length() - 1, g)
    state = _mixer_ground_state(dim)
    tau = T / M
    for m in range(1, M + 1):
        s = m / M
        h = (1 - s) * mixer + s * np.diag(diag)
        state = expm(-1j * h * tau) @ state
    return state
