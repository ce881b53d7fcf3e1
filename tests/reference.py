"""Reference implementations that the tests compare the library against.

Each one computes a quantity straight from its definition, slowly or only
for tiny sizes; none of them is part of rorrlab.
"""
import itertools
import json
import math

import numpy as np

from rorrlab import dist, util
from rorrlab.boolfn import (DROP_THRESHOLD, FourierSpectrum, OutputConvention,
                            fourier_from_truth_table)
from rorrlab.dist import MomentEstimate
from rorrlab.distinguish import evaluate_batch
from rorrlab.dtree import DecisionTree, sparse_fourier
from rorrlab.ortho import (GoodnessReport, OrthogonalMatrix, _goodness_draws, _record_sampled,
                           goodness_bound)
from rorrlab.util import derive_rng, mean_and_stderr, sub_seed


def gaussian_chain(u: OrthogonalMatrix, k: int, count: int, seed: int):
    """The Gaussian chain G_k behind dist.sample_duk_batch(u, k, count, seed).

    Reads X^(1)..X^(k-1) of every draw again from the `duk-batch` stream
    (one chunk: count rows of (k-1)N Gaussian entries, as many as
    dist.duk_chunks puts in its first chunk), forms Y = U^T X with the same
    batched product, and interleaves Z as the dist docstring defines it.
    Returns x, y of shape (count, k-1, N) and z of shape (count, k, N).
    """
    if count > max(1, util.MC_CHUNK // ((k - 1) * u.n)):
        raise ValueError("the chain oracle reads one chunk of the stream")
    x = derive_rng(seed, "duk-batch", u.n, k, count).standard_normal((count, k - 1, u.n))
    y = (x.reshape(-1, u.n) @ u.entries).reshape(x.shape)
    z = np.empty((count, k, u.n))
    z[:, 0] = x[:, 0]
    for i in range(1, k - 1):
        z[:, i] = y[:, i - 1] * x[:, i]
    z[:, k - 1] = y[:, k - 2]
    return x, y, z


def advantage_whole_batch(pairs, u: OrthogonalMatrix, k: int, samples: int, seed: int):
    """(estimate, stderr) per tree of distinguish.advantage_corpus, with each
    arm drawn whole by dist.sample_*_batch, every tree evaluated on the whole
    arm, and the mean and var(ddof=1) of each output array."""
    uniform = dist.sample_uniform_batch(k, u.n, samples, sub_seed(seed, "adv-uniform"))
    chained = dist.sample_duk_batch(u, k, samples, sub_seed(seed, "adv-duk"))
    rows = []
    for _, tree in pairs:
        f_uniform = evaluate_batch(tree, uniform.reshape(samples, -1))
        f_chained = evaluate_batch(tree, chained.reshape(samples, -1))
        rows.append((float(f_uniform.mean() - f_chained.mean()),
                     float(math.sqrt(f_uniform.var(ddof=1) / samples
                                     + f_chained.var(ddof=1) / samples))))
    return rows


def phi_brute_force(u: OrthogonalMatrix, vectors: np.ndarray) -> float:
    """Direct k-fold index sum; O(N^k), oracle for tiny N only."""
    vecs = np.asarray(vectors, dtype=float)
    k, n = vecs.shape
    if n**k > 5_000_000:
        raise ValueError("brute force oracle limited to tiny N")
    total = 0.0

    def walk(pos: int, prev_index: int, acc: float) -> None:
        nonlocal total
        if pos == k:
            total += acc
            return
        for i in range(n):
            factor = vecs[pos][i] if pos == 0 else u.entries[prev_index, i] * vecs[pos][i]
            walk(pos + 1, i, acc * factor)

    walk(0, -1, 1.0)
    return total / n


def validate_bit_vector(x) -> np.ndarray:
    """Return x as an int8 array, insisting every entry is exactly +-1."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("bit vector must be one-dimensional and non-empty")
    if not np.all(np.abs(arr) == 1):
        raise ValueError("bit vector entries must be exactly -1 or +1")
    return arr.astype(np.int8)


def evaluate(tree: DecisionTree, x) -> int:
    """Output bit of the tree at one +-1 point, by walking from the root to
    a leaf (entry +1 goes to the plus child)."""
    point = validate_bit_vector(x)
    if point.size != tree.n:
        raise ValueError(f"input has {point.size} entries, expected {tree.n}")
    node = tree.nodes[tree.root]
    while not node.is_leaf:
        plus = point[node.query_var - 1] == 1
        node = tree.nodes[node.child_plus if plus else node.child_minus]
    return node.output


def reaches_a_tree(nodes, root: int) -> bool:
    """Whether the nodes reachable from root form a tree: root has no parent
    among them and every other one exactly one, each child slot counted as
    an edge."""
    parents = dict.fromkeys(range(len(nodes)), 0)
    reached, todo = {root}, [root]
    while todo:
        node = nodes[todo.pop()]
        if node.query_var is not None:
            for child in (node.child_minus, node.child_plus):
                parents[child] += 1
                if child not in reached:
                    reached.add(child)
                    todo.append(child)
    return all(parents[idx] == (idx != root) for idx in reached)


def leaf_paths(tree: DecisionTree) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """(path, output bit) of every root-to-leaf path, minus child first;
    path holds the (variable, sign) pairs from the root down. Only for
    trees: a cycle would make it walk forever."""
    out = []
    stack = [(tree.root, ())]
    while stack:
        idx, path = stack.pop()
        node = tree.nodes[idx]
        if node.query_var is None:
            out.append((path, node.output))
        else:
            stack.append((node.child_plus, path + ((node.query_var, 1),)))
            stack.append((node.child_minus, path + ((node.query_var, -1),)))
    return out


def depth_and_acceptance(tree: DecisionTree) -> tuple[int, float]:
    """Longest leaf path, and the uniform acceptance as the sum of
    2^-len(path) over the paths to 1-leaves (exact for short paths)."""
    leaves = leaf_paths(tree)
    return (max(len(path) for path, _ in leaves),
            sum(0.5 ** len(path) for path, bit in leaves if bit))


def path_spectrum(tree: DecisionTree, convention: OutputConvention) -> dict[int, float]:
    """Nonzero coefficients by bitmask, as a sum over leaf paths: a leaf of
    value b at the end of path P is b * prod over (v, s) in P of
    (1 + s x_v) / 2, which gives b 2^-|P| prod_{(v, s) in T} s to every
    subset T of P."""
    out: dict[int, float] = {}
    for path, bit in leaf_paths(tree):
        value = float(bit) if convention == OutputConvention.ZERO_ONE else 2.0 * bit - 1.0
        for size in range(len(path) + 1):
            for subset in itertools.combinations(path, size):
                mask = sum(1 << (var - 1) for var, _ in subset)
                term = value * 0.5 ** len(path) * math.prod(sign for _, sign in subset)
                out[mask] = out.get(mask, 0.0) + term
    return {mask: c for mask, c in out.items() if c}


def next_var_visits(tree: DecisionTree) -> list[tuple[int, float]]:
    """(depth(v), A_v_hat({next(v)})) of every internal node v, from the
    leaf paths through it: a leaf of bit b at depth D, below the sign s
    that its path takes at v, adds s b 2^-(D - depth(v))."""
    coeff: dict[tuple, float] = {}  # keyed by the path to v
    for path, bit in leaf_paths(tree):
        for depth, (_, sign) in enumerate(path):
            prefix = path[:depth]
            coeff[prefix] = coeff.get(prefix, 0.0) + sign * bit * 0.5 ** (len(path) - depth)
    return [(len(prefix), c) for prefix, c in coeff.items()]


def truth_table_index(x: np.ndarray) -> int:
    """Position of the point x in the truth-table ordering: bit i set
    exactly when x_{i+1} = -1 (inverse of boolfn.point_from_index)."""
    idx = 0
    for i, xi in enumerate(x):
        if xi == -1:
            idx |= 1 << i
    return idx


def evaluate_multilinear(spec: FourierSpectrum, x) -> float:
    """The multilinear polynomial of a spectrum at a +-1 point; a spectrum
    of f reproduces f's truth table."""
    point = validate_bit_vector(x)
    if point.size != spec.n:
        raise ValueError(f"point has {point.size} entries, expected {spec.n}")
    # A monomial is -1 exactly when it holds an odd number of the -1 variables.
    minus = truth_table_index(point)
    return sum(-c if (mask & minus).bit_count() & 1 else c for mask, c in spec.masks.items())


def subset_of(mask: int) -> tuple[int, ...]:
    """The 1-based variables of a mask, from one pass over its binary
    digits, lowest first: linear in the mask's width."""
    return tuple(i + 1 for i, digit in enumerate(reversed(f"{mask:b}")) if digit == "1")


def reference_json(spec: FourierSpectrum) -> str:
    """The former spectrum_to_json: json.dumps of the coefficients sorted by
    their 1-based tuples, with 0-based indices in the file."""
    coeffs = {subset_of(mask): c for mask, c in spec.masks.items()}
    entries = [{"S": [i - 1 for i in subset], "coeff": coeff}
               for subset, coeff in sorted(coeffs.items())]
    return json.dumps({"n": spec.n, "coefficients": entries}, sort_keys=True)


def convert_convention(spec: FourierSpectrum, source: OutputConvention,
                       target: OutputConvention) -> FourierSpectrum:
    """The spectrum re-expressed in the other output convention (v = 2b - 1):
    every coefficient doubles or halves and the constant shifts."""
    if source == target:
        return spec
    if source == OutputConvention.ZERO_ONE:
        out = {mask: 2.0 * c for mask, c in spec.masks.items()}
        out[0] = out.get(0, 0.0) - 1.0
    else:
        out = {mask: 0.5 * c for mask, c in spec.masks.items()}
        out[0] = out.get(0, 0.0) + 0.5
    return FourierSpectrum(n=spec.n, masks={
        mask: c for mask, c in out.items() if abs(c) > DROP_THRESHOLD})


def cross_check_spectrum(tree: DecisionTree, convention: OutputConvention) -> float:
    """Max |sparse - dense| coefficient difference (n <= 20 only)."""
    table = tree.truth_table().astype(float)
    if convention == OutputConvention.PLUS_MINUS_ONE:
        table = 2.0 * table - 1.0
    dense = fourier_from_truth_table(table, tree.n)
    sparse = sparse_fourier(tree, convention)
    keys = dense.masks.keys() | sparse.masks.keys()
    return max(
        (abs(dense.masks.get(k, 0.0) - sparse.masks.get(k, 0.0)) for k in keys),
        default=0.0,
    )


def duk_empirical_moment(u, k, parts, samples: int, seed: int) -> MomentEstimate:
    """Direct empirical moment of D_{U,k}: mean of the coordinate product
    over fresh chain samples. Oracle for d_hat_product."""
    if len(parts) != k:
        raise ValueError("need exactly k block parts")
    batch = dist.sample_duk_batch(u, k, samples, seed)
    prod = np.ones(samples)
    for block, part in enumerate(parts):
        for idx in part:
            if not (1 <= idx <= u.n):
                raise ValueError(f"block-local index {idx} outside [1, {u.n}]")
            prod *= batch[:, block, idx - 1]
    mean = float(prod.mean())
    stderr = float(prod.std(ddof=1) / math.sqrt(samples))
    return MomentEstimate(value=mean, stderr=stderr, samples=samples, exact=False)


def hadamard_entry(i: int, j: int, log2n: int) -> float:
    """Entry (i, j) of the normalized N x N Hadamard matrix, N = 2^log2n."""
    return ((-1) ** bin(i & j).count("1")) / float(np.sqrt(2.0**log2n))


def hadamard_implicit_block(log2n: int) -> np.ndarray:
    """The sqrt(N) x sqrt(N) all-equal block: rows with index bits in the
    low half, columns with index bits in the high half (materialized,
    so small log2n only)."""
    if log2n % 2 != 0:
        raise ValueError("log2n must be even")
    if log2n > 20:
        raise ValueError("block materialization limited to log2n <= 20")
    half = 1 << (log2n // 2)
    rows = np.arange(half)
    cols = np.arange(half) * half
    return np.array([[hadamard_entry(i, j, log2n) for j in cols] for i in rows])


def dense_orthogonality_error(a: np.ndarray) -> float:
    """max |a^T a - I| from one whole Gram product."""
    return float(np.max(np.abs(a.T @ a - np.eye(len(a)))))


def two_by_two_norms(a, b, c, d):
    """Spectral norms of [[a, b], [c, d]] blocks, elementwise: the square
    root of the larger root of s^4 - fro2 s^2 + det^2, in one expression."""
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    gap = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0))
    return np.sqrt(0.5 * (fro2 + gap))


def goodness_whole_array(u: OrthogonalMatrix, sampled_pairs: int, max_block: int,
                         seed: int) -> GoodnessReport:
    """ortho.check_goodness with each exhaustive pass recorded as one array:
    every singleton in one record, and at n <= 64 every 2 x 2 block in one
    (pairs, pairs) norm array, filled a row pair at a time. The sampled
    pairs are drawn and recorded as check_goodness does."""
    n, ent = u.n, u.entries
    report = GoodnessReport(n)
    report.record(np.abs(ent), goodness_bound(1, 1, n),
                  lambda ij: ((int(ij[0]) + 1,), (int(ij[1]) + 1,)))
    if n <= 64:
        ci, cj = np.triu_indices(n, 1)  # the pairs i < j in row-major order

        def pair(p):
            return int(ci[p]) + 1, int(cj[p]) + 1

        bound_12 = goodness_bound(1, 2, n)
        report.record(np.sqrt(ent[:, ci] ** 2 + ent[:, cj] ** 2), bound_12,
                      lambda rp: ((int(rp[0]) + 1,), pair(rp[1])))
        report.record(np.sqrt(ent.T[:, ci] ** 2 + ent.T[:, cj] ** 2), bound_12,
                      lambda rp: (pair(rp[1]), (int(rp[0]) + 1,)))
        norms = np.empty((len(ci), len(ci)))
        for p, (i, j) in enumerate(zip(ci, cj)):
            norms[p] = two_by_two_norms(ent[i, ci], ent[i, cj], ent[j, ci], ent[j, cj])
        report.record(norms, goodness_bound(2, 2, n), lambda xy: (pair(xy[0]), pair(xy[1])))
    for sizes, rows, cols in _goodness_draws(n, sampled_pairs, max_block, seed):
        _record_sampled(u, sizes, rows, cols, report)
    return report


def haar_numpy_qr(n: int, seed: int) -> np.ndarray:
    """ortho.sample_haar's entries from np.linalg.qr of the same Gaussians,
    with the same R-diagonal sign correction."""
    q, r = np.linalg.qr(derive_rng(seed, "haar", n).standard_normal((n, n)))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    q *= np.sign(diag)
    return q


def haar_corners_whole(n: int, count: int, seed: int) -> np.ndarray:
    """ortho.haar_corner_samples with all count x n Gaussians drawn at once."""
    g = derive_rng(seed, "haar-corner", n, count).standard_normal((count, n))
    return g[:, 0] / np.linalg.norm(g, axis=1)


def sign_correlation_whole(seed: int, samples: int, i: int, rho: float) -> tuple[float, float]:
    """(estimate, stderr) of row i of verify.check_sign_correlation, with z1
    and z2 drawn whole and sgn(x) sgn(y) formed in one pass."""
    rng = derive_rng(seed, "accept-signcorr", i)
    z1 = rng.standard_normal(samples)
    z2 = rng.standard_normal(samples)
    y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
    return mean_and_stderr(dist.sgn(z1) * dist.sgn(y))
