"""Shared helpers for the test suite."""

import math

import numpy as np


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim, scale=1.0):
    m = crandn(rng, dim, dim)
    return scale * 0.5 * (m + m.conj().T)


def random_density(rng, dim):
    m = crandn(rng, dim, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    m = crandn(rng, dim, dim)
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sigma_ops():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e| for diag(0, w)
    return sx, sy, sz, sm


def nondegenerate_hamiltonian(rng, dim, min_gap=0.3, span=4.0):
    """Random hermitian H whose eigenvalue gaps are all at least min_gap."""
    for _ in range(200):
        h = random_hermitian(rng, dim, scale=span)
        w = np.linalg.eigvalsh(h)
        if np.diff(w).min() >= min_gap:
            return h
    raise RuntimeError("could not sample a well-gapped hamiltonian")


def rate_table_bath(spec, n_channels, rng):
    """Random PSD Gamma and hermitian Delta at every Bohr frequency."""
    from lindforge import bohr_frequencies, table_bath

    entries = []
    for omega in bohr_frequencies(spec).values:
        m = crandn(rng, n_channels, n_channels)
        entries.append((float(omega), 0.3 * m @ m.conj().T,
                        0.2 * random_hermitian(rng, n_channels)))
    return table_bath(entries)


def record_eigh(monkeypatch, key=lambda m: np.shape(m)[0]):
    """Wrap np.linalg.eigh; returns the list of key(matrix) per call."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(m, *args, **kwargs):
        seen.append(key(m))
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return seen


def reference_pieces(g):
    """Term-by-term expansion of a generator, the reference for its contracted
    pieces: returns (G, [(L, R), ...]) with

        rhs(rho) = -i [h_eff, rho] + G rho + rho G^+ + sum L rho R.

    Each ordered frequency pair (W source, W' target) and channel pair (a, b)
    contributes, with c = F(W' - W) W_ab(W):

        c       A_b(W)  rho A_a(W')^+      - c       A_a(W')^+ A_b(W) rho
        conj(c) A_a(W') rho A_b(W)^+       - conj(c) rho A_b(W)^+ A_a(W')

    A generator without a policy is secular: it keeps only W' = W with
    c = Gamma_ab(W) / 2, its frequency shift being part of h_eff.
    """
    from lindforge import coarse_graining_f

    dim = g.dim
    big_g = np.zeros((dim, dim), dtype=complex)
    pairs = []
    for src in g.dissipator_terms:
        for dst in g.dissipator_terms:
            if g.policy is None:
                if dst.omega != src.omega:
                    continue
                rates = 0.5 * np.asarray(src.gamma, dtype=complex)
            else:
                rates = coarse_graining_f(dst.omega - src.omega, g.policy.dt) * src.w_matrix()
            for a in range(dst.channel_count):
                dst_a_dag = dst.ops[a].conj().T
                for b in range(src.channel_count):
                    c = rates[a, b]
                    src_b = src.ops[b]
                    pairs.append((c * src_b, dst_a_dag))
                    pairs.append((np.conj(c) * dst.ops[a], src_b.conj().T))
                    big_g -= c * (dst_a_dag @ src_b)
    return big_g, pairs


def reference_rhs(g, rho):
    """rhs(rho) from the pairs of reference_pieces(g)."""
    big_g, pairs = reference_pieces(g)
    dim = g.dim
    pairs = np.asarray(pairs, dtype=complex).reshape(-1, 2, dim, dim)
    h = g.h_eff
    out = -1j * (h @ rho - rho @ h) + big_g @ rho + rho @ big_g.conj().T
    # sum_p (L_p rho) R_p as one (d, P d) x (P d, d) product
    left_rho = (pairs[:, 0].reshape(-1, dim) @ rho).reshape(-1, dim, dim)
    return out + (left_rho.transpose(1, 0, 2).reshape(dim, len(pairs) * dim)
                  @ pairs[:, 1].reshape(-1, dim))


def reference_rk4_states(rho0, g, times):
    """Classical rk4, one step at a time, on the blocks of propagate's route,
    the reference for its rk4. Each block B is read off the dense
    generator_superoperator_matrix, rotated to the energy eigenbasis (the
    identity for a generator without Bohr blocks) and restricted to the
    block's indices; what lies outside the blocks must be rounding. Each
    time gap takes n = max(1, ceil(gap rate)) steps of gap / n, rate the
    largest ||B - c||_1 / RK4_STEP_FACTOR among the blocks of B's size with
    c each block's mean diagonal. A block that holds a population (an index
    a (d + 1), rho_aa) steps B; any other steps B - c and applies
    e^{c gap}."""
    from lindforge import generator_superoperator_matrix
    from lindforge.dynamics import RK4_STEP_FACTOR

    dim = g.dim
    mat = generator_superoperator_matrix(g)
    blocks = g.bohr_blocks
    if blocks is None:
        v, indices = np.eye(dim), [np.arange(dim * dim)[None]]
    else:
        v, indices = blocks.basis, [index for index, _ in blocks.groups]
        rot = np.kron(v.T, v.conj().T)  # vec(V^+ rho V) = rot vec(rho)
        mat = rot @ mat @ rot.conj().T
    inside = np.zeros(mat.shape, dtype=bool)
    for index in indices:
        inside[index[:, :, None], index[:, None, :]] = True
    assert np.abs(mat[~inside]).max(initial=0.0) <= 1e-12 * np.abs(mat).max()
    y = (v.conj().T @ rho0 @ v).reshape(-1, order="F")
    ys = [y]
    for gap in np.diff(times).tolist():
        y = y.copy()
        for index in indices:
            size = index.shape[1]
            b = mat[index[:, :, None], index[:, None, :]]
            c = np.trace(b, axis1=1, axis2=2) / size
            a = b - c[:, None, None] * np.eye(size)
            n_steps = max(1, math.ceil(gap * np.abs(a).sum(axis=1).max() / RK4_STEP_FACTOR))
            c = np.where((index % (dim + 1) == 0).any(axis=1), 0.0, c)
            a = b - c[:, None, None] * np.eye(size)
            h = gap / n_steps
            cur = y[index][:, :, None]
            for _ in range(n_steps):
                k1 = a @ cur
                k2 = a @ (cur + 0.5 * h * k1)
                k3 = a @ (cur + 0.5 * h * k2)
                k4 = a @ (cur + h * k3)
                cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[index] = cur[:, :, 0] * np.exp(c * gap)[:, None]
        ys.append(y)
    rho_eig = np.array(ys).reshape(-1, dim, dim).transpose(0, 2, 1)  # unvec each
    return v @ rho_eig @ v.conj().T


def reference_lamb_shift(g):
    """h_ls = sum_W sum_ab Delta_ab(W) A_a(W)^+ A_b(W), one dense product per
    (term, a, b), the reference for the contracted Lamb shift."""
    h_ls = np.zeros((g.dim, g.dim), dtype=complex)
    for t in g.dissipator_terms:
        if t.delta is None:
            continue
        for a in range(t.channel_count):
            for b in range(t.channel_count):
                if t.delta[a, b] == 0:
                    continue
                h_ls += t.delta[a, b] * (t.ops[a].conj().T @ t.ops[b])
    return 0.5 * (h_ls + h_ls.conj().T)


def reference_superoperator(g):
    """Column-stacking matrix of reference_rhs, one np.kron per term."""
    big_g, pairs = reference_pieces(g)
    h = g.h_eff
    eye = np.eye(g.dim, dtype=complex)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    mat += np.kron(eye, big_g) + np.kron(big_g.conj(), eye)
    for left, right in pairs:
        mat += np.kron(right.T, left)
    return mat


def reference_pair_terms(bath, a, b):
    """(weights, frequencies) of the correlation double sum of channel pair
    (a, b), rebuilt from h_b, temperature and coupling_ops: weights[z, xi] =
    p(z) <z|X_a^+|xi><xi|X_b|z> at E_z - E_xi, flattened, zeros dropped."""
    import math

    from lindforge.linalg import hermitian_eigendecomposition

    energies, v = hermitian_eigendecomposition(bath.h_b)
    if math.isinf(bath.temperature):
        p = np.full(len(energies), 1.0 / len(energies))
    else:
        p = np.exp(-(energies - energies.min()) / bath.temperature)
        p = p / p.sum()
    xa = v.conj().T @ bath.coupling_ops[a] @ v
    xb = v.conj().T @ bath.coupling_ops[b] @ v
    weights = p[:, None] * xa.conj().T * xb.T
    freqs = energies[:, None] - energies[None, :]
    mask = weights != 0
    return weights[mask], freqs[mask]


def reference_expectation(bath, x):
    """Tr{X sigma_B} as the population-weighted diagonal of X rotated into
    the bath eigenbasis."""
    x_eig = bath._basis.conj().T @ np.asarray(x, dtype=complex) @ bath._basis
    return complex(np.sum(bath._populations * np.diag(x_eig)))


def reference_w_matrix(bath, omega):
    """W_ab(omega) entry by entry and term by term over reference_pair_terms."""
    k = bath.channel_count
    w = np.zeros((k, k), dtype=complex)
    for a in range(k):
        for b in range(k):
            weights, freqs = reference_pair_terms(bath, a, b)
            for weight, freq in zip(weights, freqs):
                w[a, b] += weight * 1j / ((omega + freq) + 1j * bath.broadening)
    return w


def reference_weighted_bohr_frequencies(bath):
    """Frequencies of the terms above 1e-12 of their channel pair's largest
    weight, pair by pair."""
    k = bath.channel_count
    chunks = [np.array([])]
    for a in range(k):
        for b in range(k):
            weights, freqs = reference_pair_terms(bath, a, b)
            if len(weights):
                chunks.append(freqs[np.abs(weights) > 1e-12 * np.abs(weights).max()])
    return np.unique(np.concatenate(chunks))


def reference_correlation_time(bath):
    """estimate_correlation_time with one phase table per channel pair, the
    reference for the single union table: returns a CorrelationTable."""
    import math

    from lindforge import CorrelationTable
    from lindforge.bath import DECAY_THRESHOLD

    k = bath.channel_count
    pair_data = [[reference_pair_terms(bath, a, b) for b in range(k)] for a in range(k)]
    scale0 = 0.0
    for row in pair_data:
        for weights, _ in row:
            if len(weights):
                scale0 = max(scale0, abs(complex(np.sum(weights))))
    freqs = reference_weighted_bohr_frequencies(bath)
    top = np.abs(freqs).max() if len(freqs) else 1.0
    nonzero = np.abs(freqs)[np.abs(freqs) > 1e-12 * max(1.0, top)]
    if scale0 <= 0.0:
        raise ValueError("reference covers coupled baths only")
    if len(nonzero) == 0:
        # constant correlations: G(0) on the one-sample grid
        values = np.array([[np.sum(weights) for weights, _ in row] for row in pair_data],
                          dtype=complex)
        return CorrelationTable(np.array([0.0]), values[:, :, None], math.inf, True)
    nu_min = float(nonzero.min())
    nu_max = float(nonzero.max())
    t_end = 8.0 * math.pi / nu_min
    dt = math.pi / (16.0 * nu_max)
    n = int(min(4096, max(64, math.ceil(t_end / dt))))
    taus = np.linspace(0.0, t_end, n)
    values = np.zeros((k, k, n), dtype=complex)
    for i in range(k):
        for j in range(k):
            weights, fr = pair_data[i][j]
            if len(weights) == 0:
                continue
            for start in range(0, n, 512):
                stop = min(start + 512, n)
                phases = np.exp(1j * np.outer(fr, taus[start:stop]))
                values[i, j, start:stop] = weights @ phases
    below = np.abs(values).max(axis=(0, 1)) <= DECAY_THRESHOLD * scale0
    for i in range(1, (n - 1) // 2 + 1):
        if below[i : 2 * i + 1].all():
            return CorrelationTable(taus, values, float(taus[i]), False)
    return CorrelationTable(taus, values, math.pi / nu_min, True)


def reference_rate_tensors(spectrum, system_ops, bath):
    """The gain tensor K and escape coefficients kappa as dicts, filled by
    loops, the reference for the arrays of build_rate_tensors.

    K maps (a, m, b, n) to sum_cx A_c[a, m] Gamma_xc(w) A_x[b, n]^* on every
    quadruple whose gaps w_m - w_a and w_n - w_b snap to the same Bohr
    frequency w (nearest by argmin); kappa maps every pair (i, j) that some
    quadruple (w, i, w, j) supports to sum_w K(w i, w j).
    """
    from lindforge import bohr_frequencies, gamma_matrix

    v = spectrum.basis
    mats = [v.conj().T @ np.asarray(a, dtype=complex) @ v for a in system_ops]
    dim = spectrum.dim
    values = bohr_frequencies(spectrum).values
    reps = spectrum.representative_frequencies()
    gaps = reps[None, :] - reps[:, None]  # gaps[a, m] = w_m - w_a
    nearest = np.abs(gaps[:, :, None] - values[None, None, :]).argmin(axis=2)
    k_map = {}
    for widx, w in enumerate(values):
        pairs = [(a, m) for a in range(dim) for m in range(dim) if nearest[a, m] == widx]
        if not pairs:
            continue
        e_mat = np.array([[mat[a, m] for (a, m) in pairs] for mat in mats])
        k_block = e_mat.T @ gamma_matrix(bath, w).T @ e_mat.conj()
        for p, (a, m) in enumerate(pairs):
            for q, (b, n) in enumerate(pairs):
                k_map[(a, m, b, n)] = complex(k_block[p, q])
    kap = {}
    for i in range(dim):
        for j in range(dim):
            if any((w, i, w, j) in k_map for w in range(dim)):
                kap[(i, j)] = sum(k_map.get((w, i, w, j), 0.0) for w in range(dim))
    return k_map, kap


def reference_pauli(k_map, kap, spectrum):
    """pauli_equations by loops over the dicts of reference_rate_tensors:
    returns a dict of PauliReduction's fields."""
    dim = spectrum.dim
    gaps_ok = reference_gaps_distinct(spectrum)
    degenerate = any(g > 1 for g in spectrum.degeneracies)
    flags = (("degenerate-multiplets",) if degenerate else ()) + (
        () if gaps_ok else ("shared-transition-frequency",))
    out = dict(degenerate=degenerate, all_gaps_distinct=gaps_ok, flags=flags,
               gain=None, escape=None, coherence_decay=None,
               block_gain=None, block_escape=None)
    if not degenerate:
        out["escape"] = np.array([kap[(a, a)].real for a in range(dim)])
        out["gain"] = np.array([[k_map[(a, m, a, m)].real for m in range(dim)]
                                for a in range(dim)])
        if gaps_ok:
            decay = np.zeros((dim, dim))
            for a in range(dim):
                for b in range(dim):
                    if a != b:
                        decay[a, b] = (0.5 * (kap[(a, a)].real + kap[(b, b)].real)
                                       - k_map[(a, a, b, b)].real)
            out["coherence_decay"] = decay
        return out
    mults = spectrum.multiplets
    block_gain = {}
    for big_a, idx_a in enumerate(mults):
        for big_m, idx_m in enumerate(mults):
            block = np.zeros((len(idx_a),) * 2 + (len(idx_m),) * 2, dtype=complex)
            for ia, a in enumerate(idx_a):
                for ia2, a2 in enumerate(idx_a):
                    for im, m in enumerate(idx_m):
                        for im2, m2 in enumerate(idx_m):
                            block[ia, ia2, im, im2] = k_map.get((a, m, a2, m2), 0.0)
            if np.any(block != 0):
                block_gain[(big_a, big_m)] = block
    out["block_gain"] = block_gain
    out["block_escape"] = {
        big_a: np.array([[kap[(a, a2)] for a2 in idx] for a in idx])
        for big_a, idx in enumerate(mults)
    }
    return out


def reference_kernel(k_map, kap, dim):
    """kernel_superoperator_matrix by scattering the dict entries one by one."""
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)

    def col(i, j):
        return i + dim * j

    for (a, m, b, n), val in k_map.items():
        mat[col(a, b), col(m, n)] += val
    for (i, j), val in kap.items():
        for b in range(dim):
            mat[col(j, b), col(i, b)] += -0.5 * val
        for a in range(dim):
            mat[col(a, i), col(a, j)] += -0.5 * val
    return mat


def _cell(x):
    return repr(float(x))


def reference_csv_rows(traj):
    """The per-cell trajectory CSV writer, the reference for
    cli.trajectory_csv_rows: one repr(float(x)) per cell."""
    dim = traj.dim
    sep = "" if dim <= 10 else "_"
    header = ["time"]
    for i in range(dim):
        for j in range(dim):
            header.append(f"re_{i}{sep}{j}")
            header.append(f"im_{i}{sep}{j}")
    header += ["trace_defect", "min_eigenvalue"]
    rows = [",".join(header)]
    for k in range(len(traj)):
        state = traj.states[k]
        cells = [_cell(traj.times[k])]
        for i in range(dim):
            for j in range(dim):
                cells.append(_cell(state[i, j].real))
                cells.append(_cell(state[i, j].imag))
        cells.append(_cell(traj.trace_defects[k]))
        cells.append(_cell(traj.min_eigenvalues[k]))
        rows.append(",".join(cells))
    return rows


def reference_oracle_csv_rows(lind, oracle, distances):
    """The per-cell oracle CSV writer: time, trace distance, then the
    Lindblad and the exact populations."""
    dim = lind.dim
    header = ["time", "trace_distance"]
    header += [f"pop_lind_{i}" for i in range(dim)]
    header += [f"pop_oracle_{i}" for i in range(dim)]
    rows = [",".join(header)]
    for k in range(len(lind)):
        cells = [_cell(lind.times[k]), _cell(distances[k])]
        cells += [_cell(lind.states[k][i, i].real) for i in range(dim)]
        cells += [_cell(oracle.states[k][i, i].real) for i in range(dim)]
        rows.append(",".join(cells))
    return rows


def reference_exact_oracle(h_a, bath, couplings, rho_a0, times):
    """The dense oracle route: the D x D joint H diagonalised once (the real
    solver when it is real), the initial state V^+ (rho_A x sigma_B) V, and
    the reduced state summed from the eigenphases one system pair at a time.
    Returns the (n_t, d_A, d_A) states."""
    h_a = np.asarray(h_a, dtype=complex)
    rho_a0 = np.asarray(rho_a0, dtype=complex)
    t = np.asarray(times, dtype=float)
    d_a, d_b = h_a.shape[0], bath.dim
    total = d_a * d_b
    h = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), bath.h_b)
    for a_op, x_op in zip(couplings, bath.coupling_ops):
        h = h + np.kron(np.asarray(a_op, dtype=complex), x_op)
    h = 0.5 * (h + h.conj().T)
    w, v = np.linalg.eigh(h if h.imag.any() else h.real)
    sigma = bath.sigma()
    if not (np.iscomplexobj(v) or rho_a0.imag.any() or sigma.imag.any()):
        rho_bar = v.T @ np.kron(rho_a0.real, sigma.real) @ v
    else:
        rho_bar = v.conj().T @ np.kron(rho_a0, sigma) @ v
    p = v.reshape(d_a, d_b, total)  # p[i, k, m] = <i,k|m>
    phase = np.exp(-1j * np.outer(t, w))
    states = np.empty((t.size, d_a, d_a), dtype=complex)
    for i in range(d_a):
        for j in range(i, d_a):
            c_ij = rho_bar * (p[i].T @ p[j].conj())
            series = ((phase @ c_ij) * phase.conj()).sum(axis=1)
            if j == i:
                states[:, i, i] = series.real
            else:
                states[:, i, j] = series
                states[:, j, i] = series.conj()
    return states


def kron_chain_mode_bath(modes):
    """H_B = sum_k nu_k n_k and X = sum_k g_k sigma_x^(k) on 2^K levels, each
    term a Kronecker chain with mode 0 as the leading factor."""
    n_modes = len(modes)
    dim = 2**n_modes
    number = np.diag([0.0, 1.0]).astype(complex)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    h_b = np.zeros((dim, dim), dtype=complex)
    x = np.zeros((dim, dim), dtype=complex)
    for k, (nu, g) in enumerate(modes):
        op_h = np.array([[1.0]], dtype=complex)
        op_x = np.array([[1.0]], dtype=complex)
        for j in range(n_modes):
            op_h = np.kron(op_h, number if j == k else eye2)
            op_x = np.kron(op_x, sigma_x if j == k else eye2)
        h_b += nu * op_h
        x += g * op_x
    return h_b, x


def reference_bohr_values(spectrum):
    """Spectrum.bohr_set.values as the per-pair loop computed them: every
    multiplet gap above the tolerance, sorted, clustered by single linkage,
    one np.mean per cluster, mirrored around 0."""
    reps = spectrum.multiplet_frequencies
    tol = spectrum.degeneracy_tol
    diffs = sorted(float(reps[m] - reps[n]) for m in range(len(reps))
                   for n in range(len(reps)) if reps[m] - reps[n] > tol)
    positives, cluster = [], []
    for d in diffs:
        if cluster and d - cluster[-1] > tol:
            positives.append(float(np.mean(cluster)))
            cluster = []
        cluster.append(d)
    if cluster:
        positives.append(float(np.mean(cluster)))
    return np.array([-x for x in reversed(positives)] + [0.0] + positives)


def reference_eigenoperators(a_op, spectrum):
    """eigenoperator_decomposition's terms as the per-frequency loop built
    them: one mask and two products per Bohr frequency, near-zero pieces
    dropped."""
    v = spectrum.basis
    a_eig = v.conj().T @ np.asarray(a_op, dtype=complex) @ v
    terms = {}
    for k, omega in enumerate(spectrum.bohr_set.values):
        piece = a_eig * (spectrum.bohr_index == k)
        if np.abs(piece).max() < 1e-14:
            continue
        terms[float(omega)] = v @ piece @ v.conj().T
    return terms


def reference_multiplets(w, tol):
    """build_spectrum's clustering as the per-level loop made it: a gap above
    tol to the previous level opens a new multiplet. Returns the multiplets,
    their np.mean frequencies, the multiplet index of each level and the
    chain warnings."""
    groups = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            groups.append([i])
        else:
            groups[-1].append(i)
    warnings = []
    for g in groups:
        spread = float(w[g[-1]] - w[g[0]])
        if spread > tol:
            warnings.append(
                f"multiplet around {float(np.mean(w[g])):.6g} chains over a spread "
                f"{spread:.3e} larger than the tolerance {tol:.3e}")
    reps = np.array([float(np.mean(w[g])) for g in groups])
    index = np.empty(len(w), dtype=int)
    for n, g in enumerate(groups):
        index[g] = n
    return tuple(tuple(g) for g in groups), reps, index, tuple(warnings)


def reference_default_broadening(bath_energies):
    """default_broadening as the greedy per-difference loop computed it: a
    sorted difference counts as new when it lies more than the tolerance past
    the last one kept."""
    w = np.asarray(bath_energies, dtype=float)
    dedup_tol = 1e-9 * max(1.0, float(np.abs(w).max()))
    diffs = np.sort((w[:, None] - w[None, :]).ravel())
    distinct = [diffs[0]]
    for d in diffs[1:]:
        if d - distinct[-1] > dedup_tol:
            distinct.append(d)
    if len(distinct) < 2:
        raise ValueError("fewer than two distinct Bohr frequencies")
    return 4.0 * (distinct[-1] - distinct[0]) / (len(distinct) - 1)


def reference_transitions(x_eig, energies, populations):
    """bath._transitions by a loop over (z, xi) in row-major order: every
    transition z -> xi some channel carries out of a populated level,
    sorted stably by nu = E_z - E_xi."""
    rows = [(energies[z] - energies[xi], z, xi)
            for z in range(len(energies)) for xi in range(len(energies))
            if populations[z] != 0 and any(x[xi, z] != 0 for x in x_eig)]
    rows.sort(key=lambda row: row[0])
    z = np.array([row[1] for row in rows], dtype=np.intp)
    xi = np.array([row[2] for row in rows], dtype=np.intp)
    amps = np.array([[x[b, a] for a, b in zip(z, xi)] for x in x_eig], dtype=complex)
    nu = np.array([row[0] for row in rows], dtype=float)
    return (amps.reshape(len(x_eig), len(rows)), populations[z], nu), z, xi


def reference_gaps_distinct(spectrum):
    """PauliReduction.all_gaps_distinct by the pairwise rule: no two gaps
    between multiplet frequencies within the tolerance of each other."""
    freqs = spectrum.multiplet_frequencies
    gaps = [abs(freqs[q] - freqs[p]) for p in range(len(freqs))
            for q in range(p + 1, len(freqs))]
    return not any(abs(gaps[x] - gaps[y]) <= spectrum.degeneracy_tol
                   for x in range(len(gaps)) for y in range(x + 1, len(gaps)))
