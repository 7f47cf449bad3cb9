"""Acceptance gate: one test per criterion, one printed verdict per test.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math

import numpy as np
import pytest

import chsh_selftest as cs
from chsh_selftest import extraction, game, verifier

SQ2 = np.sqrt(2)
TS = 2 * SQ2


def _criterion(num, name, ok, detail=""):
    verdict = "PASS" if ok else f"FAIL ({detail})"
    print(f"criterion {num:02d} {name}: {verdict}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_ideal_value():
    worst = 0.0
    for n in (2, 4, 6):
        v = cs.exact_value(cs.ideal_strategy(n))
        worst = max(worst, abs(v - TS))
    _criterion(1, "ideal strategies reach 2*sqrt(2)", worst <= 1e-9,
               f"worst |value - 2sqrt2| = {worst:.3e}")


def test_criterion_02_every_subtest_ideal():
    s = cs.ideal_strategy(4)
    worst = 0.0
    for qa in range(4):
        for qb in range(4):
            for k in (1, 2):
                f = game.subtest_value(s, qa, qb, k)
                worst = max(worst, abs(f - TS))
    _criterion(2, "all 32 ideal n=4 subtests at 2*sqrt(2)", worst <= 1e-9,
               f"worst deviation = {worst:.3e}")


def test_criterion_03_classical_value():
    m = 1
    ident = np.broadcast_to(np.eye(2), (2, 1, 2, 2))  # +I at both questions
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    s = cs.Strategy(state=state, alice=ident, bob=ident)
    got = cs.exact_value(s)

    total, count = 0.0, 0
    for q in ("00", "01", "10", "11"):
        for k in (1,):
            wins = (int(q[k - 1]) & int(q[k - 1 + m])) == 0
            total += 4.0 if wins else -4.0
            count += 1
    oracle = total / count
    ok = oracle == 2.0 and abs(got - oracle) <= 1e-12
    _criterion(3, "deterministic classical strategy scores 2", ok,
               f"value = {got!r}, oracle = {oracle!r}")


def test_criterion_04_ideal_extraction_is_exact():
    fails = []
    for n in (2, 4):
        s = cs.ideal_strategy(n)
        ops = extraction.build_xz(s)
        norms = verifier.measure_epsilons(ops)
        if max(norms.eps1, norms.eps2, norms.eps3) > 1e-8:
            fails.append(f"n={n} eps norms {norms.eps1:.2e}/{norms.eps2:.2e}/"
                         f"{norms.eps3:.2e}")
        gen = verifier.measure_general_conditions(ops)
        if max(gen.general_anticommute_max, gen.general_swap_max) > 1e-7:
            fails.append(f"n={n} general norms")
        rep = cs.certify(s)
        dmax = max(max(rep.distances_fixed.values()),
                   max(rep.distances_optimal.values()))
        if dmax > 1e-7:
            fails.append(f"n={n} distance {dmax:.2e}")
    _criterion(4, "ideal extraction: norms and distances vanish", not fails,
               "; ".join(fails))


def test_criterion_05_measured_below_certified():
    fails = []
    for n in (2, 4):
        for eta in (0.02, 0.05, 0.1):
            s = cs.noisy_strategy(n, cs.NoiseSpec(model="bob-rotation",
                                                  param=eta))
            eps = max(0.0, TS - cs.exact_value(s))
            ceil = verifier.certified_bounds(n * eps)
            norms = verifier.measure_epsilons(extraction.build_xz(s))
            for name, meas in (("eps1", norms.eps1), ("eps2", norms.eps2),
                               ("eps3", norms.eps3)):
                if meas > ceil[name] + 1e-9:
                    fails.append(f"n={n} eta={eta} {name}: "
                                 f"{meas:.3e} > {ceil[name]:.3e}")
    _criterion(5, "measured norms below certified ceilings", not fails,
               "; ".join(fails))


def test_criterion_06_pigeonhole_guarantees():
    fails = []
    cases = [cs.noisy_strategy(4, cs.NoiseSpec(model="bob-rotation", param=eta))
             for eta in (0.05, 0.2)]
    cases += [cs.noisy_strategy(2, cs.NoiseSpec(model="partial-entanglement",
                                                param=th))
              for th in (0.6, 0.4)]
    cases += [cs.random_strategy(4, np.random.default_rng(seed))
              for seed in range(5)]
    for i, s in enumerate(cases):
        m = s.half
        v = cs.exact_value(s)
        eps = max(0.0, TS - v)
        canon, result = extraction.search_questions(s)
        # the best question scores at least the average
        qb_score = float(game.subtest_table(canon)[:, 0, :].sum()) / (s.n * (1 << (m - 1)))
        if qb_score < v - 1e-12:
            fails.append(f"case {i}: best question below average")
        for k, delta in enumerate(result.per_subtest_delta, start=1):
            if delta > m * eps + 1e-12:
                fails.append(f"case {i}: delta_{k} = {delta:.3e} > "
                             f"{m * eps:.3e}")
        for (k, ell), q in result.pair_questions.items():
            fk = game.subtest_value(canon, q, 0, k)
            fl = game.subtest_value(canon, q, 0, ell)
            if min(fk, fl) < TS - 2 * m * eps - 1e-12:
                fails.append(f"case {i}: pair ({k},{ell}) f = "
                             f"{min(fk, fl):.6f}")
    _criterion(6, "pigeonhole question guarantees", not fails, "; ".join(fails))


def test_criterion_07_relabel_invariance():
    worst = 0.0
    exact_failures = 0
    for seed in range(100):
        s = cs.random_strategy(2, np.random.default_rng(seed))
        v = cs.exact_value(s)
        for q_a, q_b in ((1, 0), (0, 1)):
            worst = max(worst, abs(cs.exact_value(extraction.relabel(s, q_a, q_b)) - v))
            twice = extraction.relabel(extraction.relabel(s, q_a, q_b), q_a, q_b)
            if not (np.array_equal(twice.alice, s.alice)
                    and np.array_equal(twice.bob, s.bob)):
                exact_failures += 1
    ok = worst <= 1e-9 and exact_failures == 0
    _criterion(7, "question relabeling is a value symmetry", ok,
               f"worst drift = {worst:.3e}, non-involutions = {exact_failures}")


def test_criterion_08_referee_statistics():
    s = cs.ideal_strategy(2)
    hits = 0
    for seed in range(100):
        res = cs.referee_simulate(s, 100_000, np.random.default_rng(seed))
        if abs(res.value - TS) <= 5 * res.stderr:
            hits += 1
    res_a = cs.referee_simulate(s, 100_000, np.random.default_rng(1234))
    res_b = cs.referee_simulate(s, 100_000, np.random.default_rng(1234))
    deterministic = res_a.value == res_b.value and res_a.stderr == res_b.stderr
    ok = hits >= 99 and deterministic
    _criterion(8, "referee sampling is calibrated and reproducible", ok,
               f"hits = {hits}/100, deterministic = {deterministic}")


def test_criterion_09_noise_sweep_trend():
    etas = [0.0, 0.02, 0.05, 0.1, 0.2, 0.3]
    fails = []
    print()
    print("   n    eta        value      epsilon     dist_fixed   "
          "dist/(n^(9/8) eps^(1/8))")
    dist_by_n = {}
    for n in (2, 4, 6):
        dists = []
        for eta in etas:
            spec = cs.NoiseSpec(model="bob-rotation", param=eta) \
                if eta else cs.NoiseSpec(model="none", param=0.0)
            rep = cs.certify(cs.noisy_strategy(n, spec))
            d = max(rep.distances_fixed.values())
            dists.append(d)
            eps = rep.epsilon
            # at zero noise epsilon vanishes and the ratio is undefined
            ratio = f"{d / (n ** 1.125 * eps ** 0.125):10.4f}" if eps > 1e-15 else \
                f"{'-':>10}"
            print(f"  {n:2d}  {eta:5.2f}  {rep.value:11.8f}  {eps:.4e}"
                  f"  {d:.4e}   {ratio}")
        dist_by_n[n] = dists
        if dists[0] > 1e-6:
            fails.append(f"n={n}: nonzero distance {dists[0]:.2e} at eta=0")
    d2 = dist_by_n[2]
    for a, b in zip(d2, d2[1:]):
        if b < a - 1e-9:
            fails.append(f"n=2 distances not monotone: {a:.6f} -> {b:.6f}")
    _criterion(9, "extraction distance grows with noise", not fails,
               "; ".join(fails))


def test_criterion_10_log_question_set():
    fails = []
    for n in range(2, 66, 2):
        m = n // 2
        qs = extraction.log_question_set(n)
        bound = math.ceil(math.log2(m + 1)) if m > 1 else 0
        if len(qs) > bound:
            fails.append(f"n={n}: {len(qs)} questions > bound {bound}")
        for k in range(1, m + 1):
            for ell in range(k + 1, m + 1):
                if not any(q[k - 1] != q[ell - 1] for q in qs):
                    fails.append(f"n={n}: bits ({k},{ell}) not separated")
    _criterion(10, "log-size question set separates all pairs", not fails,
               "; ".join(fails[:3]))
