"""Oracles for the T(2,7) golden files that share no code with gridhom.

``fixtures/expected/t27_tilde.json`` is the output of
``gridhom --json homology fixtures/t27.grid --flavor tilde`` on a grid of
index n = 9.  Tilde homology is hat homology tensored with
V^{tensor (n-1)}, V = Z_{(0,0)} + Z_{(+1,+2)} in (Maslov, 2A); hat homology of
T(2,7) is one Z in each Alexander grading A = -3..3, on a single diagonal.
So the total rank of the slices, read upward in A, is the coefficient list
of (1+q)^8 (1+q+...+q^6), and each slice lies in one Maslov grading, one
above that of the slice before.

``fixtures/expected/t27_spectrum_m6_4.json`` is the output of
``gridhom --json spectrum fixtures/t27.grid`` at 2A = -6, -4, ..., 4.  T(2,7)
is alternating with signature -6, so its hat homology is thin: one
torsion-free Z in each Alexander grading A, at Maslov grading A - 3.

The checks read only the JSON files.
"""

import json
import os

EXPECTED = os.path.join(os.path.dirname(__file__), "..", "fixtures", "expected")
GOLDEN = os.path.join(EXPECTED, "t27_tilde.json")
SPECTRUM = os.path.join(EXPECTED, "t27_spectrum_m6_4.json")


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expected_ranks():
    ranks = [1] * 7  # 1 + q + ... + q^6
    for _ in range(8):
        ranks = poly_mul(ranks, [1, 1])
    return ranks


def load_slices():
    with open(GOLDEN) as fh:
        data = json.load(fh)
    assert data["flavor"] == "tilde"
    return sorted((int(a2), groups) for a2, groups in data["tables"].items())


def test_expected_ranks_are_the_quoted_coefficients():
    ranks = expected_ranks()
    assert ranks[:9] == [1, 9, 37, 93, 163, 219, 247, 254, 247]
    assert ranks == ranks[::-1] and sum(ranks) == 1792


def test_slice_ranks_are_the_convolution_coefficients():
    slices = load_slices()
    a2s = [a2 for a2, _ in slices]
    assert a2s == list(range(a2s[0], a2s[0] + 2 * len(a2s), 2))
    for _, groups in slices:
        assert all(not g["torsion"] for g in groups.values())
    assert [sum(g["rank"] for g in groups.values()) for _, groups in slices] == expected_ranks()


def test_each_slice_is_one_maslov_grading_one_above_the_last():
    maslovs = []
    for _, groups in load_slices():
        assert len(groups) == 1
        maslovs.extend(int(m) for m in groups)
    assert maslovs == list(range(maslovs[0], maslovs[0] + len(maslovs)))


def test_spectrum_hat_is_one_z_at_maslov_a_minus_3():
    with open(SPECTRUM) as fh:
        data = json.load(fh)
    assert sorted(int(a) for a in data) == list(range(-3, 3))
    for a, entry in data.items():
        assert entry["hat"]["homology"] == {str(int(a) - 3): {"rank": 1, "torsion": []}}
