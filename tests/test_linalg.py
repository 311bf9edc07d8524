"""Subspaces built from bases that are orthonormal by construction."""

import numpy as np
import pytest

from csympl.csymplectic import random_c_symplectic
from csympl.forms import form_kernel
from csympl.linalg import PostconditionError, Subspace


def random_orthonormal(rng, m, k, field):
    raw = rng.standard_normal((m, k))
    if field == "C":
        raw = raw + 1j * rng.standard_normal((m, k))
    return np.linalg.qr(raw)[0]


def test_from_orthonormal_rejects_a_non_orthonormal_basis():
    q = random_orthonormal(np.random.default_rng(0), 6, 3, "R")
    with pytest.raises(PostconditionError):
        Subspace.from_orthonormal(2.0 * q)
    with pytest.raises(PostconditionError):
        Subspace.from_orthonormal(np.full((4, 1), np.nan))


@pytest.mark.parametrize("field", ["R", "C"])
@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_from_orthonormal_agrees_with_the_full_constructor(field, k):
    rng = np.random.default_rng(10 + k)
    q = random_orthonormal(rng, 6, k, field)
    fast, full = Subspace.from_orthonormal(q, field=field), Subspace(q, field=field)
    assert fast.orthonormal_basis() is fast.basis
    assert fast.dim == full.dim == k and fast.field == full.field == field
    vectors = rng.standard_normal((6, 4)) + (1j * rng.standard_normal((6, 4)) if field == "C" else 0)
    assert np.allclose(fast.project(vectors), full.project(vectors), atol=1e-12)
    inside = q @ rng.standard_normal(k)
    outside = vectors[:, 0]
    assert fast.contains(inside) and full.contains(inside)
    assert fast.contains(outside) == full.contains(outside) == (k == 6)
    assert fast.equals(full) and full.equals(fast)
    assert fast.orthogonal_complement().equals(full.orthogonal_complement())


@pytest.mark.parametrize("dim", [4, 8, 12])
def test_form_kernel_equals_the_fully_checked_kernel(dim):
    omega = random_c_symplectic(np.random.default_rng(dim), dim)[0]
    kernel = form_kernel(omega).subspace
    assert kernel.dim == dim // 2
    assert kernel.equals(Subspace(kernel.basis, field="C"))


def test_orthonormal_constructions_make_no_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
    rng = np.random.default_rng(3)
    omega = random_c_symplectic(rng, 8)[0]
    subspaces = [Subspace(rng.standard_normal((8, 4))), Subspace(np.zeros((8, 0)), field="C")]
    calls.clear()
    form_kernel(omega)
    for subspace in subspaces:
        subspace.orthogonal_complement()
    assert calls == []
