"""Exterior/Clifford algebra tests.

Oracles here are deliberately independent of the package implementation:
wedge and interior products are recomputed over tuple-keyed dicts with
bubble-sort parity, and the small Mukai values are frozen by hand.
"""

import ast
import importlib
import importlib.util
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import genkf
from genkf import _backend, fields, multivector
from genkf._tables import blade_tables
from genkf.analysis import cohiggs_residual
from genkf.fields import FormField, GenConnection, TorusGrid, bfield_act, moment_value
from genkf.multivector import (
    GenVector,
    GradedForm,
    b_transform,
    clifford_act,
    exp_two_form,
    interior,
    mukai_pair,
    neutral_pairing,
    neutral_pairing_matrix,
    wedge,
)
from genkf.specio import build_config
from genkf.structures import OMEGA_BLOCK, gcs_symplectic

RNG = np.random.default_rng(20260823)


# ---------------------------------------------------------------------------
# oracles


def sort_parity(axes):
    """Bubble-sort a tuple of distinct axes; return (sorted tuple, sign)."""
    axes = list(axes)
    sign = 1
    changed = True
    while changed:
        changed = False
        for p in range(len(axes) - 1):
            if axes[p] > axes[p + 1]:
                axes[p], axes[p + 1] = axes[p + 1], axes[p]
                sign = -sign
                changed = True
    return tuple(axes), sign


def to_dict(form):
    """Coefficients keyed by ascending axis tuples."""
    out = {}
    for mask in range(form.coeffs.size):
        c = form.coeffs[mask]
        if c != 0:
            key = tuple(mu for mu in range(2 * form.n) if mask >> mu & 1)
            out[key] = c
    return out


def oracle_wedge(fa, fb):
    """Wedge product over dicts: concatenate axis tuples, sort, track parity."""
    da, db = to_dict(fa), to_dict(fb)
    out = {}
    for ka, ca in da.items():
        for kb, cb in db.items():
            if set(ka) & set(kb):
                continue
            key, sign = sort_parity(ka + kb)
            out[key] = out.get(key, 0) + sign * ca * cb
    res = GradedForm.zero(fa.n)
    for key, c in out.items():
        mask = sum(1 << mu for mu in key)
        res.coeffs[mask] = c
    return res


def oracle_interior(vec, form):
    """i_v over dicts: delete one axis at a time with alternating sign."""
    d = to_dict(form)
    out = {}
    for key, c in d.items():
        for pos, mu in enumerate(key):
            rest = key[:pos] + key[pos + 1 :]
            out[rest] = out.get(rest, 0) + ((-1) ** pos) * vec[mu] * c
    res = GradedForm.zero(form.n)
    for key, c in out.items():
        mask = sum(1 << mu for mu in key)
        res.coeffs[mask] = c
    return res


def random_form(n, rng=RNG):
    c = rng.standard_normal(1 << (2 * n)) + 1j * rng.standard_normal(1 << (2 * n))
    return GradedForm(n, c)


def random_genvector(n, rng=RNG, real=False):
    if real:
        v = rng.standard_normal(2 * n)
        x = rng.standard_normal(2 * n)
    else:
        v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    return GenVector(v, x)


def random_two_form(n, rng=RNG, real=True):
    m = rng.standard_normal((2 * n, 2 * n))
    if not real:
        m = m + 1j * rng.standard_normal((2 * n, 2 * n))
    m = (m - m.T) / 2
    return GradedForm.from_two_form_matrix(m)


# ---------------------------------------------------------------------------
# wedge / interior


KERNEL_NAMES = ("wedge_batch", "interior_batch", "wedge1_batch", "clifford_batch", "mukai_batch")


def test_backend_defines_the_numpy_kernels():
    assert genkf.kernel_backend == "python"
    for name in KERNEL_NAMES:
        assert getattr(_backend, name).__module__ == "genkf._backend"


def imported_modules(tree):
    """Last component of every module name a parsed source file imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "genkf"):  # from . import x, from genkf import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[-1]


def test_only_the_algebra_layers_import_the_kernels():
    # the blade kernels live in _backend, which builds on the blade tables
    # alone, and are reached by multivector, structures, fields and analysis
    # (and the package re-exports the backend's name); specio, verify, cli
    # and report build on those layers
    package = pathlib.Path(genkf.__file__).parent
    importers = {}
    for path in package.glob("*.py"):
        for name in imported_modules(ast.parse(path.read_text())):
            importers.setdefault(name, set()).add(path.stem)
    assert importers["_backend"] <= {"__init__", "multivector", "structures", "fields", "analysis"}
    backend = ast.parse((package / "_backend.py").read_text())
    assert set(imported_modules(backend)) == {"__future__", "numpy", "_tables"}


def load_tracer():
    """perfbench/tracer.py, the profiler that wraps the kernels by module name."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_kernels_of_backend_and_nests_none():
    # the tracer wraps the five kernels by their names in genkf._backend and
    # rebinds every genkf name that holds one, _backend's own included; a
    # kernel that called another public kernel would then show a kernel
    # span inside its own
    tracer_module = load_tracer()
    assert tracer_module.KERNEL_MODULE == "genkf._backend"
    assert set(tracer_module.KERNEL_NAMES) == set(KERNEL_NAMES)
    for modname in tracer_module.LAYER_MODULES.values():
        importlib.import_module(modname)
    kernels = {name: getattr(_backend, name) for name in KERNEL_NAMES}
    grid = fields.TorusGrid(1, (8, 8))
    psi = fields.exp_two_form_field(grid, np.array([[0.0, 1j], [-1j, 0.0]]))
    var = fields.ConnVariation(*(RNG.standard_normal((2, 1, 1, 8, 8)) + 0j for _ in range(2)))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for name, fn in kernels.items():
            assert getattr(_backend, name).__wrapped__ is fn
        e = GenVector(RNG.standard_normal(4), RNG.standard_normal(4))
        multivector.clifford_act(e, random_form(2))
        # a field layer reaches the kernels the same way
        fields.gm_symplectic(grid, var, var, psi)
    finally:
        tracer.uninstall()
    assert all(getattr(_backend, name) is fn for name, fn in kernels.items())
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == [
        "multivector.clifford_act", "kernels.clifford_batch",
        "fields.gm_symplectic", "kernels.clifford_batch", "kernels.clifford_batch",
        "fields.mukai_field",
    ]
    assert tracer.span_parent == [-1, 0, -1, 2, 2, 2]


# names no command reaches yet, kept on purpose: one reason each
_UNLOADED_ON_PURPOSE = {
    "canonical_line_connection": "ROADMAP item 10 gives it a caller and settles its J",
    "kernel_backend": "the package's backend name, read by perfbench/child.py",
}


def test_every_library_name_is_loaded_outside_its_definition():
    # a module-level function or class, or an __all__ name, that no code in
    # src/genkf loads (as a name, an attribute, or the source of an `import
    # ... as`) outside its own definition is dead: it gets a caller or goes
    defined, loaded = set(), set()
    for path in pathlib.Path(genkf.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.add(own)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                defined.update(ast.literal_eval(node.value))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias) and sub.asname:
                    name = sub.name
                else:
                    continue
                if name != own:
                    loaded.add(name)
    dead = {
        name for name in defined - loaded
        if not (name.startswith("__") and name.endswith("__"))
    }
    unexplained = sorted(dead - set(_UNLOADED_ON_PURPOSE))
    assert not unexplained, f"no code loads {unexplained}"
    assert set(_UNLOADED_ON_PURPOSE) <= dead  # an entry that gains a caller leaves the list


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_on_blade_first_batches_match_single_forms_bitwise(n):
    # each kernel on (size, 2, 3) coefficient and (dim, 2, 3) component
    # arrays gives, at every batch point, the bits of the same operation on
    # that point's forms alone; a (size, 1, 1) or (size,) form and a (dim,)
    # vector broadcast to every point
    t = blade_tables(n)
    rng = np.random.default_rng([n, 17])

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = cplx(t.size, 2, 3), cplx(t.size, 1, 1)
    v, xi = cplx(t.dim), cplx(t.dim, 2, 3)
    zero = np.zeros(t.dim)
    got = {
        "wedge": _backend.wedge_batch(t, a, b),
        "wedge swapped": _backend.wedge_batch(t, b, a),
        "interior": _backend.interior_batch(t, v, a),
        "wedge1": _backend.wedge1_batch(t, xi, a),
        "wedge1 on one form": _backend.wedge1_batch(t, xi, b[:, 0, 0]),
        "clifford": _backend.clifford_batch(t, v, xi, a),
        "clifford on broadcast form": _backend.clifford_batch(t, v, xi, b),
        "mukai": _backend.mukai_batch(t, a, b),
    }
    for key, out in got.items():
        assert out.shape == ((2, 3) if key == "mukai" else (t.size, 2, 3)), key
    fb = GradedForm(n, b[:, 0, 0])
    for p in np.ndindex(2, 3):
        at = (slice(None),) + p
        fa, e = GradedForm(n, a[at]), GenVector(v, xi[at])
        want = {
            "wedge": wedge(fa, fb).coeffs,
            "wedge swapped": wedge(fb, fa).coeffs,
            "interior": interior(v, fa).coeffs,
            "wedge1": clifford_act(GenVector(zero, xi[at]), fa).coeffs,
            "wedge1 on one form": clifford_act(GenVector(zero, xi[at]), fb).coeffs,
            "clifford": clifford_act(e, fa).coeffs,
            "clifford on broadcast form": clifford_act(e, fb).coeffs,
            "mukai": np.complex128(mukai_pair(fa, fb)),
        }
        for key, out in got.items():
            point = out[p] if key == "mukai" else out[at]
            assert point.tobytes() == want[key].tobytes(), (key, p)


def every_axis_step(t, comps, a, src, dst):
    """sum over every mu of (sign a[src[mu]]) comps[mu] scattered to dst[mu],
    zero components included, into a +0 array (the kernels' full sum)."""
    nb = max(comps.ndim, a.ndim) - 1
    a = a.reshape(a.shape[:1] + (1,) * (nb + 1 - a.ndim) + a.shape[1:])
    comps = comps.reshape(comps.shape[:1] + (1,) * (nb + 1 - comps.ndim) + comps.shape[1:])
    shape = np.broadcast_shapes(comps.shape[1:], a.shape[1:])
    out = np.zeros((t.size,) + shape, dtype=np.complex128)
    for mu in range(t.dim):
        sign = t.axis_s[mu].reshape((-1,) + (1,) * nb)
        out[dst[mu]] += (sign * a[src[mu]]) * comps[mu]
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_constant_vector_steps_skip_zero_components_bitwise(n):
    # a (dim,) vector or covector skips its zero components; the +-0 terms
    # it leaves out change no bit, -0.0 entries of the field included
    t = blade_tables(n)
    rng = np.random.default_rng([n, 19])
    shape = (t.size, 2, 2, 3, 3)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    a.real[rng.random(shape) < 0.2] = -0.0
    a.imag[rng.random(shape) < 0.2] = -0.0
    sparse = np.zeros(t.dim, dtype=np.complex128)
    sparse[1] = 2.5 - 0.5j
    sparse[-1] = -1.0
    batched = np.broadcast_to(np.eye(t.dim)[0].reshape((t.dim, 1, 1, 1, 1)), (t.dim, 2, 2, 3, 3))
    comps = [*np.eye(t.dim), sparse, np.zeros(t.dim), batched]
    for kernel, src, dst in (
        (_backend.wedge1_batch, t.axis_lo, t.axis_hi),
        (_backend.interior_batch, t.axis_hi, t.axis_lo),
    ):
        for c in comps:
            got = kernel(t, c, a)
            want = every_axis_step(t, c, a, src, dst)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_wedge_basis_blades():
    # dx1 ^ dx2 = +blade{0,1}; dx2 ^ dx1 = -blade{0,1}
    n = 2
    dx1 = GradedForm.blade(n, (0,))
    dx2 = GradedForm.blade(n, (1,))
    w = wedge(dx1, dx2)
    assert w.coeffs[0b0011] == 1.0
    w = wedge(dx2, dx1)
    assert w.coeffs[0b0011] == -1.0
    # dx2 ^ dx13 = dx1 ^ dx2 ^ dx3 with one transposition
    w = wedge(dx2, GradedForm.blade(n, (0, 2)))
    assert w.coeffs[0b0111] == -1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_matches_oracle(n):
    for _ in range(25):
        fa, fb = random_form(n), random_form(n)
        expect = oracle_wedge(fa, fb)
        got = wedge(fa, fb)
        assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_graded_commutativity(n):
    for _ in range(10):
        ka = int(RNG.integers(0, 2 * n + 1))
        kb = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n).degree_part(kb)
        lhs = wedge(fa, fb)
        rhs = wedge(fb, fa) * ((-1.0) ** (ka * kb))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_interior_basis_signs():
    # i_{d2}(dx1 ^ dx2) = -dx1 ; i_{d1}(dx1 ^ dx2) = +dx2
    n = 1
    w = GradedForm.blade(n, (0, 1))
    got = interior(np.array([0.0, 1.0]), w)
    assert got.coeffs[0b01] == -1.0 and got.coeffs[0b10] == 0.0
    got = interior(np.array([1.0, 0.0]), w)
    assert got.coeffs[0b10] == 1.0 and got.coeffs[0b01] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_matches_oracle(n):
    for _ in range(25):
        f = random_form(n)
        v = RNG.standard_normal(2 * n) + 1j * RNG.standard_normal(2 * n)
        expect = oracle_interior(v, f)
        got = interior(v, f)
        assert np.max(np.abs(got.coeffs - expect.coeffs)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_interior_antiderivation(n):
    for _ in range(10):
        ka = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n)
        v = RNG.standard_normal(2 * n) + 1j * RNG.standard_normal(2 * n)
        lhs = interior(v, wedge(fa, fb))
        rhs = wedge(interior(v, fa), fb) + wedge(fa, interior(v, fb)) * (
            (-1.0) ** ka
        )
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_interior_squares_to_zero():
    for n in (1, 2, 3):
        f = random_form(n)
        v = RNG.standard_normal(2 * n)
        twice = interior(v, interior(v, f))
        assert np.max(np.abs(twice.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# neutral pairing and Clifford relation


def test_neutral_pairing_values():
    # <v + xi, u + eta> = (xi(u) + eta(v)) / 2
    e1 = GenVector([1.0, 0.0], [0.0, 0.0])
    e2 = GenVector([0.0, 0.0], [1.0, 0.0])
    assert neutral_pairing(e1, e2) == 0.5
    assert neutral_pairing(e1, e1) == 0.0
    assert neutral_pairing(e2, e2) == 0.0


def test_neutral_pairing_signature():
    for n in (1, 2):
        q = neutral_pairing_matrix(n)
        assert np.allclose(q, q.T)
        ev = np.linalg.eigvalsh(q)
        assert np.sum(ev > 0) == 2 * n and np.sum(ev < 0) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_relation(n):
    # e.e' + e'.e = 2 <e, e'>  acting on any form
    for _ in range(50):
        e1, e2 = random_genvector(n), random_genvector(n)
        f = random_form(n)
        lhs = clifford_act(e1, clifford_act(e2, f)) + clifford_act(
            e2, clifford_act(e1, f)
        )
        rhs = f * (2.0 * neutral_pairing(e1, e2))
        scale = max(1.0, np.max(np.abs(rhs.coeffs)))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) / scale < 1e-12


# ---------------------------------------------------------------------------
# involution and Mukai pairing


def test_involution_sign_table():
    # +1 on degrees 0,1 mod 4 ; -1 on degrees 2,3 mod 4
    n = 4
    f = GradedForm(n, np.ones(1 << (2 * n), dtype=complex))
    g = f.involution()
    expected = {0: 1, 1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: -1, 7: -1, 8: 1}
    for mask in range(1 << (2 * n)):
        deg = bin(mask).count("1")
        assert g.coeffs[mask] == expected[deg]


def test_mukai_frozen_values():
    # by hand at n=1, omega = dx1^dx2:
    #   <1, dx1^dx2>_s = (1 ^ sigma(dx1^dx2))_top = -1
    #   <e^{i omega}, e^{-i omega}>_s = ((1+iw) ^ (1+iw))_top = 2i
    n = 1
    one = GradedForm.scalar(n, 1.0)
    top = GradedForm.blade(n, (0, 1))
    assert mukai_pair(one, top) == -1.0
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    psi = exp_two_form(1j * GradedForm.from_two_form_matrix(omega))
    psibar = psi.conjugate()
    assert abs(mukai_pair(psi, psibar) - 2j) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_symmetry(n):
    # <a, b>_s = (-1)^n <b, a>_s
    for _ in range(50):
        fa, fb = random_form(n), random_form(n)
        assert abs(
            mukai_pair(fa, fb) - (-1.0) ** n * mukai_pair(fb, fa)
        ) < 1e-12 * max(1.0, abs(mukai_pair(fa, fb)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mukai_adjunction_sign(n):
    # <e.a, b>_s = -<a, e.b>_s, uniformly in the degrees
    trials = 200 if n == 1 else 50
    for _ in range(trials):
        e = random_genvector(n)
        ka = int(RNG.integers(0, 2 * n + 1))
        kb = int(RNG.integers(0, 2 * n + 1))
        fa = random_form(n).degree_part(ka)
        fb = random_form(n).degree_part(kb)
        lhs = mukai_pair(clifford_act(e, fa), fb)
        rhs = -mukai_pair(fa, clifford_act(e, fb))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_mukai_adjunction_exhaustive_blades_n1():
    n = 1
    blades = [(), (0,), (1,), (0, 1)]
    basis_e = [
        GenVector([1.0, 0.0], [0.0, 0.0]),
        GenVector([0.0, 1.0], [0.0, 0.0]),
        GenVector([0.0, 0.0], [1.0, 0.0]),
        GenVector([0.0, 0.0], [0.0, 1.0]),
    ]
    for e in basis_e:
        for ba in blades:
            for bb in blades:
                fa = GradedForm.blade(n, ba)
                fb = GradedForm.blade(n, bb)
                lhs = mukai_pair(clifford_act(e, fa), fb)
                rhs = -mukai_pair(fa, clifford_act(e, fb))
                assert abs(lhs - rhs) < 1e-14


# ---------------------------------------------------------------------------
# exponentials and b-transform


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_two_form_series(n):
    b = random_two_form(n, real=False)
    e = exp_two_form(b)
    # independent series: sum b^k / k! by repeated oracle wedge
    acc = GradedForm.scalar(n, 1.0)
    term = GradedForm.scalar(n, 1.0)
    for k in range(1, n + 1):
        term = oracle_wedge(term, b) * (1.0 / k)
        acc = acc + term
    assert np.max(np.abs(e.coeffs - acc.coeffs)) < 1e-12
    # degree-0 part is 1, odd parts vanish
    assert e.coeffs[0] == 1.0
    for mask in range(1 << (2 * n)):
        if bin(mask).count("1") % 2 == 1:
            assert e.coeffs[mask] == 0.0


# b's upper entries (b01, b02, b03, b12, b13, b23) at n = 2 where a scalar
# walk of the wedge rows rounds one coefficient of e^{b + i omega} apart
# from the same walk over a batch, by 4.4e-16
_ULP_B_UPPER = (0.93, 0.42, -0.57, 0.09, 0.41, -0.9)


def test_exp_two_form_keeps_its_bits_in_a_batch():
    # e^b of one form, of that form as a batch of one, and of each point of
    # a batch of random forms: every coefficient has the same bits
    t = blade_tables(2)
    omega = np.kron(np.eye(2), OMEGA_BLOCK)
    b = np.zeros((4, 4))
    b[np.triu_indices(4, 1)] = _ULP_B_UPPER
    m = b - b.T + 1j * omega
    batch_of_one = multivector.exp_blades(t, multivector.two_form_blades(m)[:, None])
    assert exp_two_form(m).coeffs.tobytes() == batch_of_one[:, 0].tobytes()
    rng = np.random.default_rng(25)
    upper = np.zeros((4, 4, 500))
    upper[np.triu_indices(4, 1)] = rng.uniform(-2.0, 2.0, (6, 500))
    batch = upper - np.swapaxes(upper, 0, 1) + 1j * omega[..., None]
    field = multivector.exp_blades(t, multivector.two_form_blades(batch))
    for p in range(batch.shape[-1]):
        assert exp_two_form(batch[..., p]).coeffs.tobytes() == field[:, p].tobytes()


def test_exp_two_form_accepts_matrix():
    m = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert np.allclose(
        exp_two_form(m).coeffs, exp_two_form(GradedForm.from_two_form_matrix(m)).coeffs
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b_transform_preserves_mukai(n):
    for _ in range(20):
        b = random_two_form(n)
        fa, fb = random_form(n), random_form(n)
        lhs = mukai_pair(b_transform(b, fa), b_transform(b, fb))
        rhs = mukai_pair(fa, fb)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_b_transform_composes():
    n = 2
    b1, b2 = random_two_form(n), random_two_form(n)
    f = random_form(n)
    lhs = b_transform(b1, b_transform(b2, f))
    rhs = b_transform(b1 + b2, f)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# algebra properties on drawn values, n = 1..3 (no grid fields)


@st.composite
def algebra_values(draw):
    """n, two complex forms, a complex generalized vector, two real two-forms."""
    n = draw(st.integers(1, 3))
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)

    def reals(shape):
        return draw(hnp.arrays(np.float64, shape, elements=entries))

    def cplx(shape):
        return reals(shape) + 1j * reals(shape)

    size, dim = 4**n, 2 * n
    phi, chi = GradedForm(n, cplx(size)), GradedForm(n, cplx(size))
    e = GenVector(cplx(dim), cplx(dim))
    b1, b2 = ((m - m.T) / 2 for m in (reals((dim, dim)), reals((dim, dim))))
    return n, phi, chi, e, b1, b2


def norm_of(x):
    return float(np.linalg.norm(x.coeffs if isinstance(x, GradedForm) else x))


@settings(max_examples=100, deadline=None)
@given(values=algebra_values())
def test_clifford_square_is_the_pairing(values):
    # e.(e.phi) = <e, e> phi
    _, phi, _, e, _, _ = values
    lhs = clifford_act(e, clifford_act(e, phi))
    rhs = phi * neutral_pairing(e, e)
    scale = (norm_of(e.vec) + norm_of(e.covec)) ** 2 * norm_of(phi)
    assert norm_of(lhs - rhs) <= 1e-13 * (1.0 + scale)


@settings(max_examples=100, deadline=None)
@given(values=algebra_values())
def test_mukai_pairing_is_b_invariant(values):
    _, phi, chi, _, b, _ = values
    eb = exp_two_form(b)
    lhs = mukai_pair(wedge(eb, phi), wedge(eb, chi))
    scale = norm_of(eb) ** 2 * norm_of(phi) * norm_of(chi)
    assert abs(lhs - mukai_pair(phi, chi)) <= 1e-13 * (1.0 + scale)


@settings(max_examples=100, deadline=None)
@given(values=algebra_values())
def test_exp_two_form_is_a_homomorphism(values):
    # e^{b1} ^ e^{b2} = e^{b1 + b2}
    _, _, _, _, b1, b2 = values
    e1, e2 = exp_two_form(b1), exp_two_form(b2)
    lhs = wedge(e1, e2)
    rhs = exp_two_form(b1 + b2)
    assert norm_of(lhs - rhs) <= 1e-13 * (1.0 + norm_of(e1) * norm_of(e2))


@settings(max_examples=100, deadline=None)
@given(values=algebra_values())
def test_b_transform_conjugates_the_clifford_action(values):
    # e^b (v + xi) e^{-b} = v + xi - i_v b, with (i_v b)_mu = sum_nu v^nu
    # b_{nu mu}: the shift fields.bfield_act applies to A
    _, phi, _, e, b, _ = values
    lhs = b_transform(b, clifford_act(e, b_transform(-b, phi)))
    shifted = GenVector(e.vec, e.covec - np.einsum("n,nm->m", e.vec, b))
    rhs = clifford_act(shifted, phi)
    scale = (
        norm_of(exp_two_form(b))
        * norm_of(exp_two_form(-b))
        * (norm_of(e.vec) + norm_of(e.covec))
        * norm_of(phi)
    )
    assert norm_of(lhs - rhs) <= 1e-13 * (1.0 + scale)


# ---------------------------------------------------------------------------
# guards


def test_dimension_guards():
    with pytest.raises(ValueError):
        GradedForm(5, np.zeros(4**5, dtype=complex))
    with pytest.raises(ValueError):
        GradedForm(2, np.zeros(7, dtype=complex))
    with pytest.raises(ValueError):
        wedge(random_form(1), random_form(2))


def test_genvector_roundtrip():
    e = random_genvector(2)
    arr = e.as_array()
    back = GenVector.from_array(arr)
    assert np.allclose(back.vec, e.vec) and np.allclose(back.covec, e.covec)


# ---------------------------------------------------------------------------
# the skew test max|m + m^T| (or m^H) <= 1e-12 * max(1, max|m|) at each site

_GRID = TorusGrid(1, (8, 8))
_SKEW2 = 3j * np.eye(2)
_PSI = FormField.constant(_GRID, exp_two_form(1j * OMEGA_BLOCK))


def _a_part(a):
    return GenConnection(_GRID, 2, a, np.zeros_like(a))


def _xi(xi):
    return moment_value(_GRID, GenConnection.zero(_GRID, 2), xi, _PSI)


def _basis(m):
    term = {"mu": 0, "coeff": 1.0, "basis": {"re": m.real.tolist(), "im": m.imag.tolist()}}
    return build_config({"bundle": {"rank": 2}, "connection": {"A": {"terms": [term]}}})


# site: (a valid matrix, the call that tests it, the site's message)
_SKEW_SITES = {
    "from-two-form-matrix": (
        (0.5 + 3j) * OMEGA_BLOCK,
        GradedForm.from_two_form_matrix,
        "two-form matrix must be antisymmetric",
    ),
    "gcs-symplectic": (3 * OMEGA_BLOCK, gcs_symplectic, "omega matrix must be antisymmetric"),
    "connection-part": (
        np.broadcast_to(_SKEW2[:, :, None, None], (2, 2, 2, 8, 8)),
        _a_part,
        "A is not skew-Hermitian",
    ),
    "moment-xi": (
        np.broadcast_to(_SKEW2[:, :, None, None], (2, 2, 8, 8)),
        _xi,
        "xi must be skew-Hermitian",
    ),
    "b-matrix": (
        3 * OMEGA_BLOCK,
        lambda b: bfield_act(b, GenConnection.zero(_GRID, 1)),
        "b matrix must be antisymmetric",
    ),
    "omega-blocks": (
        3 * OMEGA_BLOCK,
        lambda om: cohiggs_residual(GenConnection.zero(_GRID, 1), om, 0.0),
        "omega must be antisymmetric",
    ),
    "psi-omega": (
        3 * OMEGA_BLOCK,
        lambda m: build_config({"psi": {"omega": m.tolist()}}),
        "psi.omega must be antisymmetric",
    ),
    "psi-b": (
        0.3 * OMEGA_BLOCK,
        lambda m: build_config({"psi": {"b": m.tolist()}}),
        "psi.b must be antisymmetric",
    ),
    "basis": (_SKEW2, _basis, "connection A basis must be skew-Hermitian"),
}


@pytest.mark.parametrize("site", list(_SKEW_SITES))
def test_skew_test_bound_at_every_site(site):
    base, call, message = _SKEW_SITES[site]
    bound = 1e-12 * max(1.0, float(np.max(np.abs(base))))

    def with_defect(defect):
        # half the defect on the first diagonal entry: m + m^T (or m^H) is
        # the defect there and zero elsewhere, and max|m| stays as it was
        m = np.array(base, dtype=np.result_type(base, float))
        m[(0,) * m.ndim] += defect / 2
        return m

    call(with_defect(0.99 * bound))
    with pytest.raises(ValueError, match=re.escape(message)):
        call(with_defect(1.01 * bound))
