"""isomorphic() decides by canonical forms first.

The invariant-first ordering it replaced ran analyze() on both inputs before
reading their canonical forms; it is kept below as the reference, and the
verdict, reason and witness bytes must match it on every labelled, raw and
one-side-labelled pair.  The one exception is a labelled pair in different
canonical blocks: its "no" now gives the reason "canonical blocks differ: X vs
Y", read off the forms, where the reference gave the first invariant that
differed.  A label can no longer disagree with its tensor (Algebra checks it),
so labelled pairs must be decided without derivation work, a pair with one
labelled side must analyze the other side only, and raw pairs must compute
each tensor's double sign and derivation algebra once."""

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import derivations as dv
from compalg import maps as mp
from compalg import normal_form as nf
from compalg import numerics
from compalg.errors import BadParameter, RawTensorNotSupported

from conftest import unit


def reference_isomorphic(a, b, tol=cl.DEFAULT_TOL):
    """The invariant-first ordering: analyze() of both, then canonical forms."""
    if a.dim != b.dim:
        return cl.IsoVerdict("no", reason="dimensions differ")
    ra = cl.analyze(a, tol)
    rb = cl.analyze(b, tol)
    if (ra.double_sign.i, ra.double_sign.j) != (rb.double_sign.i, rb.double_sign.j):
        return cl.IsoVerdict("no", reason="double signs differ")
    if str(ra.block) != str(rb.block):
        return cl.IsoVerdict("no", reason=f"blocks differ: {ra.block} vs {rb.block}")
    try:
        ca = cl.canonical(a, tol)
        cb = cl.canonical(b, tol)
    except RawTensorNotSupported:
        return cl.IsoVerdict("unknown",
                             reason="equal invariants, but canonical parameters need provenance")
    if ca.block.kind != cb.block.kind or str(ca.block) != str(cb.block):
        return cl.IsoVerdict("no", reason=f"canonical blocks differ: {ca.block} vs {cb.block}")
    if not cl._params_close(ca.block.kind, ca.params, cb.params):
        return cl.IsoVerdict("no", reason="canonical parameters differ")
    witness = mp.OrthoMap8(cb.witness.mat.T @ ca.witness.mat, check=False)
    residual = cl.witness_residual(witness, a, b)
    if residual >= 1e-8:
        return cl.IsoVerdict("unknown",
                             reason=f"canonical forms agree but witness residual {residual:g}")
    return cl.IsoVerdict("yes", witness=witness)


def expected_isomorphic(a, b):
    """The reference's verdict, with the reason of a labelled different-block
    "no" read off the canonical forms."""
    want = reference_isomorphic(a, b)
    if a.dim == b.dim and a.family is not None and b.family is not None:
        ca, cb = cl.canonical(a), cl.canonical(b)
        if str(ca.block) != str(cb.block):
            assert want.verdict == "no"
            return cl.IsoVerdict("no", reason=f"canonical blocks differ: {ca.block} vs {cb.block}")
    return want


def assert_same_verdict(got, want):
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.mat.tobytes() == want.witness.mat.tobytes()


SIGNS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: One constructor per family (and per tau kind), drawing fresh parameters.
FAMILIES = {
    "standard": lambda gen, i, j: al.standard_isotope(i, j),
    "okubo": lambda gen, i, j: al.okubo_p11(),
    "p35": lambda gen, i, j: al.p35(i, j) if (i, j) != (1, 1) else al.p35(0, 1),
    "quat4": lambda gen, i, j: al.quat4(i, j),
    "tau": lambda gen, i, j: al.j_family(i, j, unit(gen, 4), unit(gen, 4)),
    "tau_sign": lambda gen, i, j: al.j_family(i, j, nf.ONE4, -nf.ONE4),
    "T": lambda gen, i, j: al.k_family(i, j, *(unit(gen, 4) for _ in range(4))),
    "lambda": lambda gen, i, j: al.lambda_family(i, j, unit(gen, 2), unit(gen, 2)),
    "g": lambda gen, i, j: al.g_family(i, j, 1 - i, 1, *gen.uniform(-4.0, 4.0, 2)),
}


def random_orthogonal(gen, n):
    return np.linalg.qr(gen.standard_normal((n, n)))[0]


def raw(algebra):
    return al.Algebra(algebra.sc.copy())


def twin_pairs(gen):
    """(a, transport(phi, a)) for every family and double sign."""
    for build in FAMILIES.values():
        for i, j in SIGNS:
            a = build(gen, i, j)
            yield a, al.transport(random_orthogonal(gen, a.dim), a)


def other_parameter_pairs(gen):
    """Two points of one family in one canonical block (for the parameter-free
    families the same algebra twice)."""
    for build in FAMILIES.values():
        for i, j in SIGNS:
            a = build(gen, i, j)
            b = build(gen, i, j)
            while str(cl.canonical(b).block) != str(cl.canonical(a).block):
                b = build(gen, i, j)
            yield a, b


def different_block_pairs(gen):
    """Each family point against a point of the next family, and against a
    point of its own family with another double sign."""
    names = list(FAMILIES)
    for k, name in enumerate(names):
        a = FAMILIES[name](gen, 0, 1)
        yield a, FAMILIES[names[(k + 1) % len(names)]](gen, 0, 1)
        yield a, FAMILIES[name](gen, 1, 0)


def test_matches_the_invariant_first_ordering(gen):
    pairs = [*twin_pairs(gen), *other_parameter_pairs(gen), *different_block_pairs(gen)]
    for a, b in list(pairs[:len(FAMILIES) * len(SIGNS)]):
        pairs.append((raw(a), raw(b)))  # raw twins
        pairs.append((a, raw(b)))       # one side labelled
        pairs.append((raw(b), a))
    # raw tensors of differing double signs
    pairs.append((raw(al.standard_isotope(0, 0)), raw(al.standard_isotope(1, 0))))
    moved = 0
    for a, b in pairs:
        want = expected_isomorphic(a, b)
        moved += want.reason.startswith("canonical blocks differ")
        assert_same_verdict(cl.isomorphic(a, b), want)
    assert moved


def test_mislabelled_constructions_raise():
    # the tensor of standard_isotope(0, 0) under the label of standard_isotope(0, 1),
    # and under a tau-family label of another double sign
    u = np.array([0.0, 1.0, 0.0, 0.0])
    c = al.j_family(0, 1, u, np.array([np.cos(0.3), np.sin(0.3), 0.0, 0.0]))
    for label in (al.standard_isotope(0, 1).family, c.family):
        with pytest.raises(BadParameter):
            al.Algebra(al.standard_isotope(0, 0).sc, family=label)


def test_labelled_pairs_do_no_derivation_work(gen, monkeypatch):
    pairs = [(a, b, "yes") for a, b in twin_pairs(gen)]
    pairs += [(a, b, reference_isomorphic(a, b).verdict)
              for a, b in [*other_parameter_pairs(gen), *different_block_pairs(gen)]]

    def refuse(*args, **kwargs):
        raise AssertionError("isomorphic ran invariant work on a labelled pair")

    for module, name in ((dv, "derivation_basis"), (dv, "decompose"), (dv, "nullspace"),
                         (numerics, "nullspace"), (al, "double_sign")):
        monkeypatch.setattr(module, name, refuse)
    verdicts = [cl.isomorphic(a, b).verdict for a, b, _ in pairs]
    assert verdicts == [want for _, _, want in pairs]
    assert {"yes", "no"} <= set(verdicts)


@pytest.mark.parametrize("name", ["standard", "okubo", "tau", "T", "g"])
def test_raw_twins_compute_each_invariant_once(gen, monkeypatch, name):
    a = FAMILIES[name](gen, 1, 0)
    raw_a, raw_b = raw(a), raw(al.transport(random_orthogonal(gen, 8), a))
    calls = {}

    def counted(module, fn_name):
        original = getattr(module, fn_name)

        def wrapper(algebra, *args, **kwargs):
            key = (fn_name, id(algebra))
            calls[key] = calls.get(key, 0) + 1
            return original(algebra, *args, **kwargs)

        monkeypatch.setattr(module, fn_name, wrapper)

    counted(al, "double_sign")
    counted(dv, "derivation_basis")
    assert cl.isomorphic(raw_a, raw_b).verdict == "unknown"
    for fn_name in ("double_sign", "derivation_basis"):
        assert calls[(fn_name, id(raw_a))] == calls[(fn_name, id(raw_b))] == 1


def test_labels_without_a_canonical_form_act_like_no_label():
    # all four bracket parameters in {1, -1}: the constructor builds them,
    # analyze() places them, the canonical core covers neither
    one = nf.ONE4
    d17 = al.k_family(0, 0, one, one, one, one)
    d134s = al.k_family(0, 0, one, -one, one, -one)
    assert cl.analyze(d17).block.kind == "D17"
    assert cl.analyze(d134s).block.kind == "D134s"
    for a in (d17, d134s):
        verdict = cl.isomorphic(a, a)
        assert verdict.verdict == "unknown"
        assert verdict.reason and "\n" not in verdict.reason
    assert cl.isomorphic(d17, d134s).verdict == "no"
    assert cl.isomorphic(d17, al.standard_isotope(0, 0)).verdict == "unknown"
    assert cl.isomorphic(d134s, al.standard_isotope(0, 0)).verdict == "no"


def test_one_labelled_side_analyzes_the_other_side_only(gen, monkeypatch):
    # equal double signs, so the unlabelled side's derivation algebra is needed
    pairs = [(a, raw(b)) for a, b in [*twin_pairs(gen), *different_block_pairs(gen)]
             if a.dim == b.dim and al.double_sign(a) == al.double_sign(b)]
    pairs += [(b, a) for a, b in pairs]
    wants = [reference_isomorphic(a, b) for a, b in pairs]
    calls = []

    def counted(module, fn_name):
        original = getattr(module, fn_name)

        def wrapper(algebra, *args, **kwargs):
            calls.append((fn_name, algebra))
            return original(algebra, *args, **kwargs)

        monkeypatch.setattr(module, fn_name, wrapper)

    counted(al, "double_sign")
    counted(dv, "derivation_basis")
    for (a, b), want in zip(pairs, wants):
        calls.clear()
        assert_same_verdict(cl.isomorphic(a, b), want)
        labelled, unlabelled = (b, a) if a.family is None else (a, b)
        assert [name for name, x in calls if x is unlabelled] == ["double_sign", "derivation_basis"]
        assert not [name for name, x in calls if x is labelled]
    assert {want.verdict for want in wants} == {"no", "unknown"}
