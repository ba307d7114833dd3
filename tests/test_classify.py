import random

from hkbinomial import HKError, Term, classify, normalize, parse_binomial
from hkbinomial.classify import classification_summary
from tests.closedform_reference import classify_reference
from tests.conftest import random_binomials


def test_worked_instance():
    cls = classify(parse_binomial("x1^3 - x2^2", 5))
    assert (cls.r, cls.s, cls.t) == (1, 0, 1)
    assert cls.delta == (-3, 2)
    n1 = cls.neg[0]
    assert (n1.var, n1.a, n1.nmax, n1.nmin) == (1, 3, 3, 0)
    p1 = cls.pos[0]
    assert (p1.var, p1.dp, p1.pmin, p1.pmax) == (2, 2, 0, 2)


def test_zero_difference_instance():
    cls = classify(parse_binomial("x1^3*x2 - x1*x2", 3))
    assert (cls.r, cls.s, cls.t) == (1, 1, 0)
    assert cls.neg[0].nmin == 1
    assert cls.zero[0].zmin == 1


def test_three_variable_instance():
    cls = classify(parse_binomial("x1^2*x2 - x1*x3", 3))
    assert cls.delta == (-1, -1, 1)
    assert (cls.r, cls.s, cls.t) == (2, 0, 1)


def test_counts_and_perm_recover_labels():
    for f, _, _ in random_binomials(5, 30):
        cls = classify(f)
        assert cls.r + cls.s + cls.t == cls.m
        assert cls.r >= 1  # the lead is deglex-greater, so some variable shrinks
        assert sorted(cls.perm) == list(range(cls.m))
        # delta sorted ascending, sign blocks in order
        assert list(cls.delta) == sorted(cls.delta)
        assert all(d < 0 for d in cls.delta[: cls.r])
        assert all(d == 0 for d in cls.delta[cls.r : cls.r + cls.s])
        assert all(d > 0 for d in cls.delta[cls.r + cls.s :])
        # reversed indexing: record i of neg matches sorted position r-i
        for i, rec in enumerate(cls.neg, start=1):
            assert rec.a == -cls.delta[cls.r - i]
            assert rec.nmax == rec.nmin + rec.a
        for q, rec in enumerate(cls.pos, start=1):
            assert rec.dp == cls.delta[cls.r + cls.s + q - 1]
            assert rec.pmax == rec.pmin + rec.dp


def test_permutation_invariance_of_record_multisets():
    rng = random.Random(17)
    for f, _, _ in random_binomials(8, 20, ms=(3,)):
        perm = list(range(f.m))
        rng.shuffle(perm)
        e2 = tuple(f.lead.exps[perm[i]] for i in range(f.m))
        e1 = tuple(f.trail.exps[perm[i]] for i in range(f.m))
        try:
            g = normalize(f.p, Term(f.lead.coeff, e2), Term(f.trail.coeff, e1))
        except HKError:
            continue
        ca, cb = classify(f), classify(g)
        # the lead/trail roles may swap under relabeling; compare multisets
        mine = sorted((rec.a, rec.nmin) for rec in ca.neg)
        theirs_neg = sorted((rec.a, rec.nmin) for rec in cb.neg)
        theirs_pos = sorted((rec.dp, rec.pmin) for rec in cb.pos)
        assert mine in (theirs_neg, theirs_pos)


def test_summary_shape():
    s = classification_summary(classify(parse_binomial("x1^3 - x2^2", 5)))
    assert s["neg"][0]["var"] == "x1"
    assert s["pos"][0] == {"var": "x2", "dp": 2, "pmin": 0, "pmax": 2}
    assert s["perm"] == [1, 2]


def test_one_pass_matches_the_reference_classification():
    corpus = random_binomials(29, 300, ms=(1, 2, 3, 4, 5, 6), qm_cap=10**9)
    assert {f.m for f, _, _ in corpus} == {1, 2, 3, 4, 5, 6}
    for f, _, _ in corpus:
        assert classify(f) == classify_reference(f), f


def test_cache_is_keyed_on_the_exponents_alone():
    f = normalize(5, Term(2, (3, 1, 0)), Term(4, (0, 1, 2)))
    g = normalize(7, Term(6, (3, 1, 0)), Term(1, (0, 1, 2)))
    assert f != g
    assert classify(f) is classify(g)
    h = normalize(5, Term(2, (3, 1, 0)), Term(4, (0, 0, 2)))  # f's lead, another trail
    assert h.lead.exps == f.lead.exps
    assert classify(h).zero == () and len(classify(f).zero) == 1
