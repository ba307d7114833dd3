"""The two-variable multiplicity by its classical case split: the m = 2
reference for `hk_quasi_polynomial`'s e_HK."""

from hkbinomial.multiplicity import _two_variable_case


def hk_multiplicity_1dim(f):
    """The integer multiplicity in two variables, with its case label."""
    cls, label = _two_variable_case(f)
    if cls.t == 0:
        return f.trail.exps[0] + f.trail.exps[1], label
    return cls.pos[0].pmax + cls.neg[0].nmin, label
