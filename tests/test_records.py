"""The package's records: field names, defaults, immutability and equality."""

import numpy as np
import pytest

from egain import (
    DilationChannel,
    FockDensityMatrix,
    GainReport,
    GaussianChannel,
    GaussianState,
    GibbsState,
    HeavyTailDistribution,
    HermitianCert,
    PhaseSpace,
    QuadraticHamiltonian,
    WilliamsonDecomposition,
)


def _array():
    return np.eye(2)


# every record with keyword arguments for its fields without defaults, in field order;
# ``_array`` stands for a fresh, equal array in each record built
RECORDS = {
    PhaseSpace: dict(s=1, delta=_array),
    HermitianCert: dict(min_eigenvalue=-0.25, tolerance=1e-9),
    WilliamsonDecomposition: dict(T=_array, nu=_array),
    GaussianState: dict(space=None, mean=_array, alpha=_array, cert=None, nu=_array),
    QuadraticHamiltonian: dict(
        space=None, epsilon=_array, factor=_array, inv_factor=_array, w=_array, U=_array,
        U_H=_array, least_frequency=0.5,
    ),
    GibbsState: dict(base=None, beta=1.0, hamiltonian=None, c_beta=0.0),
    GaussianChannel: dict(space=None, K=_array, mu=_array, cert=None, strict=True),
    GainReport: dict(beta_grid=_array, gains=_array, closed_form=0.0, converged=True),
    FockDensityMatrix: dict(dim=2, rho=_array, spectrum=_array),
    DilationChannel: dict(kind="attenuator", k=0.5, dim=2, kraus=_array),
    HeavyTailDistribution: dict(normalizer=1.0, normalizer_uncertainty=0.0),
}
DEFAULTS = {DilationChannel: dict(noise=0.0, first=None)}


def _make(cls):
    return cls(**{name: value() if callable(value) else value for name, value in RECORDS[cls].items()})


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_keeps_its_fields_immutability_and_equality(cls):
    defaults = DEFAULTS.get(cls, {})
    fields = (*RECORDS[cls], *defaults)
    assert cls._fields == fields
    assert tuple(cls.__annotations__) == fields  # the documented types name the same fields
    a, b = _make(cls), _make(cls)
    assert {name: getattr(a, name) for name in defaults} == defaults
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    if cls is HermitianCert:  # a certificate is its two numbers
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != HermitianCert(-0.25, 2e-9)
        assert a._asdict() == {"min_eigenvalue": -0.25, "tolerance": 1e-9}
    else:  # tuple equality would raise on the arrays' truth value
        assert not a == b and a != b and hash(a) != hash(b)
        assert a == a and not a != a and len({a, b, a}) == 2
