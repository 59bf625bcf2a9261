import pytest

from harris.errors import DomainError
from harris.synthetic import make_synthetic_scenario


@pytest.mark.parametrize("name, value", [
    ("n_instances", 100.9), ("n_instances", "100"), ("n_instances", True),
    ("n_algorithms", 3.7), ("n_algorithms", "3"),
    ("n_features", 3.7), ("n_features", "3"),
])
def test_sizes_must_be_integers(name, value):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        make_synthetic_scenario(**{name: value})


@pytest.mark.parametrize("sizes", [dict(n_instances=29, n_algorithms=3),
                                   dict(n_algorithms=1), dict(n_features=0)])
def test_sizes_out_of_range(sizes):
    with pytest.raises(DomainError):
        make_synthetic_scenario(**sizes)
