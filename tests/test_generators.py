import hashlib
import json

import pytest

from auctionlab.distributions import regularity_report
from auctionlab.generators import GeneratorError, generate_instances
from auctionlab.instances import to_dict


def test_correlated_private_deterministic_and_checked():
    a = generate_instances("correlated-private", {"n": 3, "grid": 3, "count": 4}, seed=7)
    b = generate_instances("correlated-private", {"n": 3, "grid": 3, "count": 4}, seed=7)
    assert len(a) == 4
    for x, y in zip(a, b):
        assert to_dict(x) == to_dict(y)
    for inst in a:
        assert inst.assumption_report()["monotonicity"] == []
        assert inst.metadata["generator"] == "correlated-private"


def test_weighted_sum_passes_single_crossing():
    for inst in generate_instances("weighted-sum", {"n": 3, "beta": "1/2", "count": 5}, seed=1):
        rep = inst.assumption_report()
        assert rep["single_crossing"] == [] and rep["cross_responsiveness"] == []


def test_additive_families_pass_checks():
    for name in ("additive", "concave-additive"):
        for inst in generate_instances(name, {"n": 2, "count": 5}, seed=3):
            rep = inst.assumption_report()
            assert rep["monotonicity"] == []
            assert rep["single_crossing"] == []
            assert rep["cross_responsiveness"] == []


def test_regular_marginals():
    for inst in generate_instances("regular-marginals", {"n": 2, "count": 6}, seed=5):
        for a in inst.agents:
            assert regularity_report(inst.dist.marginal(a)).is_regular


def test_unknown_generator():
    with pytest.raises(GeneratorError, match="unknown generator"):
        generate_instances("nope", {}, seed=0)


def test_generated_instances_round_trip_through_files(tmp_path):
    from auctionlab.instances import load_instance, save_instance

    for name in ("correlated-private", "weighted-sum", "additive", "regular-marginals"):
        inst = generate_instances(name, {"n": 2, "count": 1}, seed=11)[0]
        path = tmp_path / f"{name}.yaml"
        save_instance(inst, path)
        back = load_instance(path)
        assert back.agents == inst.agents
        assert sorted(back.dist.enumerate_support()) == sorted(inst.dist.enumerate_support())
        for s, _ in inst.dist.enumerate_support():
            from auctionlab.valuations import value
            for a in inst.agents:
                assert value(back.vp, a, s) == value(inst.vp, a, s)


PINNED_PARAMS = [
    ("correlated-private", {"n": 2, "grid": 3}),
    ("correlated-private", {"n": 3, "grid": 2, "kind": "partition", "sparsity": 0.2}),
    ("correlated-private", {"n": 2, "grid": 1}),
    ("weighted-sum", {"n": 2}),
    ("weighted-sum", {"n": 3, "beta": "1/2", "sparsity": 0.7}),
    ("weighted-sum", {"n": 2, "grid": 1, "kind": "2-uniform"}),
    ("additive", {"n": 2}),
    ("additive", {"n": 3, "grid": 2, "sparsity": 0.1, "kind": "partition"}),
    ("concave-additive", {"n": 2, "grid": 4}),
    ("concave-additive", {"n": 2, "grid": 1, "kind": "random"}),
    ("regular-marginals", {"n": 2}),
    ("regular-marginals", {"n": 3, "grid": 1, "kind": "1-uniform"}),
]


def test_generated_instances_are_pinned():
    """Every generator's draws, rejections included, stay byte-identical."""
    digest = hashlib.sha256()
    for name, params in PINNED_PARAMS:
        for seed in (0, 1, 2):
            for inst in generate_instances(name, {**params, "count": 2}, seed=seed):
                digest.update(json.dumps([to_dict(inst), inst.metadata],
                                         sort_keys=True, default=str).encode())
    assert digest.hexdigest() == (
        "045ce073c27a06222aa8bcb42f785477ce9a91f6e903809cf6315a09c0a353d8")
