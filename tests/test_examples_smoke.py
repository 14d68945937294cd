"""Tier-1 smoke test: every example walkthrough runs under fast configs.

Each ``examples/*.py`` exposes a parameterized ``main()`` (dataset and
budget knobs with full-size defaults); this suite imports each module by
path and drives it with a tiny dataset and 1-2 epochs, so a facade or
API change that breaks a walkthrough fails the fast suite instead of
being discovered by a user.  All items carry the ``examples`` marker
(``pytest -m examples`` runs just these).
"""

import importlib.util
import os
import sys

import pytest

pytestmark = pytest.mark.examples

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")


def _load_example(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    _load_example("quickstart").main(dataset="tiny", epochs=2)
    out = capsys.readouterr().out
    assert "recall@20" in out
    assert "top-5 recommendations" in out


def test_serving(capsys):
    _load_example("serving").main(dataset="tiny", epochs=2)
    out = capsys.readouterr().out
    assert "identical to the live model" in out
    assert "users/sec" in out


def test_model_comparison(capsys):
    _load_example("model_comparison").main(
        dataset="tiny", epochs=2, models=("biasmf", "lightgcn"))
    out = capsys.readouterr().out
    assert "biasmf" in out and "lightgcn" in out
    assert "Recall@20" in out


def test_custom_dataset(capsys):
    _load_example("custom_dataset").main(epochs=2)
    out = capsys.readouterr().out
    assert "best metrics:" in out


def test_noise_robustness(capsys):
    _load_example("noise_robustness").main(dataset="tiny", epochs=1,
                                           ratios=(0.0, 0.25))
    out = capsys.readouterr().out
    assert "relative drop" in out


def test_popularity_bias(capsys):
    _load_example("popularity_bias").main(dataset="tiny", epochs=2)
    out = capsys.readouterr().out
    assert "gini" in out


def test_sweep(capsys, tmp_path):
    _load_example("sweep").main(dataset="tiny", epochs=2,
                                models=("biasmf", "lightgcn"),
                                seeds=(0,), workers=2,
                                base_dir=str(tmp_path / "sweep"))
    out = capsys.readouterr().out
    assert "2/2 cells completed" in out
    assert "leaderboard ->" in out
    assert "nothing re-run" in out


def test_denoising_case_study(capsys):
    _load_example("denoising_case_study").main(dataset_name="tiny",
                                               epochs=2)
    out = capsys.readouterr().out
    assert "mean embedding similarity" in out


def test_every_example_is_covered():
    """A new example must come with a smoke test."""
    covered = {name[len("test_"):] for name in globals()
               if name.startswith("test_") and name != "test_every_example_is_covered"}
    on_disk = {os.path.splitext(f)[0] for f in os.listdir(EXAMPLES_DIR)
               if f.endswith(".py")}
    assert on_disk <= covered, f"examples missing smoke tests: " \
                               f"{sorted(on_disk - covered)}"
