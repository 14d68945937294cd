"""Tests for the BLAS thread budget of process-parallel workers
(``repro.utils.threads``), which the sweep's process pool applies."""

import os

from repro.utils.threads import (BLAS_ENV_VARS, BLAS_THREADS_ENV,
                                 apply_blas_thread_limit,
                                 blas_thread_budget, blas_thread_limit)


class TestBlasThreadBudget:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(BLAS_THREADS_ENV, "3")
        assert blas_thread_budget(workers=8) == 3

    def test_budget_divides_cores(self, monkeypatch):
        monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
        budget = blas_thread_budget(workers=10 ** 6)
        assert budget == 1                    # floor is one thread

    def test_limit_sets_and_restores_env(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with blas_thread_limit(2):
            for var in BLAS_ENV_VARS:
                assert os.environ[var] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_apply_is_persistent(self, monkeypatch):
        for var in BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        apply_blas_thread_limit(2)
        for var in BLAS_ENV_VARS:
            assert os.environ[var] == "2"
