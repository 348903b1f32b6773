import pytest

from ne_translit.alignment import AlignedPair, ParallelEntry, align_corpus
from ne_translit.model import estimate

from helpers import make_memorization_corpus


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\nacceptance {status}: {name}")


def train_model(entries, smoothing_k=0.0, iterations=10):
    _, usable, _ = align_corpus(entries, iterations)
    return estimate(usable, smoothing_k)


@pytest.fixture
def single_entry_model():
    """Unsmoothed model of one aligned entry: (a,अ) (ma,म) (r,र)."""
    pairs = [AlignedPair("a", "अ"), AlignedPair("ma", "म"), AlignedPair("r", "र")]
    return estimate([pairs], smoothing_k=0.0)


@pytest.fixture(scope="session")
def memorization_corpus():
    return make_memorization_corpus(n=50, seed=7)


@pytest.fixture(scope="session")
def memorization_model(memorization_corpus):
    return train_model(memorization_corpus, smoothing_k=0.0)


@pytest.fixture(scope="session")
def india_model():
    return train_model([ParallelEntry("India", "इंडिया")], smoothing_k=0.0)
