import pytest

from vanishlab.character_lab import proportion
from vanishlab.constructions import random_corpus, replay

CORPUS_SEED = 42
CORPUS_COUNT = 200
CORPUS_MAX_ORDER = 2000

_criterion_lines = []


@pytest.fixture(scope="session")
def corpus_reports():
    """The seeded verification corpus with its exact vanishing census,
    computed once per session."""
    draws = random_corpus(CORPUS_SEED, CORPUS_COUNT, max_order=CORPUS_MAX_ORDER)
    entries = [replay(draw.provenance) for draw in draws]
    return [(entry, proportion(entry.group)) for entry in entries]


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    _criterion_lines.append(f"{name}: {status}")


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
