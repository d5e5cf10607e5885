import pytest


@pytest.fixture(scope="session")
def save_artifact(spark):
    """``save_artifact(name)`` writes ``results/<name>`` and returns its
    frame. All six Spark artifacts come from one shared sweep
    (``repro.tables.artifacts.sweep``), run once for the session; every
    cell of it must have exact coreness.

    Each gated test still requests ``benchmark`` (and times this write):
    under ``--benchmark-only`` pytest-benchmark skips every test that
    does not, and its gate with it."""
    from repro.tables.artifacts import sweep, tabulate
    from repro.tables.report import RESULTS

    raw = sweep(spark)
    inexact = raw.loc[~raw.exact, ["graph", "algo", "scale"]]
    assert inexact.empty, f"coreness not exact: {inexact.to_dict('records')}"
    frames = tabulate(raw)
    RESULTS.mkdir(exist_ok=True)

    def save(name: str):
        frames[name].to_csv(RESULTS / name, index=False)
        return frames[name]

    return save
