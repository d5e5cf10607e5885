"""The results byte-identity check (``python -m repro.tables.check``)."""
from repro.tables import check, figs, report


def test_differing_compares_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "same.csv").write_bytes(b"x,y\n1,2\n")
    (b / "same.csv").write_bytes(b"x,y\n1,2\n")
    (a / "diff.csv").write_bytes(b"x\n1.0\n")
    (b / "diff.csv").write_bytes(b"x\n1.00\n")
    (a / "missing.csv").write_bytes(b"x\n")
    names = ["same.csv", "diff.csv", "missing.csv"]
    assert check.differing(a, b, names) == ["diff.csv", "missing.csv"]


def test_fig12_regenerates_byte_identically(tmp_path):
    """Fig. 12 runs driver-side (no Spark) through ``core/subgraph.py``
    and the engine's local-search path; it must match the committed
    CSV exactly, and the committed CSVs must render EXPERIMENTS.md."""
    figs.fig12_subgraph().to_csv(tmp_path / "fig12.csv", index=False)
    assert check.differing(report.RESULTS, tmp_path, ["fig12.csv"]) == []
    assert report.render(report.RESULTS) == (report.ROOT / "EXPERIMENTS.md").read_text()
