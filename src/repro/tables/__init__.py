"""Experiment harnesses: one module per paper table/figure, the Spark
fan-out runner that executes (graph, algorithm) simulation cells in
parallel, one RDD task per graph, and ``artifacts``, which builds every
table from one deduplicated sweep."""
