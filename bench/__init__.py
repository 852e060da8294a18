"""The repository's benchmark: end-to-end and per-layer metrics over the
campaign, serving and cluster workloads. See ``bench/README.md``."""
