"""The repository benchmark: four closed-loop workloads, end-to-end
metrics, and an outside-in per-layer ledger (see ``README.md``)."""
