"""The repository benchmark: CoRa's encoder at paper shape, offline and served.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  Everything the
benchmark measures goes through the public ``repro`` API; nothing under
``src/`` is modified or monkeypatched except by the span wrappers that
``perfbench.tracing`` installs (and removes) in traced runs.
"""
