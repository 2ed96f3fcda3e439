"""Tempest benchmark: seeded workloads timed end to end and layer by layer.

Run ``python3 bench/run.py --help`` from the repository root.
"""
