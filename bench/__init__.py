"""Seeded end-to-end and per-layer benchmark of the ``repro`` backend.

Run ``python3 bench/run.py --help``; see ``bench/README.md``.
"""
