"""End-to-end and per-layer benchmark of idcalc; run ``python3 perfbench/run.py``."""
