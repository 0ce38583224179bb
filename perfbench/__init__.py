"""The repository benchmark: four closed-loop workloads over DyCuckoo.

Run it with ``python3 perfbench/run.py``; see ``perfbench/NOTES.md``.
"""
