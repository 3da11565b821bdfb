"""End-to-end benchmark of the ``repro`` CLI (see README.md in this directory).

``run.py`` is the one command; it never imports :mod:`repro` itself.
``inproc.py`` and ``trace.py`` are the helpers that do, each run in a
process of its own so the driver stays small (a child's ``ru_maxrss``
starts at its parent's resident size).
"""
