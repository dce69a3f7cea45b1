"""End-to-end U-Filter benchmark: seeded update streams timed in seconds.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds a database, drives one seeded stream of update
texts through the public API (``UFilter.check`` / ``UpdateSession.execute``)
in a closed loop, checks every outcome against the generator's oracle,
and prints one JSON result line.  ``--trace 1`` repeats the run with a
span tracer patched around each layer's entry point and reports the
per-layer breakdown instead.  See ``streams.py`` for the workloads,
``tracer.py`` for the spans and ``harness.py`` for the metrics;
``REFERENCE.json`` records why each workload is there, the layers it
loads and bypasses, and its per-layer breakdown at the commit that added
the benchmark.
"""
