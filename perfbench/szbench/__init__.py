"""The repository's end-to-end benchmark (see ../README.md).

Three workloads drive ``repro`` through its public API only:

* ``codec``    — compress / write / in-situ statistics / read / decompress
                 of every bundled field at two relative bounds;
* ``analysis`` — Zipf-skewed in-process compressed-domain analysis over
                 62 streams, about twice the decoded-block cache;
* ``serve``    — two in-process cluster nodes driven over TCP by one
                 router in a closed loop.

Every workload generates its inputs from ``--seed``, checks every timed
answer, and reports the metrics declared in ``BENCHMARK.json``.
"""
