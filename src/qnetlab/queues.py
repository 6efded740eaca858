"""Empty: no command runs a scalar queue recursion.

The single-queue, virtual-queue, conservation and Lyapunov references live
in ``tests/oracles.py``.  The module stays, with no names, because the
benchmark's tracer (``perfbench/traced.py``) imports every module of its
``MODULES`` tuple by name, ``queues`` among them.
"""

__all__: list[str] = []
