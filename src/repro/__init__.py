"""repro -- Resilient Algorithms and Applications toolkit.

A from-scratch Python reproduction of the system envisioned in
M. A. Heroux, *"Toward Resilient Algorithms and Applications"*
(HPDC 2013 / arXiv:1402.3809): the four resilience-enabling programming
models -- Skeptical Programming (SkP), Relaxed Bulk-Synchronous
Programming (RBSP), Local Failure Local Recovery (LFLR) and Selective
Reliability Programming (SRP) -- together with the substrates they need
(a simulated message-passing runtime with failure semantics, fault
injectors, machine/performance models, sparse linear algebra, Krylov
solvers, PDE discretizations and a checkpoint/restart baseline) and the
resilient algorithms built on top (SDC-detecting GMRES, checksum ABFT,
pipelined Krylov methods, locally-recovered PDE time stepping, and
FT-GMRES with selective reliability).

Subpackage overview
-------------------
``repro.utils``
    RNG management, validation, timing, tables, event logs.
``repro.spec``
    What an axis is made of: the one ``kind:key=value`` spec grammar,
    the ``KindSpec`` base and the name-keyed ``Registry`` every
    sweepable axis declares itself with (``repro.axes`` lists them).
``repro.reliability``
    The unified reliability layer: declarative fault specs and the
    named fault-model registry over bit flips, fault schedules,
    injectors, process-failure models, the SRP region and the
    reliability cost model.
``repro.machine``
    Machine model, ECC-stall variability, collective cost and
    application-efficiency formulas.
``repro.comm``
    The message-passing runtime: one communicator front end, the
    simulated MPI backend (virtual time, asynchronous collectives,
    ULFM-style failure notification, respawn) and the shared-memory
    multiprocess backend.
``repro.linalg``
    CSR sparse matrices, model problems, preconditioners, checksummed
    (ABFT) operations, distributed vectors/matrices.
``repro.krylov``
    CG, GMRES, FGMRES (and FT-GMRES on it), Arnoldi and their pipelined
    variants, unified under one solver engine and a named, sweepable
    solver registry.
``repro.precond``
    The declarative preconditioning layer: serializable
    ``PrecondSpec`` configurations, a named registry and
    ``resolve_preconds`` -- the third sweepable axis, and the natural
    home of selective reliability (only ``M^{-1} v`` unreliable).
``repro.skeptical``
    SkP: invariant checks, policies, monitors, SDC-detecting GMRES.
``repro.rbsp``
    RBSP: the synchronous-vs-pipelined scaling model.
``repro.lflr``
    LFLR: persistent stores, recovery registry, manager, PDE recovery.
``repro.checkpoint``
    Global checkpoint/restart baseline and the Young/Daly model.
``repro.pde``
    Structured-grid heat problems used by the experiments.
``repro.experiments``
    Drivers that regenerate every experiment table pinned in
    ``tests/goldens/``.
"""

__version__ = "1.0.0"

__all__ = [
    "utils",
    "reliability",
    "machine",
    "comm",
    "linalg",
    "krylov",
    "precond",
    "skeptical",
    "rbsp",
    "lflr",
    "checkpoint",
    "pde",
    "experiments",
    "__version__",
]
