"""Static-analysis tooling enforcing this repo's determinism invariants.

The whole value of the reproduction is bit-identical, seeded re-runs
(the golden-equivalence fixture guards it), but the invariants that
make that true -- no global RNG, no wall-clock reads, no ``id()``-keyed
caches, no draw-order-sensitive set iteration -- used to live only in
code comments and reviewer memory.  PR 1 fixed a real GC-aliasing
``id(table)`` cache bug of exactly this class.  This package encodes
those invariants as machine-checked rules, at two granularities.

Per-file AST rules (``python -m repro.devtools.lint src tests``):

=========  ==========================================================
DET001     global / unseeded randomness (``random.*``, legacy
           ``np.random.*``, argless ``default_rng()``)
DET002     ``id(...)`` used as a dict/cache key or comparison token
DET003     wall-clock reads in simulation/analysis code
DET004     iteration over bare sets (arbitrary order)
COR001     mutable default arguments
COR002     float ``==`` / ``!=`` comparisons
=========  ==========================================================

Whole-program purity rules (``python -m repro.devtools.lint --purity
src``): :mod:`.callgraph` builds a project-wide symbol table and call
graph, :mod:`.effects` computes per-function effect summaries
bottom-up over its SCC condensation, and :mod:`.purity` checks the
declared purity roots (sweep worker entrypoints, checkpoint replay,
the routing kernels, the scenario engine) against them:

=========  ==========================================================
PUR001     root transitively reads the wall clock
PUR002     root transitively draws unseeded randomness
PUR003     root transitively mutates global state
PUR004     root transitively reads the process environment
PUR005     root transitively writes the filesystem
PUR006     root transitively iterates a bare set
=========  ==========================================================

A justified per-file violation is silenced in place with ``# repro:
noqa DET001 -- reason``; purity exemptions live in one allowlist file
(``purity_allowlist.txt``) with the same ``-- justification`` contract
(unjustified entries are NOQ001, stale ones NOQ002).  What static
analysis cannot see, the runtime sanitizer (:mod:`.sanitize`,
``REPRO_SANITIZE=1``) catches with per-stream RNG draw accounting;
shared substrate arrays are read-only wherever they are built, so a
write into one raises at the site with or without it.

Both analyses read files through one reader
(:func:`.registry.read_source`), so a file that cannot be read, is
not UTF-8 or does not parse is a lint error (exit 2) in either mode.
The per-file lint sends every file through one process pool; the
clock/RNG and bare-set classifiers in :mod:`.rules` are the same ones
the purity analyzer's effect scan calls.

The package imports none of its modules: the sweep worker imports
:mod:`.sanitize` on every run and needs nothing else.
Import the linter API from the module that defines it: ``lint_paths``,
``lint_source`` and ``LintReport`` from :mod:`.runner`; ``RULES`` from
:mod:`.rules`; ``Rule``, ``SourceFile``, ``Violation`` and
``read_source`` from :mod:`.registry`.
"""
